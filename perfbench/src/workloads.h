// The benchmark's workloads. Each runs whole rounds of its operation for
// args.seconds, checks the outputs and returns its metrics: the end-to-end
// ones untraced, the per-layer ledger traced.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

RunResult RunHflInproc(const RunArgs& args);
RunResult RunHflTcpHa(const RunArgs& args);
RunResult RunVflPaillier(const RunArgs& args);

// Self-tests of the correctness checks: each produces a workload's real
// outputs, confirms its checks accept them, then feeds every check a
// perturbed copy and confirms it is rejected. Return the number of
// self-test failures (0 = every check accepted the truth and caught every
// perturbation).
int SelfTestHflInproc(const RunArgs& args);
int SelfTestHflTcpHa(const RunArgs& args);
int SelfTestVflPaillier(const RunArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
