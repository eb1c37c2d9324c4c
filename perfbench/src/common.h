// Shared plumbing of the time-to-φ̂ benchmark: run arguments, the metric
// list every workload returns, clocks, medians, the process high-water mark
// and a small self-time tracer for the traced runs.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Seconds between two steady-clock points.
inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// Steady-clock reading taken while the program's static objects are built,
// i.e. before main(); setup_s is measured from here.
Clock::time_point ProcessStart();

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory for files a run writes (the checkpoint store); created and
  // removed by the run itself.
  std::string scratch_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run of a workload hands back to main(): the counts the JSON
// line reports, the metrics in the order the ledger prints them, and the
// first failed correctness check (empty when every check held).
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string check_failure;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// A program call that should not fail did: the run stops without a result
// line (main() reports it and exits non-zero).
inline void Require(const digfl::Status& status, const char* what) {
  if (!status.ok()) {
    throw std::runtime_error(std::string(what) + ": " + status.ToString());
  }
}

template <typename T>
T Unwrap(digfl::Result<T> result, const char* what) {
  Require(result.status(), what);
  return std::move(result).value();
}

double Median(std::vector<double> values);

// Median over rounds of field(round).
template <typename Round, typename Field>
double MedianOver(const std::vector<Round>& rounds, Field field) {
  std::vector<double> values;
  values.reserve(rounds.size());
  for (const Round& round : rounds) {
    values.push_back(static_cast<double>(field(round)));
  }
  return Median(std::move(values));
}

// One self-test verdict: `failure` is a check's result (empty = accepted).
// Prints a line to stderr and returns 1 when the check did not do what was
// expected of it (accept the true outputs, reject a perturbed copy).
int Expect(const std::string& what, const std::string& failure,
           bool want_rejection);

// Process high-water resident set (VmHWM) in MiB; 0 when unreadable.
double PeakRssMb();

// Accumulated self time and call count of one traced seam. Thread-safe:
// the distributed workload records from the coordinator's round workers
// and the participant threads at once.
struct SeamStats {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> self_ns{0};

  double SelfSeconds() const { return static_cast<double>(self_ns) * 1e-9; }
};

// Times one call at a seam. Spans nest per thread: a span's self time is
// its duration minus the time of spans opened inside it on the same
// thread, so self times of different seams can be summed without counting
// any interval twice.
class SeamSpan {
 public:
  explicit SeamSpan(SeamStats& stats);
  ~SeamSpan();
  SeamSpan(const SeamSpan&) = delete;
  SeamSpan& operator=(const SeamSpan&) = delete;

 private:
  SeamStats& stats_;
  SeamSpan* parent_;
  Clock::time_point start_;
  uint64_t child_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
