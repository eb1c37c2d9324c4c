// perfbench: the time-to-φ̂ benchmark binary.
//
//   perfbench --workload <hfl-inproc|hfl-tcp-ha|vfl-paillier> --seed <n>
//             --seconds <s> --trace <0|1> --scratch-dir <dir>
//   perfbench --selftest [--seed <n>] --scratch-dir <dir>
//
// A run prints its metrics as a table on stderr and, as the last line of
// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ledger, each in BENCHMARK.json's order and units. Exit code 0 means a
// result was printed; a failed correctness check is reported in the result
// ("correct": false), a program call that failed outright stops the run
// with exit code 1 and no result.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace {

using perfbench::RunArgs;
using perfbench::RunResult;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <hfl-inproc|hfl-tcp-ha|"
               "vfl-paillier> --seed <n> --seconds <s> --trace <0|1> "
               "--scratch-dir <dir>\n"
               "       perfbench --selftest [--seed <n>] --scratch-dir <dir>\n",
               why);
  return 2;
}

// The metrics a result line holds, in BENCHMARK.json's order and units:
// every end-to-end metric untraced, every per-layer metric traced. Each
// workload reports all end-to-end metrics; a per-layer row of a layer the
// workload never enters (crypto on the HFL workloads, net on hfl-inproc)
// reads 0.
struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"run_s", "s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"epoch_s", "s"},
    {"phi_alg2_s", "s"},
    {"phi_alg1_s", "s"},
    {"recover_s", "s"},
    {"wire_bytes_per_epoch", "bytes"},
    {"nn.gradient_calls", "count"},
    {"nn.gradient_s", "s"},
    {"nn.loss_calls", "count"},
    {"nn.loss_s", "s"},
    {"nn.predict_calls", "count"},
    {"nn.predict_s", "s"},
    {"nn.hvp_calls", "count"},
    {"nn.hvp_s", "s"},
    {"nn.server_s", "s"},
    {"hfl.other_s", "s"},
    {"core.val_grad_s", "s"},
    {"core.dot_s", "s"},
    {"core.other_s", "s"},
    {"core.alg1_val_grad_s", "s"},
    {"core.alg1_other_s", "s"},
    {"net.bytes_out", "bytes"},
    {"net.bytes_in", "bytes"},
    {"net.send_calls", "count"},
    {"net.send_s", "s"},
    {"net.recv_wait_s", "s"},
    {"net.round_s", "s"},
    {"wire.encode_round_us", "us"},
    {"wire.decode_reply_us", "us"},
    {"ckpt.commit_s", "s"},
    {"ckpt.commit_last_s", "s"},
    {"ckpt.self_s", "s"},
    {"ckpt.bytes_first", "bytes"},
    {"ckpt.bytes_last", "bytes"},
    {"ckpt.encode_last_s", "s"},
    {"ckpt.decode_last_s", "s"},
    {"repl.bytes_first", "bytes"},
    {"repl.bytes_last", "bytes"},
    {"repl.send_s", "s"},
    {"repl.ack_wait_s", "s"},
    {"ha.detect_s", "s"},
    {"ha.reassembly_s", "s"},
    {"ha.warmstart_s", "s"},
    {"net.other_s", "s"},
    {"crypto.keygen_s", "s"},
    {"crypto.encrypt_calls", "count"},
    {"crypto.decrypt_calls", "count"},
    {"crypto.add_calls", "count"},
    {"crypto.scalar_mul_calls", "count"},
    {"crypto.encrypt_us", "us"},
    {"crypto.decrypt_us", "us"},
    {"crypto.add_us", "us"},
    {"crypto.scalar_mul_us", "us"},
    {"crypto.attributed_s", "s"},
    {"vfl.other_s", "s"},
    {"trace.run_s", "s"},
};

// Puts the workload's metrics into the manifest's order. Throws when the
// workload reports a metric the manifest does not name, reports one in
// another unit, or leaves out an end-to-end metric.
std::vector<perfbench::Metric> ToManifest(bool trace,
                                          std::vector<perfbench::Metric> got) {
  std::vector<perfbench::Metric> out;
  auto place = [&](const MetricSpec& spec) {
    for (auto it = got.begin(); it != got.end(); ++it) {
      if (it->name != spec.name) continue;
      if (it->unit != spec.unit) {
        throw std::logic_error("metric " + it->name + " in " + it->unit +
                               ", manifest says " + spec.unit);
      }
      out.push_back(std::move(*it));
      got.erase(it);
      return;
    }
    if (!trace) {
      throw std::logic_error(std::string("end-to-end metric ") + spec.name +
                             " not reported");
    }
    out.push_back({spec.name, 0.0, spec.unit});
  };
  if (trace) {
    for (const MetricSpec& spec : kPerLayer) place(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) place(spec);
  }
  if (!got.empty()) {
    throw std::logic_error("metric " + got.front().name +
                           " is not in the manifest");
  }
  return out;
}

// All 17 significant digits, so the double round-trips.
std::string Number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void PrintResult(const RunArgs& args, const RunResult& result) {
  const std::vector<perfbench::Metric> metrics =
      ToManifest(args.trace, result.metrics);
  std::fprintf(stderr, "%s seed=%llu trace=%d rounds=%llu\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
               static_cast<unsigned long long>(result.attempted));
  for (const perfbench::Metric& m : metrics) {
    std::fprintf(stderr, "  %-24s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  if (!result.check_failure.empty()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", result.check_failure.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.check_failure.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const perfbench::Metric& m = metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  bool selftest = false;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--scratch-dir") {
      args.scratch_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.scratch_dir.empty()) return Usage("--scratch-dir is required");

  try {
    if (selftest) {
      int failures = perfbench::SelfTestHflInproc(args);
      failures += perfbench::SelfTestHflTcpHa(args);
      failures += perfbench::SelfTestVflPaillier(args);
      std::fprintf(stderr, "selftest: %d failure(s)\n", failures);
      return failures == 0 ? 0 : 1;
    }
    if (!have_seed || !have_seconds || !have_trace) {
      return Usage("--seed, --seconds and --trace are required");
    }
    RunResult result;
    if (args.workload == "hfl-inproc") {
      result = perfbench::RunHflInproc(args);
    } else if (args.workload == "hfl-tcp-ha") {
      result = perfbench::RunHflTcpHa(args);
    } else if (args.workload == "vfl-paillier") {
      result = perfbench::RunVflPaillier(args);
    } else {
      return Usage(("unknown workload " + args.workload).c_str());
    }
    PrintResult(args, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
