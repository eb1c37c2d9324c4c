#include "common.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

namespace perfbench {
namespace {

const Clock::time_point kProcessStart = Clock::now();

// Innermost open span of the calling thread.
thread_local SeamSpan* current_span = nullptr;

uint64_t Nanos(Clock::duration d) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

}  // namespace

Clock::time_point ProcessStart() { return kProcessStart; }

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

int Expect(const std::string& what, const std::string& failure,
           bool want_rejection) {
  const bool rejected = !failure.empty();
  const bool ok = rejected == want_rejection;
  std::fprintf(stderr, "selftest %-52s %s%s%s\n", what.c_str(),
               ok ? "ok" : "FAILED",
               rejected ? " (rejected: " : "", rejected ? (failure + ")").c_str()
                                                       : "");
  return ok ? 0 : 1;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

SeamSpan::SeamSpan(SeamStats& stats)
    : stats_(stats), parent_(current_span), start_(Clock::now()) {
  current_span = this;
}

SeamSpan::~SeamSpan() {
  const uint64_t total = Nanos(Clock::now() - start_);
  const uint64_t self = total > child_ns_ ? total - child_ns_ : 0;
  stats_.calls.fetch_add(1, std::memory_order_relaxed);
  stats_.self_ns.fetch_add(self, std::memory_order_relaxed);
  if (parent_ != nullptr) parent_->child_ns_ += total;
  current_span = parent_;
}

}  // namespace perfbench
