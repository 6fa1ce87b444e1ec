// Shared pieces of the lease-stack benchmark harness: command-line
// arguments, the result record every workload fills in, latency
// distributions, the per-layer span accumulators of the traced run, and
// the timing wrapper re-attached in front of protocol endpoints.
//
// The harness measures layers from outside: it times calls into their
// public functions and never adds tracing inside the program.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/transport.h"

namespace leasebench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Negative control: run with ProtocolConfig::faultInjectIgnoreInvalidations
  /// so clients ack invalidations but keep serving the old copy. The
  /// version checks must then fail.
  bool ignoreInvalidations = false;
};

/// What one run reports: the verdict of the harness's own output checks,
/// the operation counts and the named metrics.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::string> problems;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Record a failed check (kept to the first few messages).
  void fail(const std::string& what) {
    correct = false;
    if (problems.size() < 20) problems.push_back(what);
  }
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
};

using Clock = std::chrono::steady_clock;

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Nanoseconds of host time since main() started.
std::int64_t sinceStartNs();

/// CPU time (user + system) this process has used since it started,
/// loading included: the set-up clock. Unlike host time it does not
/// count the time the process waited for a CPU.
std::int64_t processCpuNs();

/// Allocations made through this binary's operator new so far.
std::uint64_t allocationCount();

/// Peak resident set of this process in MB (VmHWM).
double peakRssMb();

double median(std::vector<double> values);

/// Exact distribution of integer samples (simulated microseconds): few
/// distinct values, so a count per value is small and percentiles are
/// exact.
class ExactDistribution {
 public:
  void add(std::int64_t v) {
    ++counts_[v];
    ++n_;
    sum_ += v;
  }
  std::int64_t count() const { return n_; }
  /// Exact sum / count; 0 when empty.
  double mean() const { return n_ ? static_cast<double>(sum_) / n_ : 0; }
  /// Nearest-rank percentile, q in (0, 1]; 0 when empty.
  std::int64_t percentile(double q) const;
  std::int64_t max() const;

 private:
  std::unordered_map<std::int64_t, std::int64_t> counts_;
  std::int64_t n_ = 0;
  std::int64_t sum_ = 0;
};

/// Log-linear histogram of host-time samples in nanoseconds: 128 linear
/// sub-buckets per power of two, so a percentile is within 1/128 of the
/// true value. Fixed size, so memory does not grow with the run.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(64 * kSub, 0) {}
  void add(std::int64_t ns);
  std::int64_t count() const { return n_; }
  /// Sum and mean of the samples as added (not bucketed); mean 0 when
  /// empty.
  std::int64_t sum() const { return sum_; }
  double mean() const { return n_ ? static_cast<double>(sum_) / n_ : 0; }
  /// Nearest-rank percentile (bucket midpoint), q in (0, 1].
  double percentile(double q) const;

 private:
  static constexpr int kSubBits = 7;
  static constexpr int kSub = 1 << kSubBits;
  std::vector<std::int64_t> counts_;
  std::int64_t n_ = 0;
  std::int64_t sum_ = 0;
};

/// Busy time and call count of one layer boundary.
struct Span {
  std::int64_t ns = 0;
  std::int64_t calls = 0;
  void add(std::int64_t d) {
    ns += d;
    ++calls;
  }
};

/// Re-attached in front of a protocol endpoint on its transport: times
/// every deliver() into the endpoint and counts what crosses it.
class TimedSink final : public vlease::net::MessageSink {
 public:
  TimedSink(vlease::net::MessageSink* inner, Span* span,
            std::int64_t* invalidations)
      : inner_(inner), span_(span), invalidations_(invalidations) {}
  void deliver(const vlease::net::Message& msg) override;

 private:
  vlease::net::MessageSink* inner_;
  Span* span_;
  /// Invalidated objects carried by delivered messages (single
  /// invalidations plus batched ones); null for server endpoints.
  std::int64_t* invalidations_;
};

Result runRenewalScale(const Args& args);
Result runWriteFanout(const Args& args);
Result runTcpInvalidate(const Args& args);

}  // namespace leasebench
