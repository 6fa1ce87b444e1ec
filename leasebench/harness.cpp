// leasebench_harness: runs one benchmark workload against the lease
// stack and prints one JSON result line.
//
//   leasebench_harness --workload renewal_scale|write_fanout|tcp_invalidate
//                      --seed N --seconds S --trace 0|1
//                      [--ignore-invalidations]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the separate
// traced run and prints the per-layer metrics plus the tracing overhead.
// The last line of standard output is the result object; failed output
// checks are listed on standard error and reported as "correct": false.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <new>
#include <string>

#include "common.h"
#include "util/flags.h"

namespace {

const std::int64_t g_startNs = leasebench::nowNs();
std::uint64_t g_allocations = 0;

}  // namespace

// Counting operator new: the harness binary's own allocator hook, so
// alloc.per_event counts every ordinary (not over-aligned) allocation
// the library makes on the measured path. The harness is
// single-threaded.
void* operator new(std::size_t n) {
  ++g_allocations;
  void* p = std::malloc(n ? n : 1);
  if (!p) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace leasebench {

std::int64_t sinceStartNs() { return nowNs() - g_startNs; }

std::int64_t processCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

std::uint64_t allocationCount() { return g_allocations; }

double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string word;
  while (status >> word) {
    if (word == "VmHWM:") {
      long kb = 0;
      status >> kb;
      return static_cast<double>(kb) / 1024.0;
    }
  }
  return 0;
}

}  // namespace leasebench

int main(int argc, char** argv) {
  using namespace leasebench;
  vlease::Flags flags;
  flags.addString("workload", "",
                  "renewal_scale | write_fanout | tcp_invalidate");
  flags.addInt("seed", 1, "input seed");
  flags.addDouble("seconds", 10, "measured host seconds");
  flags.addInt("trace", 0, "1 = traced run (per-layer metrics)");
  flags.addBool("ignore-invalidations", false,
                "negative control: clients keep invalidated copies");
  if (!flags.parse(argc, argv)) return 2;

  Args args;
  args.workload = flags.getString("workload");
  args.seed = static_cast<std::uint64_t>(flags.getInt("seed"));
  args.seconds = flags.getDouble("seconds");
  args.trace = flags.getInt("trace") != 0;
  args.ignoreInvalidations = flags.getBool("ignore-invalidations");
  if (args.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }

  Result result;
  if (args.workload == "renewal_scale") {
    result = runRenewalScale(args);
  } else if (args.workload == "write_fanout") {
    result = runWriteFanout(args);
  } else if (args.workload == "tcp_invalidate") {
    result = runTcpInvalidate(args);
  } else {
    std::fprintf(stderr, "unknown --workload '%s'\n", args.workload.c_str());
    return 2;
  }

  for (const Result::Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) result.fail(m.name + " is not finite");
  }
  if (args.trace) {
    // The per-layer table, for a reader; the JSON line below carries
    // the same values.
    std::fprintf(stderr, "%-24s %16s  %s\n", "layer metric", "value", "unit");
    for (const Result::Metric& m : result.metrics) {
      std::fprintf(stderr, "%-24s %16.4f  %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    }
  }
  for (const std::string& p : result.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Result::Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
