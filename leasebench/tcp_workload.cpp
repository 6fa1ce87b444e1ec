// tcp_invalidate: invalidation rounds over real TCP on the host
// loopback, in one process and one thread.
//
// One VolumeServer and kClients VolumeClients share one
// rt::RealTimeDriver. The server has its own TcpTransport; the clients
// share a second one, so the run holds kClients + 1 TCP connections
// (one from the server to each client node, one from the clients to the
// server). The loop is closed: each round the server writes an object
// every client holds and the harness waits for the commit, then every
// client re-reads the object and the harness waits for all the reads.
// Lease terms are an hour, so no renewal traffic mixes in. The written
// object is drawn from trace::EventStream, seeded by --seed. Set-up ends
// after every client has read every object and kWarmRounds rounds have
// run; their latencies are not reported.
//
// Operations are handed to the loop as zero-delay scheduler timers, so
// they run on the loop thread inside RealTimeDriver::step and their
// sends take the coalesced writev path a deployed node uses.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/volume_client.h"
#include "core/volume_server.h"
#include "net/message.h"
#include "rt/tcp_transport.h"
#include "trace/stream.h"

namespace leasebench {
namespace {

using namespace vlease;

constexpr std::uint32_t kClients = 3;
constexpr std::uint64_t kObjects = 16;
/// Write-then-reread rounds run during set-up, before anything is
/// measured: they warm the connections, the allocator and the caches.
constexpr std::int64_t kWarmRounds = 1000;
/// Rounds per block of the traced run, which alternates untraced and
/// traced blocks to measure the tracing overhead.
constexpr std::int64_t kTraceBlockRounds = 2000;
/// Host-time block of the timed run: read_mean_us is the lower quartile
/// of the blocks' mean read latencies.
constexpr std::int64_t kBlockNs = 500'000'000;

class TcpBench {
 public:
  TcpBench(std::uint64_t seed, bool ignoreInvalidations, Result& result);
  Result& run(const Args& args);

 private:
  /// Frame and message totals, read before and after a measured window.
  struct Counters {
    std::int64_t framesSent = 0, framesReceived = 0, bytes = 0;
    std::int64_t fired = 0;
    std::uint64_t allocations = 0;
  };
  /// Spans of the traced blocks.
  struct Trace {
    Span step, server, client, next;
    std::int64_t invalidations = 0;
  };

  Counters counters();
  void setTraced(bool on);
  void step();
  void waitIdle();
  void warmUp();
  void round();

  Result& result_;
  trace::Catalog catalog_;
  std::vector<ObjectId> objects_;
  proto::ProtocolConfig config_;
  rt::RealTimeDriver driver_;
  stats::Metrics serverMetrics_, clientMetrics_;
  rt::TcpTransport serverTransport_, clientTransport_;
  proto::ProtocolContext serverCtx_, clientCtx_;
  core::VolumeServer server_;
  std::vector<std::unique_ptr<core::VolumeClient>> clients_;
  trace::StreamOptions streamOptions_;
  trace::EventStream stream_;

  bool traced_ = false;
  Trace trace_;
  std::vector<TimedSink> wrappers_;  // [0] = server, then clients

  /// Harness-side version table from write completions (1 = unwritten).
  std::vector<Version> committed_;
  std::int64_t outstanding_ = 0;
  std::int64_t reads_ = 0, readsOk_ = 0, writes_ = 0, writesDone_ = 0;
  std::int64_t wrongVersion_ = 0, steps_ = 0;
  std::vector<std::int64_t> readStart_;
  std::int64_t writeStart_ = 0;
  LatencyHistogram readNs_, writeNs_;
};

proto::ProtocolConfig tcpConfig(bool ignoreInvalidations) {
  proto::ProtocolConfig c;
  c.algorithm = proto::Algorithm::kVolumeLease;
  c.objectTimeout = hours(1);
  c.volumeTimeout = hours(1);
  c.msgTimeout = sec(5);
  c.readTimeout = sec(10);
  c.faultInjectIgnoreInvalidations = ignoreInvalidations;
  return c;
}

std::vector<ObjectId> addObjects(trace::Catalog& catalog) {
  const VolumeId vol = catalog.addVolume(catalog.serverNode(0));
  std::vector<ObjectId> objects;
  for (std::uint64_t o = 0; o < kObjects; ++o) {
    objects.push_back(catalog.addObject(vol, 8 << 10));
  }
  return objects;
}

trace::StreamOptions objectStream(std::uint64_t seed) {
  trace::StreamOptions s;
  s.seed = seed;
  s.events = std::int64_t{1} << 40;  // never exhausted; drawn per round
  s.numClients = kClients;
  s.interarrival = usec(1);
  return s;
}

TcpBench::TcpBench(std::uint64_t seed, bool ignoreInvalidations,
                   Result& result)
    : result_(result),
      catalog_(1, kClients),
      objects_(addObjects(catalog_)),
      config_(tcpConfig(ignoreInvalidations)),
      serverTransport_(driver_, serverMetrics_, 0),
      clientTransport_(driver_, clientMetrics_, 0),
      serverCtx_{driver_.scheduler(), serverTransport_, serverMetrics_,
                 catalog_},
      clientCtx_{driver_.scheduler(), clientTransport_, clientMetrics_,
                 catalog_},
      server_(serverCtx_, catalog_.serverNode(0), config_,
              core::InvalidationMode::kImmediate),
      streamOptions_(objectStream(seed)),
      stream_(streamOptions_, catalog_, objects_),
      committed_(kObjects, 1),
      readStart_(kClients, 0) {
  for (std::uint32_t c = 0; c < kClients; ++c) {
    serverTransport_.addPeer(catalog_.clientNode(c), "127.0.0.1",
                             clientTransport_.listenPort());
    clients_.push_back(std::make_unique<core::VolumeClient>(
        clientCtx_, catalog_.clientNode(c), config_));
  }
  clientTransport_.addPeer(catalog_.serverNode(0), "127.0.0.1",
                           serverTransport_.listenPort());
  wrappers_.reserve(1 + kClients);
  wrappers_.emplace_back(&server_, &trace_.server, nullptr);
  for (auto& c : clients_) {
    wrappers_.emplace_back(c.get(), &trace_.client, &trace_.invalidations);
  }
}

TcpBench::Counters TcpBench::counters() {
  Counters c;
  c.framesSent = serverTransport_.framesSent() + clientTransport_.framesSent();
  c.framesReceived =
      serverTransport_.framesReceived() + clientTransport_.framesReceived();
  // Every message is metered once on the server's side: sent by it, or
  // received by it.
  c.bytes = serverMetrics_.totalBytes();
  c.fired = driver_.scheduler().firedCount();
  c.allocations = allocationCount();
  return c;
}

void TcpBench::setTraced(bool on) {
  traced_ = on;
  serverTransport_.attach(catalog_.serverNode(0),
                          on ? static_cast<net::MessageSink*>(&wrappers_[0])
                             : &server_);
  for (std::uint32_t c = 0; c < kClients; ++c) {
    clientTransport_.attach(
        catalog_.clientNode(c),
        on ? static_cast<net::MessageSink*>(&wrappers_[1 + c])
           : clients_[c].get());
  }
}

void TcpBench::step() {
  ++steps_;
  if (!traced_) {
    driver_.step(1);
    return;
  }
  const std::int64_t t0 = nowNs();
  driver_.step(1);
  trace_.step.add(nowNs() - t0);
}

void TcpBench::waitIdle() {
  const std::int64_t giveUp = nowNs() + std::int64_t{10'000'000'000};
  while (outstanding_ > 0) {
    step();
    if (nowNs() > giveUp) {
      result_.fail("an operation did not complete within 10 s");
      outstanding_ = 0;
    }
  }
}

void TcpBench::warmUp() {
  // Every client reads every object once: all hold every object lease.
  // Then kWarmRounds ordinary rounds, whose latencies are discarded.
  for (std::uint32_t c = 0; c < kClients; ++c) {
    for (const ObjectId obj : objects_) {
      ++outstanding_;
      driver_.scheduler().scheduleAfter(0, [this, c, obj]() {
        clients_[c]->read(obj, [this](const proto::ReadResult& r) {
          result_.check(r.ok && r.version == 1, "warm-up read failed");
          --outstanding_;
        });
      });
    }
  }
  waitIdle();
  for (std::int64_t i = 0; i < kWarmRounds; ++i) round();
  readNs_ = LatencyHistogram();
  writeNs_ = LatencyHistogram();
}

void TcpBench::round() {
  trace::TraceEvent ev;
  if (traced_) {
    const std::int64_t t0 = nowNs();
    stream_.next(ev);
    trace_.next.add(nowNs() - t0);
  } else {
    stream_.next(ev);
  }
  const ObjectId obj = ev.obj;

  ++writes_;
  outstanding_ = 1;
  driver_.scheduler().scheduleAfter(0, [this, obj]() {
    writeStart_ = nowNs();
    server_.write(obj, [this, obj](const proto::WriteResult& w) {
      writeNs_.add(nowNs() - writeStart_);
      Version& v = committed_[raw(obj)];
      if (w.newVersion != v + 1) ++wrongVersion_;
      v = w.newVersion;
      ++writesDone_;
      --outstanding_;
    });
  });
  waitIdle();

  outstanding_ = kClients;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    ++reads_;
    driver_.scheduler().scheduleAfter(0, [this, c, obj]() {
      readStart_[c] = nowNs();
      clients_[c]->read(obj, [this, c, obj](const proto::ReadResult& r) {
        readNs_.add(nowNs() - readStart_[c]);
        if (r.ok) ++readsOk_;
        // Issued after the commit with no other write in flight: the
        // read must return exactly the committed version.
        if (!r.ok || r.version != committed_[raw(obj)]) ++wrongVersion_;
        --outstanding_;
      });
    });
  }
  waitIdle();
}

Result& TcpBench::run(const Args& args) {
  warmUp();
  const double setupSeconds = processCpuNs() / 1e9;
  const std::int64_t budgetNs = static_cast<std::int64_t>(args.seconds * 1e9);
  const Counters c0 = counters();
  const std::int64_t reads0 = reads_, writes0 = writes_;
  const std::int64_t t0 = nowNs();
  // Mean read latency of each kBlockNs block of the timed run.
  std::vector<double> blockMeans;
  std::int64_t blockStart = t0, blockSum = 0, blockReads = 0;

  // Traced run: alternating untraced and traced blocks of rounds.
  std::vector<double> plainNsPerOp, tracedNsPerOp;
  std::int64_t tracedOps = 0, tracedSteps = 0;
  Counters tracedDelta;
  do {
    if (!args.trace) {
      round();
      if (nowNs() - blockStart >= kBlockNs) {
        blockMeans.push_back(static_cast<double>(readNs_.sum() - blockSum) /
                             (readNs_.count() - blockReads));
        blockSum = readNs_.sum();
        blockReads = readNs_.count();
        blockStart = nowNs();
      }
      continue;
    }
    for (const bool on : {false, true}) {
      setTraced(on);
      const Counters b0 = counters();
      const std::int64_t ops0 = reads_ + writes_, steps0 = steps_;
      const std::int64_t s = nowNs();
      for (std::int64_t i = 0; i < kTraceBlockRounds; ++i) round();
      const double perOp =
          static_cast<double>(nowNs() - s) / (reads_ + writes_ - ops0);
      (on ? tracedNsPerOp : plainNsPerOp).push_back(perOp);
      if (on) {
        const Counters b1 = counters();
        tracedOps += reads_ + writes_ - ops0;
        tracedSteps += steps_ - steps0;
        tracedDelta.framesSent += b1.framesSent - b0.framesSent;
        tracedDelta.bytes += b1.bytes - b0.bytes;
        tracedDelta.fired += b1.fired - b0.fired;
        tracedDelta.allocations += b1.allocations - b0.allocations;
      }
    }
    setTraced(false);
  } while (nowNs() - t0 < budgetNs);
  const double window = (nowNs() - t0) / 1e9;
  const Counters c1 = counters();

  // ---- output checks ----
  const std::int64_t ops = reads_ + writes_;
  result_.attempted = ops;
  result_.failed = (reads_ - readsOk_) + (writes_ - writesDone_);
  result_.check(wrongVersion_ == 0,
                std::to_string(wrongVersion_) +
                    " reads or writes saw a version other than the one the "
                    "harness expected");
  result_.check(writesDone_ == writes_ && readsOk_ == reads_,
                "operations issued != operations completed");
  result_.check(c1.framesSent == c1.framesReceived,
                "frames sent " + std::to_string(c1.framesSent) +
                    " != frames received " + std::to_string(c1.framesReceived));
  result_.check(serverTransport_.sendFailures() + clientTransport_.sendFailures() +
                        serverTransport_.framesRejected() +
                        clientTransport_.framesRejected() ==
                    0,
                "transport send failures or rejected frames");
  // Over the whole process, warm-up rounds included: only rounds write.
  const std::int64_t invalsSent =
      serverMetrics_.messagesOfType(net::payloadIndex<net::Invalidate>());
  const std::int64_t invalsReceived =
      clientMetrics_.messagesOfType(net::payloadIndex<net::Invalidate>());
  result_.check(invalsSent == writes_ * kClients &&
                    invalsReceived == writes_ * kClients,
                "invalidations sent " + std::to_string(invalsSent) +
                    ", received " + std::to_string(invalsReceived) +
                    ", expected one per holder per write: " +
                    std::to_string(writes_ * kClients));

  if (!args.trace) {
    server_.finalizeAccounting(driver_.elapsed());
    serverMetrics_.setHorizon(driver_.elapsed());
    result_.add("setup_s", setupSeconds, "s");
    result_.add("peak_rss_mb", peakRssMb(), "MB");
    result_.add("msgs_per_read",
                static_cast<double>(c1.framesSent - c0.framesSent) /
                    (reads_ - reads0),
                "msgs/read");
    result_.add("server_state_kb",
                serverMetrics_.avgStateBytes(catalog_.serverNode(0)) / 1024,
                "KB");
    // The lower quartile of the block means: a block in which other
    // work on the host slowed the loop down does not move it, while a
    // slower program moves every block.
    std::sort(blockMeans.begin(), blockMeans.end());
    const double quietMean =
        blockMeans.empty() ? readNs_.mean() : blockMeans[blockMeans.size() / 4];
    result_.add("read_mean_us", quietMean / 1e3, "us");
    std::fprintf(stderr,
                 "reference (host): events_per_s %.0f (frames), ops_per_s "
                 "%.0f, read mean over the run %.3f us, read_p50_us %.3f, "
                 "read_p99_us %.3f, write_mean_us "
                 "%.3f, write_p50_us %.3f, write_delay_p99_ms %.4f over %zu "
                 "reads\n",
                 (c1.framesReceived - c0.framesReceived) / window,
                 (ops - reads0 - writes0) / window, readNs_.mean() / 1e3,
                 readNs_.percentile(0.50) / 1e3, readNs_.percentile(0.99) / 1e3,
                 writeNs_.mean() / 1e3, writeNs_.percentile(0.50) / 1e3,
                 writeNs_.percentile(0.99) / 1e6,
                 static_cast<std::size_t>(readNs_.count()));
    std::fprintf(stderr, "%lld rounds, %lld steps\n",
                 static_cast<long long>(writes_),
                 static_cast<long long>(steps_));
    return result_;
  }

  const double tops = static_cast<double>(tracedOps);
  const double plain = median(plainNsPerOp);
  const double traced = median(tracedNsPerOp);
  for (const char* name : {"driver.inject_ns", "driver.drain_ns",
                           "driver.oracle_ns", "core.sweep_ns", "sim.self_ns"}) {
    result_.add(name, 0, "ns");
  }
  result_.add("trace.next_ns",
              static_cast<double>(trace_.next.ns) / trace_.next.calls, "ns");
  result_.add("core.server_ns_per_msg",
              static_cast<double>(trace_.server.ns) / trace_.server.calls, "ns");
  result_.add("core.server_msgs", trace_.server.calls / tops, "msgs/event");
  result_.add("core.client_ns_per_msg",
              static_cast<double>(trace_.client.ns) / trace_.client.calls, "ns");
  result_.add("core.client_msgs", trace_.client.calls / tops, "msgs/event");
  result_.add("core.cache_hit_ratio", 0.0, "ratio");
  result_.add("core.invals_per_write",
              trace_.invalidations / (tops / (1 + kClients)), "invals/write");
  result_.add("sim.fired_per_event", tracedDelta.fired / tops, "timers/event");
  result_.add("net.msgs_sent", tracedDelta.framesSent / tops, "msgs/event");
  result_.add("net.bytes_per_read",
              tracedDelta.bytes / (tops * kClients / (1 + kClients)), "B/read");
  result_.add("alloc.per_event", tracedDelta.allocations / tops, "allocs/event");
  result_.add("rt.step_ns",
              static_cast<double>(trace_.step.ns) / trace_.step.calls, "ns");
  result_.add("rt.steps_per_op", tracedSteps / tops, "steps/op");
  result_.add("rt.server_ns_per_msg",
              static_cast<double>(trace_.server.ns) / trace_.server.calls, "ns");
  result_.add("rt.transport_self_ns",
              (trace_.step.ns - trace_.server.ns - trace_.client.ns) / tops, "ns");
  result_.add("rt.frames_per_op", tracedDelta.framesSent / tops, "frames/op");
  result_.add("tracing_overhead_pct", (traced - plain) / plain * 100, "%");
  return result_;
}

}  // namespace

Result runTcpInvalidate(const Args& args) {
  Result result;
  TcpBench bench(args.seed, args.ignoreInvalidations, result);
  return bench.run(args);
}

}  // namespace leasebench
