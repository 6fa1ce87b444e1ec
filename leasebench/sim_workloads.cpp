// The two simulated workloads: renewal_scale and write_fanout.
//
// Set-up makes the inputs: the catalog and a fixed number of trace
// events drawn from trace::EventStream (seeded by --seed), kept in
// memory. A run then repeats whole rounds until --seconds of host time
// have passed. A round builds a fresh driver::Simulation, replays the
// inputs through it and tears it down. Every round replays the same
// inputs, so the simulated figures (messages, lease state, simulated
// latencies) repeat exactly from round to round -- which the harness
// checks -- and host-time figures are medians over rounds.
//
// Reads and writes enter through Simulation::issueRead/issueWrite with
// a completion callback, so the harness sees every outcome and keeps its
// own version table; it never reads the program's staleness verdicts.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "driver/consistency_oracle.h"
#include "driver/simulation.h"
#include "trace/stream.h"

namespace leasebench {
namespace {

using namespace vlease;

struct SimSpec {
  std::uint32_t clients = 0;
  std::uint32_t servers = 1;
  std::uint32_t volumesPerServer = 4;
  std::uint64_t objects = 0;
  double zipf = 0;
  std::int64_t eventsPerRound = 0;
  std::int64_t writeEvery = 0;
  SimDuration interarrival = 0;
  /// One-way delay of every message (the simulated network is lossless).
  SimDuration delay = 0;
  SimDuration sweepPeriod = 0;
  proto::Algorithm algorithm = proto::Algorithm::kVolumeLease;
  SimDuration objectTimeout = 0;
  SimDuration volumeTimeout = 0;
  SimDuration msgTimeout = 0;
  SimDuration readTimeout = 0;
  bool piggyback = false;
  bool oracle = false;
};

/// The scale gate of tools/vlease_scale: a large population cycling
/// reads over a small shared object set; nearly every read renews a
/// lease and holder tables are mostly expired records for the sweep.
SimSpec renewalScaleSpec() {
  SimSpec s;
  s.clients = 50'000;
  s.servers = 1;
  s.volumesPerServer = 4;
  s.objects = 64;
  s.eventsPerRound = 1'000'000;
  s.writeEvery = 8192;
  s.interarrival = usec(100);
  s.delay = msec(1);
  s.sweepPeriod = sec(1);
  s.algorithm = proto::Algorithm::kVolumeLease;
  s.objectTimeout = sec(120);
  s.volumeTimeout = sec(30);
  s.msgTimeout = sec(5);
  s.readTimeout = sec(15);
  s.piggyback = true;
  s.oracle = false;
  return s;
}

/// Writes beside reads under the oracle: Zipf-popular objects gather
/// many holders, the volume lease is shorter than a client's revisit
/// gap, so a write invalidates its active holders and queues pending
/// invalidations for the inactive ones.
SimSpec writeFanoutSpec() {
  SimSpec s;
  s.clients = 4'000;
  s.servers = 2;
  s.volumesPerServer = 4;
  s.objects = 1'024;
  s.zipf = 0.9;
  s.eventsPerRound = 400'000;
  s.writeEvery = 16;
  s.interarrival = usec(1'000);  // revisit gap 4 s > t_v
  s.delay = msec(5);
  s.sweepPeriod = sec(1);
  s.algorithm = proto::Algorithm::kVolumeDelayedInval;
  s.objectTimeout = sec(60);
  s.volumeTimeout = sec(1);
  s.msgTimeout = sec(1);
  s.readTimeout = sec(15);
  s.piggyback = false;
  s.oracle = true;
  return s;
}

/// What every round replays: the catalog and the trace events.
struct Inputs {
  trace::Catalog catalog;
  std::vector<ObjectId> objects;
  std::vector<trace::TraceEvent> events;
  /// EventStream::next calls, timed on the traced run only.
  Span next;

  Inputs(const SimSpec& spec, std::uint64_t seed, bool traced);
};

Inputs::Inputs(const SimSpec& spec, std::uint64_t seed, bool traced)
    : catalog(spec.servers, spec.clients) {
  std::vector<VolumeId> volumes;
  for (std::uint32_t s = 0; s < spec.servers; ++s) {
    for (std::uint32_t v = 0; v < spec.volumesPerServer; ++v) {
      volumes.push_back(catalog.addVolume(catalog.serverNode(s)));
    }
  }
  for (std::uint64_t o = 0; o < spec.objects; ++o) {
    objects.push_back(catalog.addObject(volumes[o % volumes.size()], 8 << 10));
  }

  trace::StreamOptions options;
  options.seed = seed;
  options.events = spec.eventsPerRound;
  options.numClients = spec.clients;
  options.interarrival = spec.interarrival;
  options.writeEvery = spec.writeEvery;
  options.zipfSkew = spec.zipf;
  trace::EventStream stream(options, catalog, objects);
  events.reserve(static_cast<std::size_t>(spec.eventsPerRound));
  trace::TraceEvent ev;
  if (!traced) {
    while (stream.next(ev)) events.push_back(ev);
    return;
  }
  for (;;) {
    const std::int64_t a = nowNs();
    const bool more = stream.next(ev);
    next.add(nowNs() - a);
    if (!more) break;
    events.push_back(ev);
  }
}

/// Everything one round measured. The `exact` part is a deterministic
/// function of (spec, seed, variant) and must repeat between rounds.
struct RoundStats {
  struct Exact {
    std::int64_t events = 0;
    std::int64_t reads = 0;
    std::int64_t networkReads = 0;
    std::int64_t writes = 0;
    std::int64_t failed = 0;
    std::int64_t messages = 0;
    std::int64_t bytes = 0;
    std::int64_t fired = 0;
    double stateBytes = 0;
    double readMean = 0, writeMean = 0;
    std::int64_t readP99 = 0, writeP99 = 0, writeMax = 0;
    bool operator==(const Exact&) const = default;
  } exact;
  std::int64_t attempted = 0;
  std::int64_t setupNs = 0;   // process CPU time at the round's first event
  std::int64_t replayNs = 0;  // first event -> finish() returned
  std::int64_t wallNs = 0;    // construction -> teardown
  // Traced rounds only.
  Span inject, drain, server, client;
  std::int64_t invalidations = 0;
  std::uint64_t allocations = 0;
};

struct Variant {
  bool oracle = false;
  bool sweep = true;
  bool traced = false;
};

class SimRound {
 public:
  SimRound(const SimSpec& spec, const Inputs& inputs, bool ignoreInvalidations,
           Variant variant, Result& result)
      : spec_(spec),
        inputs_(inputs),
        ignoreInvalidations_(ignoreInvalidations),
        variant_(variant),
        result_(result) {}

  RoundStats run();

 private:
  struct PendingRead {
    SimTime issuedAt;
    ObjectId obj;
    Version minVersion;
  };
  struct PendingWrite {
    SimTime issuedAt;
    ObjectId obj;
  };

  void issue(driver::Simulation& sim, const trace::TraceEvent& ev);
  void onRead(std::uint32_t slot, const proto::ReadResult& r);
  void onWrite(std::uint32_t slot, const proto::WriteResult& w);

  template <typename T>
  static std::uint32_t take(std::vector<T>& pool, std::vector<std::uint32_t>& free,
                            const T& value) {
    if (free.empty()) {
      pool.push_back(value);
      return static_cast<std::uint32_t>(pool.size() - 1);
    }
    const std::uint32_t slot = free.back();
    free.pop_back();
    pool[slot] = value;
    return slot;
  }

  const SimSpec& spec_;
  const Inputs& inputs_;
  bool ignoreInvalidations_;
  Variant variant_;
  Result& result_;
  const sim::Scheduler* scheduler_ = nullptr;

  /// Harness-side version table: the newest version each object's
  /// write completions reported (1 = never written).
  std::vector<Version> committed_;
  std::vector<PendingRead> reads_;
  std::vector<std::uint32_t> freeReads_;
  std::vector<PendingWrite> writes_;
  std::vector<std::uint32_t> freeWrites_;
  std::int64_t readsIssued_ = 0, readsOk_ = 0, readsFailed_ = 0;
  std::int64_t networkReads_ = 0;
  std::int64_t writesIssued_ = 0, writesDone_ = 0;
  std::int64_t staleReads_ = 0, unwrittenReads_ = 0, nonAdvancingWrites_ = 0;
  ExactDistribution readLatency_, writeDelay_;
};

void SimRound::issue(driver::Simulation& sim, const trace::TraceEvent& ev) {
  switch (ev.kind) {
    case trace::EventKind::kRead: {
      ++readsIssued_;
      const std::uint32_t slot = take(
          reads_, freeReads_, PendingRead{ev.at, ev.obj, committed_[raw(ev.obj)]});
      sim.issueRead(ev.client, ev.obj, [this, slot](const proto::ReadResult& r) {
        onRead(slot, r);
      });
      break;
    }
    case trace::EventKind::kWrite: {
      ++writesIssued_;
      const std::uint32_t slot =
          take(writes_, freeWrites_, PendingWrite{ev.at, ev.obj});
      sim.issueWrite(ev.obj, [this, slot](const proto::WriteResult& w) {
        onWrite(slot, w);
      });
      break;
    }
    default:
      sim.inject(ev);
      break;
  }
}

void SimRound::onRead(std::uint32_t slot, const proto::ReadResult& r) {
  const PendingRead p = reads_[slot];
  freeReads_.push_back(slot);
  if (!r.ok) {
    ++readsFailed_;
    return;
  }
  ++readsOk_;
  if (r.usedNetwork) ++networkReads_;
  readLatency_.add(scheduler_->now() - p.issuedAt);
  if (r.version < p.minVersion) ++staleReads_;
  if (r.version < 1 || r.version > committed_[raw(p.obj)]) ++unwrittenReads_;
}

void SimRound::onWrite(std::uint32_t slot, const proto::WriteResult& w) {
  const PendingWrite p = writes_[slot];
  freeWrites_.push_back(slot);
  ++writesDone_;
  writeDelay_.add(scheduler_->now() - p.issuedAt);
  Version& v = committed_[raw(p.obj)];
  if (w.newVersion <= v) ++nonAdvancingWrites_;
  v = std::max(v, w.newVersion);
}

RoundStats SimRound::run() {
  RoundStats out;
  const std::int64_t wall0 = nowNs();
  {
    const trace::Catalog& catalog = inputs_.catalog;
    committed_.assign(catalog.numObjects(), 1);

    proto::ProtocolConfig config;
    config.algorithm = spec_.algorithm;
    config.objectTimeout = spec_.objectTimeout;
    config.volumeTimeout = spec_.volumeTimeout;
    config.msgTimeout = spec_.msgTimeout;
    config.readTimeout = spec_.readTimeout;
    config.piggybackVolumeLease = spec_.piggyback;
    config.leaseSweepPeriod = variant_.sweep ? spec_.sweepPeriod : 0;
    config.faultInjectIgnoreInvalidations = ignoreInvalidations_;

    driver::SimOptions options;
    options.networkLatency = spec_.delay;
    options.enableOracle = variant_.oracle;

    // Declared before the simulation so they outlive its endpoints.
    std::vector<TimedSink> wrappers;
    driver::Simulation sim(catalog, config, options);
    scheduler_ = &sim.scheduler();
    if (variant_.traced) {
      proto::ProtocolInstance& protocol = sim.protocol();
      wrappers.reserve(catalog.numNodes());
      for (std::uint32_t s = 0; s < catalog.numServers(); ++s) {
        wrappers.emplace_back(protocol.servers[s].get(), &out.server, nullptr);
        sim.network().attach(catalog.serverNode(s), &wrappers.back());
      }
      for (std::uint32_t c = 0; c < catalog.numClients(); ++c) {
        wrappers.emplace_back(protocol.clients[c].get(), &out.client,
                              &out.invalidations);
        sim.network().attach(catalog.clientNode(c), &wrappers.back());
      }
    }

    const std::uint64_t alloc0 = allocationCount();
    out.setupNs = processCpuNs();
    const std::int64_t t0 = nowNs();
    if (!variant_.traced) {
      for (const trace::TraceEvent& ev : inputs_.events) {
        sim.drainTo(ev.at);
        issue(sim, ev);
        sim.drainTo(ev.at);
      }
      sim.finish();
    } else {
      for (const trace::TraceEvent& ev : inputs_.events) {
        const std::int64_t a = nowNs();
        sim.drainTo(ev.at);
        const std::int64_t b = nowNs();
        issue(sim, ev);
        const std::int64_t c = nowNs();
        sim.drainTo(ev.at);
        const std::int64_t d = nowNs();
        out.inject.add(c - b);
        out.drain.add((b - a) + (d - c));
      }
      const std::int64_t f = nowNs();
      sim.finish();
      out.drain.add(nowNs() - f);
    }
    out.exact.events = static_cast<std::int64_t>(inputs_.events.size());
    out.replayNs = nowNs() - t0;
    out.allocations = allocationCount() - alloc0;

    // ---- output checks (harness-side facts, or two independent paths) ----
    const stats::Metrics& m = sim.metrics();
    const net::SimNetwork& network = sim.network();
    out.attempted = readsIssued_ + writesIssued_;
    result_.check(readsOk_ + readsFailed_ == readsIssued_,
                  "reads issued " + std::to_string(readsIssued_) +
                      " != completed " + std::to_string(readsOk_ + readsFailed_));
    result_.check(readsFailed_ == 0,
                  std::to_string(readsFailed_) + " reads failed");
    result_.check(writesDone_ == writesIssued_,
                  "writes issued " + std::to_string(writesIssued_) +
                      " != committed " + std::to_string(writesDone_));
    result_.check(m.reads() == readsOk_ && m.writes() == writesDone_,
                  "metrics read/write totals disagree with the harness");
    result_.check(staleReads_ == 0,
                  std::to_string(staleReads_) +
                      " reads returned a version older than one committed "
                      "before they were issued");
    result_.check(unwrittenReads_ == 0, std::to_string(unwrittenReads_) +
                                            " reads returned a version never "
                                            "written");
    result_.check(nonAdvancingWrites_ == 0,
                  "a write committed without advancing the version");
    result_.check(network.sentCount() == network.deliveredCount() &&
                      network.sentCount() == m.totalMessages(),
                  "sent " + std::to_string(network.sentCount()) +
                      ", delivered " + std::to_string(network.deliveredCount()) +
                      ", metered " + std::to_string(m.totalMessages()));
    result_.check(m.totalMessages() >= 2 * networkReads_,
                  "fewer than 2 messages per non-local read");
    result_.check(writeDelay_.max() <= spec_.volumeTimeout + config.clockEpsilon,
                  "write delay " + std::to_string(writeDelay_.max()) +
                      " us exceeds t_v + epsilon");
    if (variant_.oracle) {
      result_.check(sim.oracle()->violations() == 0,
                    std::to_string(sim.oracle()->violations()) +
                        " oracle violations");
    }

    RoundStats::Exact& x = out.exact;
    x.reads = readsOk_;
    x.networkReads = networkReads_;
    x.writes = writesDone_;
    x.failed = readsFailed_ + (writesIssued_ - writesDone_);
    x.messages = m.totalMessages();
    x.bytes = m.totalBytes();
    x.fired = sim.scheduler().firedCount();
    for (std::uint32_t s = 0; s < catalog.numServers(); ++s) {
      x.stateBytes += m.avgStateBytes(catalog.serverNode(s));
    }
    x.readMean = readLatency_.mean();
    x.readP99 = readLatency_.percentile(0.99);
    x.writeMean = writeDelay_.mean();
    x.writeP99 = writeDelay_.percentile(0.99);
    x.writeMax = writeDelay_.max();
  }
  out.wallNs = nowNs() - wall0;
  return out;
}

std::vector<double> perEvent(const std::vector<RoundStats>& rounds,
                             std::int64_t RoundStats::*field) {
  std::vector<double> v;
  for (const RoundStats& r : rounds) {
    v.push_back(static_cast<double>(r.*field) / r.exact.events);
  }
  return v;
}

Result runSim(const SimSpec& spec, const Args& args) {
  Result result;
  const Inputs inputs(spec, args.seed, args.trace);
  const Variant base{spec.oracle, true, false};
  auto round = [&](Variant v) {
    RoundStats r =
        SimRound(spec, inputs, args.ignoreInvalidations, v, result).run();
    result.attempted += r.attempted;
    result.failed += r.exact.failed;
    return r;
  };
  const std::int64_t deadline =
      sinceStartNs() + static_cast<std::int64_t>(args.seconds * 1e9);

  if (!args.trace) {
    std::vector<RoundStats> rounds;
    do {
      rounds.push_back(round(base));
    } while (sinceStartNs() < deadline);
    const RoundStats& first = rounds.front();
    std::vector<double> rates;
    double ops = 0, wall = 0;
    for (const RoundStats& r : rounds) {
      result.check(r.exact == first.exact,
                   "a round's simulated results differ from the first round's");
      rates.push_back(r.exact.events / (r.replayNs / 1e9));
      ops += static_cast<double>(r.exact.reads + r.exact.writes);
      wall += r.wallNs / 1e9;
    }
    const RoundStats::Exact& x = first.exact;
    result.add("setup_s", first.setupNs / 1e9, "s");
    result.add("peak_rss_mb", peakRssMb(), "MB");
    result.add("msgs_per_read", static_cast<double>(x.messages) / x.reads,
               "msgs/read");
    result.add("server_state_kb", x.stateBytes / 1024, "KB");
    result.add("read_mean_us", x.readMean, "us");
    std::fprintf(stderr, "reference (host): events_per_s %.0f, ops_per_s %.0f\n",
                 median(rates), ops / wall);
    std::fprintf(stderr,
                 "reference (simulated): read_p99_us %lld, write_mean_us "
                 "%.1f, write_delay_p99_ms %.3f, write_delay_max_ms %.3f\n",
                 static_cast<long long>(x.readP99), x.writeMean,
                 x.writeP99 / 1e3, x.writeMax / 1e3);
    std::fprintf(stderr, "round events/s:");
    for (const double r : rates) std::fprintf(stderr, " %.0f", r);
    std::fprintf(stderr, "\n");
    std::fprintf(stderr,
                 "%zu rounds of %lld events; reads %lld (network %lld), "
                 "writes %lld, messages %lld, write delay max %lld us\n",
                 rounds.size(), static_cast<long long>(x.events),
                 static_cast<long long>(x.reads),
                 static_cast<long long>(x.networkReads),
                 static_cast<long long>(x.writes),
                 static_cast<long long>(x.messages),
                 static_cast<long long>(x.writeMax));
    return result;
  }

  // Traced run: cycles of an untraced base round (the overhead
  // reference), a traced base round, and traced rounds with the oracle
  // and the sweep toggled (their differences attribute those layers).
  std::vector<RoundStats> plain, traced, oracleFlip, sweepFlip;
  do {
    plain.push_back(round(base));
    traced.push_back(round({base.oracle, true, true}));
    oracleFlip.push_back(round({!base.oracle, true, true}));
    sweepFlip.push_back(round({base.oracle, false, true}));
  } while (sinceStartNs() < deadline);
  for (const RoundStats& r : traced) {
    result.check(r.exact == plain.front().exact,
                 "tracing changed the simulated results");
  }
  const RoundStats& t = traced.front();
  const double events = static_cast<double>(t.exact.events);
  auto spanPerEvent = [&](Span RoundStats::*span) {
    std::vector<double> v;
    for (const RoundStats& r : traced) v.push_back((r.*span).ns / events);
    return median(v);
  };
  auto spanPerCall = [&](Span RoundStats::*span) {
    std::vector<double> v;
    for (const RoundStats& r : traced) {
      v.push_back(static_cast<double>((r.*span).ns) /
                  std::max<std::int64_t>((r.*span).calls, 1));
    }
    return median(v);
  };
  const double replay = median(perEvent(traced, &RoundStats::replayNs));
  const double flipOracle = median(perEvent(oracleFlip, &RoundStats::replayNs));
  const double flipSweep = median(perEvent(sweepFlip, &RoundStats::replayNs));
  const double untraced = median(perEvent(plain, &RoundStats::replayNs));
  std::vector<double> selfNs;
  for (const RoundStats& r : traced) {
    selfNs.push_back((r.drain.ns - r.server.ns - r.client.ns) / events);
  }

  result.add("trace.next_ns",
             static_cast<double>(inputs.next.ns) / inputs.next.calls, "ns");
  result.add("driver.inject_ns", spanPerEvent(&RoundStats::inject), "ns");
  result.add("driver.drain_ns", spanPerEvent(&RoundStats::drain), "ns");
  result.add("driver.oracle_ns",
             base.oracle ? replay - flipOracle : flipOracle - replay, "ns");
  result.add("core.server_ns_per_msg", spanPerCall(&RoundStats::server), "ns");
  result.add("core.server_msgs", t.server.calls / events, "msgs/event");
  result.add("core.client_ns_per_msg", spanPerCall(&RoundStats::client), "ns");
  result.add("core.client_msgs", t.client.calls / events, "msgs/event");
  result.add("core.cache_hit_ratio",
             static_cast<double>(t.exact.reads - t.exact.networkReads) /
                 t.exact.reads,
             "ratio");
  result.add("core.invals_per_write",
             static_cast<double>(t.invalidations) / t.exact.writes,
             "invals/write");
  result.add("core.sweep_ns", replay - flipSweep, "ns");
  result.add("sim.self_ns", median(selfNs), "ns");
  result.add("sim.fired_per_event", t.exact.fired / events, "timers/event");
  result.add("net.msgs_sent", t.exact.messages / events, "msgs/event");
  result.add("net.bytes_per_read",
             static_cast<double>(t.exact.bytes) / t.exact.reads, "B/read");
  result.add("alloc.per_event", t.allocations / events, "allocs/event");
  for (const char* name : {"rt.step_ns", "rt.server_ns_per_msg",
                           "rt.transport_self_ns"}) {
    result.add(name, 0, "ns");
  }
  result.add("rt.steps_per_op", 0, "steps/op");
  result.add("rt.frames_per_op", 0, "frames/op");
  result.add("tracing_overhead_pct", (replay - untraced) / untraced * 100, "%");
  return result;
}

}  // namespace

Result runRenewalScale(const Args& args) {
  return runSim(renewalScaleSpec(), args);
}

Result runWriteFanout(const Args& args) {
  return runSim(writeFanoutSpec(), args);
}

}  // namespace leasebench
