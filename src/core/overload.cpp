#include "core/overload.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "fault/clock.hpp"
#include "fault/plan.hpp"
#include "machine/machine.hpp"
#include "pablo/collector.hpp"
#include "pfs/pfs.hpp"
#include "sim/assert.hpp"
#include "sim/sync.hpp"

namespace sio::core {

namespace {

/// One issued client operation: issue/finish ticks plus whether it was served
/// (an op that exhausts its retry budget throws PfsError and counts as
/// failed, not completed — the goodput numerator only counts served ops).
struct OpSample {
  sim::Tick start = 0;
  sim::Tick end = 0;
  bool ok = false;
};

/// The retry policy all storms run under: a deadline tight enough that a
/// pathologically hot queue visibly sheds work (but comfortably above the
/// healthy-queue drain time, so only genuine overload trips it), with a
/// retry budget generous enough that paced (credited) re-arrivals and ops
/// riding out the retry-storm link outage still finish.
pfs::RetryPolicy storm_retry() {
  pfs::RetryPolicy rp;
  rp.enabled = true;
  rp.op_deadline = sim::milliseconds(250);
  rp.max_retries = 24;
  rp.backoff_base = sim::milliseconds(1);
  rp.backoff_factor = 2.0;
  rp.backoff_cap = sim::milliseconds(32);
  rp.backoff_jitter = 0.25;
  return rp;
}

fault::FaultPlan storm_plan(const OverloadConfig& cfg) {
  fault::FaultPlan plan;
  plan.name = std::string("overload-") + overload_scenario_name(cfg.scenario);
  plan.seed = cfg.seed;
  plan.retry = storm_retry();
  plan.qos.enabled = cfg.qos;
  if (cfg.scenario == OverloadScenario::kRetryStorm) {
    // The storm's trigger: every message to/from I/O node 0 is dropped for
    // over a second.  Ops aimed at it time out repeatedly, their per-op
    // timeout streaks convict the node, the breaker opens, and reads
    // reroute to degraded reconstruction until the link heals and a probe
    // closes the breaker again.
    plan.link_faults.push_back(fault::LinkFault{
        .io_node = 0,
        .t0 = sim::milliseconds(20),
        .t1 = sim::milliseconds(1220),
        .down = true,
    });
  }
  if (cfg.fault_seed != 0) {
    auto extra =
        fault::FaultPlan::random_plan(cfg.fault_seed, sim::seconds(2), /*io_nodes=*/16);
    auto append = [](auto& dst, const auto& src) { dst.insert(dst.end(), src.begin(), src.end()); };
    append(plan.disk_failures, extra.disk_failures);
    append(plan.disk_slow, extra.disk_slow);
    append(plan.disk_stuck, extra.disk_stuck);
    append(plan.server_crashes, extra.server_crashes);
    append(plan.server_degraded, extra.server_degraded);
    append(plan.link_faults, extra.link_faults);
  }
  return plan;
}

sim::Task<void> one_op(sim::Engine& eng, pfs::Pfs& fs, const OverloadConfig& cfg,
                       pfs::FileState* file, int client, int op_index, std::uint64_t stride_ops,
                       std::vector<OpSample>* out, sim::WaitGroup* wg) {
  OpSample s;
  s.start = eng.now();
  try {
    switch (cfg.scenario) {
      case OverloadScenario::kOpenStampede: {
        // Everyone opens the *same* file: the per-file control mutex on the
        // metadata server serializes the stampede.
        auto fh = co_await fs.open(client, "/pfs/stampede");
        co_await fh.read(4 * 1024);
        co_await fh.close();
        break;
      }
      case OverloadScenario::kHotStripe: {
        // Single-unit file: every read lands on I/O node 0's queue.  One
        // segment, so a retry-budget failure surfaces right here.
        co_await fs.transfer(client, *file, /*offset=*/0, /*bytes=*/16 * 1024,
                             /*is_write=*/false, /*buffered=*/false);
        break;
      }
      case OverloadScenario::kRetryStorm: {
        // Strided single-unit reads, client-major so consecutive ops of one
        // client walk consecutive units (and hence distinct I/O nodes):
        // ~1/16th of the ops target the faulted node; the rest measure how
        // well the fleet rides out the storm.
        const std::uint64_t unit = fs.layout().unit();
        const std::uint64_t units = std::max<std::uint64_t>(file->size / unit, 1);
        const std::uint64_t index =
            (static_cast<std::uint64_t>(client) * (stride_ops + 1) +
             static_cast<std::uint64_t>(op_index)) %
            units;
        co_await fs.transfer(client, *file, index * unit, unit, /*is_write=*/false,
                             /*buffered=*/false);
        break;
      }
      case OverloadScenario::kCkptBurst: {
        // Every client dumps a stripe-unit checkpoint slab into its own
        // region of a shared epoch file through write-behind — the whole
        // population acks into the dirty caches at once, and the storm is
        // the write-back backlog, not the reads.
        const std::uint64_t unit = fs.layout().unit();
        const std::uint64_t index =
            static_cast<std::uint64_t>(client) * stride_ops + static_cast<std::uint64_t>(op_index);
        co_await fs.transfer(client, *file, index * unit, unit, /*is_write=*/true,
                             /*buffered=*/true);
        break;
      }
    }
    s.ok = true;
  } catch (const pfs::PfsError&) {
    s.ok = false;
  }
  s.end = eng.now();
  out->push_back(s);
  wg->done();
}

sim::Task<void> client_driver(sim::Engine& eng, pfs::Pfs& fs, const OverloadConfig& cfg,
                              pfs::FileState* file, int client, int ops_per_wave,
                              std::uint64_t stride_ops, std::vector<OpSample>* out,
                              sim::WaitGroup* all) {
  for (int w = 0; w < cfg.waves; ++w) {
    sim::WaitGroup wave(eng, "overload-wave");
    for (int k = 0; k < ops_per_wave; ++k) {
      wave.add();
      eng.spawn(one_op(eng, fs, cfg, file, client, w * ops_per_wave + k, stride_ops, out, &wave));
    }
    co_await wave.wait();
    if (cfg.wave_gap > 0) co_await eng.delay(cfg.wave_gap);
  }
  all->done();
}

sim::Task<void> storm_root(sim::Engine& eng, pfs::Pfs& fs, const OverloadConfig& cfg,
                           pfs::FileState* file, int ops_per_wave, std::uint64_t stride_ops,
                           std::vector<std::vector<OpSample>>* samples, sim::Tick* done) {
  sim::WaitGroup all(eng, "overload-clients");
  for (int c = 0; c < cfg.clients; ++c) {
    all.add();
    eng.spawn(client_driver(eng, fs, cfg, file, c, ops_per_wave, stride_ops,
                            &(*samples)[static_cast<std::size_t>(c)], &all));
  }
  co_await all.wait();
  *done = eng.now();
}

sim::Tick percentile(const std::vector<sim::Tick>& sorted, int pct) {
  if (sorted.empty()) return 0;
  const std::size_t idx = (sorted.size() - 1) * static_cast<std::size_t>(pct) / 100;
  return sorted[idx];
}

}  // namespace

OverloadResult run_overload(const OverloadConfig& cfg) {
  SIO_ASSERT(cfg.clients > 0 && cfg.waves > 0 && cfg.ops_per_wave > 0);
  SIO_ASSERT(cfg.offered_load > 0.0);

  const int ops_per_wave = std::max(
      1, static_cast<int>(std::lround(cfg.ops_per_wave * cfg.offered_load)));
  const std::uint64_t ops_per_client =
      static_cast<std::uint64_t>(cfg.waves) * static_cast<std::uint64_t>(ops_per_wave);

  auto mc = hw::Machine::caltech_paragon(cfg.clients);
  mc.seed = cfg.seed;
  hw::Machine machine(mc);
  pablo::Collector collector(machine.engine());

  const fault::FaultPlan plan = storm_plan(cfg);
  pfs::PfsConfig pcfg;
  pcfg.retry = plan.retry;
  pcfg.qos = plan.qos;
  pfs::Pfs fs(machine, collector, pcfg);

  fault::FaultClock fclock(machine, fs, collector, plan);
  fclock.arm();

  // Stage the scenario's file before the clock starts.
  pfs::FileState* file = nullptr;
  const std::uint64_t unit = fs.layout().unit();
  switch (cfg.scenario) {
    case OverloadScenario::kOpenStampede:
      file = &fs.stage_file("/pfs/stampede", 1024 * 1024);
      break;
    case OverloadScenario::kHotStripe:
      file = &fs.stage_file("/pfs/hot", unit);  // one unit -> one I/O node
      break;
    case OverloadScenario::kRetryStorm:
      file = &fs.stage_file("/pfs/storm", 16ull * 1024 * 1024);  // 256 units
      break;
    case OverloadScenario::kCkptBurst:
      // One slab-sized unit per (client, op): disjoint regions, so every
      // write dirties a fresh stripe unit.
      file = &fs.stage_file("/pfs/ckpt-epoch",
                            static_cast<std::uint64_t>(cfg.clients) * ops_per_client * unit);
      break;
  }

  std::vector<std::vector<OpSample>> samples(static_cast<std::size_t>(cfg.clients));
  sim::Tick app_done = 0;
  machine.engine().spawn(storm_root(machine.engine(), fs, cfg, file, ops_per_wave,
                                    ops_per_client, &samples, &app_done));
  machine.engine().run();

  OverloadResult r;
  r.label = std::string(overload_scenario_name(cfg.scenario)) + (cfg.qos ? "/qos" : "/raw");
  r.exec_time = app_done;
  r.events_processed = machine.engine().events_processed();
  r.offered_ops = static_cast<std::uint64_t>(cfg.clients) * ops_per_client;

  std::vector<sim::Tick> latencies;
  latencies.reserve(static_cast<std::size_t>(r.offered_ops));
  for (const auto& per_client : samples) {
    for (const auto& s : per_client) {
      if (!s.ok) {
        ++r.failed_ops;
        continue;
      }
      ++r.completed_ops;
      latencies.push_back(s.end - s.start);
    }
  }
  std::sort(latencies.begin(), latencies.end());
  r.p50_latency = percentile(latencies, 50);
  r.p99_latency = percentile(latencies, 99);
  if (r.exec_time > 0) {
    r.goodput_ops_per_s = static_cast<double>(r.completed_ops) / sim::to_seconds(r.exec_time);
  }

  // No-starvation check.  The window self-scales to the measured fair-share
  // interval — the time the system as a whole needs to serve four ops per
  // client — so the invariant is about *relative* starvation, not absolute
  // speed: a client that waits out four fair-share rounds with an op pending
  // the whole time and zero completions was starved by the scheduler.
  if (r.completed_ops > 0) {
    const sim::Tick window = std::max<sim::Tick>(
        1, r.exec_time * 4 * static_cast<sim::Tick>(cfg.clients) /
               static_cast<sim::Tick>(r.completed_ops));
    for (const auto& per_client : samples) {
      if (per_client.empty()) continue;
      sim::Tick first = per_client.front().start;
      sim::Tick last = 0;
      for (const auto& s : per_client) {
        first = std::min(first, s.start);
        last = std::max(last, s.end);
      }
      for (sim::Tick w0 = first; w0 + window <= last; w0 += window) {
        const sim::Tick w1 = w0 + window;
        // Only windows the client spent entirely waiting on some op count.
        bool waiting = false;
        bool progressed = false;
        for (const auto& s : per_client) {
          if (s.start <= w0 && s.end >= w1) waiting = true;
          if (s.ok && s.end >= w0 && s.end < w1) progressed = true;
        }
        if (!waiting) continue;
        ++r.windows;
        if (!progressed) ++r.starved_windows;
      }
    }
  }

  r.retries = fs.op_retries();
  r.timeouts = fs.op_timeouts();
  r.backpressure_rejects = fs.backpressure_rejects();
  r.peak_cpu_queue = 0;
  for (int i = 0; i < fs.server_count(); ++i) {
    r.peak_cpu_queue = std::max(r.peak_cpu_queue, fs.server(i).peak_cpu_queue());
  }
  if (fs.qos_enabled()) {
    r.reroutes = fs.rerouted_reads();
    r.breaker_holds = fs.breaker_holds();
    r.paced_meta = fs.metadata().paced_requests();
    for (int i = 0; i < fs.server_count(); ++i) {
      if (auto* q = fs.server_qos(i)) {
        r.admitted += q->admitted();
        r.rejected += q->rejected();
        r.shed += q->shed();
        r.credits += q->credits_issued();
        r.max_pending = std::max(r.max_pending, q->max_pending());
      }
      if (auto* b = fs.breaker(i)) {
        r.breaker_opens += b->opens();
        r.breaker_closes += b->closes();
      }
    }
    if (auto* q = fs.metadata_qos()) {
      r.admitted += q->admitted();
      r.rejected += q->rejected();
      r.shed += q->shed();
      r.credits += q->credits_issued();
      r.max_pending = std::max(r.max_pending, q->max_pending());
    }
  }

  r.sddf = collector.sddf_text();
  return r;
}

}  // namespace sio::core
