#include "core/experiment.hpp"

#include <functional>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/parallel.hpp"
#include "fault/clock.hpp"
#include "machine/machine.hpp"
#include "pablo/collector.hpp"
#include "pablo/sddf.hpp"
#include "pfs/pfs.hpp"

namespace sio::core {

pablo::AggregateBreakdown RunResult::breakdown() const {
  pablo::SummaryCore core;
  for (const auto& ev : events) core.add(ev);
  return pablo::AggregateBreakdown(core, exec_time > 0 ? exec_time : 1);
}

const apps::PhaseSpan& RunResult::phase(std::string_view name) const {
  for (const auto& p : phases) {
    if (p.name == name) return p;
  }
  throw std::out_of_range("no phase named " + std::string(name));
}

sim::Tick RunResult::io_time() const {
  sim::Tick total = 0;
  for (const auto& ev : events) total += ev.duration;
  return total;
}

std::string RunResult::to_sddf() const {
  std::ostringstream out;
  pablo::write_sddf(out, file_names, events, fault_events, qos_events, loss_events,
                    integrity_events, span_events);
  return out.str();
}

std::string RunResult::to_binary_sddf() const {
  return pablo::to_binary_sddf(file_names, events, fault_events, qos_events, loss_events,
                               integrity_events, span_events);
}

namespace {
std::string_view op_class_name(int c) {
  return pablo::io_op_name(static_cast<pablo::IoOp>(c));
}
}  // namespace

std::string RunResult::critical_path_table() const {
  if (critical_path.empty()) return {};
  return obs::render_critical_path(critical_path, &op_class_name);
}

namespace {

/// A plan is a no-op (and the run can take the byte-identical fault-free
/// path) only when it schedules nothing, enables no client machinery, and
/// leaves journaling off.
bool plan_active(const fault::FaultPlan& plan) {
  return !plan.empty() || plan.retry.enabled || plan.qos.enabled ||
         plan.journal != pfs::JournalMode::kOff || plan.integrity.enabled();
}

template <class App, class Cfg>
RunResult run_app(App app, Cfg cfg, const hw::OsProfile& os, int nodes, std::uint64_t seed,
                  const fault::FaultPlan* plan, const pfs::ServerConfig* server = nullptr,
                  const TraceOptions* trace = nullptr) {
  auto mc = hw::Machine::caltech_paragon(nodes, os);
  mc.seed = seed;
  hw::Machine machine(mc);
  pablo::Collector collector(machine.engine());
  if (trace != nullptr) {
    if (trace->binary_trace) collector.enable_binary_trace();
    if (trace->streaming) {
      pablo::StreamingConfig scfg;
      scfg.sketch_precision = trace->sketch_precision;
      collector.enable_streaming(scfg);
    }
    if (trace->spans) collector.enable_spans();
    collector.set_retain_events(trace->retain_events);
  }
  pfs::PfsConfig pcfg;
  if (server != nullptr) pcfg.server = *server;
  if (plan != nullptr) {
    pcfg.retry = plan->retry;
    pcfg.qos = plan->qos;
    pcfg.server.journal = plan->journal;
    pcfg.server.integrity = plan->integrity;
  }
  pfs::Pfs fs(machine, collector, pcfg);
  apps::PhaseLog log;

  std::optional<fault::FaultClock> fclock;
  if (plan != nullptr) {
    fclock.emplace(machine, fs, collector, *plan);
    fclock->arm();
  }

  RunResult r;
  r.label = cfg.label;
  // Execution time is when the *application* finishes, captured by a wrapper
  // around its root task.  The engine then keeps draining — expired timeout
  // timers, a background RAID rebuild — without those trailing no-op events
  // inflating the reported runtime.
  sim::Tick app_done = 0;
  auto wrap = [](sim::Engine& eng, sim::Task<void> inner, sim::Tick* done) -> sim::Task<void> {
    co_await std::move(inner);
    *done = eng.now();
  };
  machine.engine().spawn(
      wrap(machine.engine(), app(machine, fs, std::move(cfg), &log), &app_done));
  machine.engine().run();
  // Force-close any span still open (work abandoned at run end) before the
  // binary trace finishes, so every emitted tree is complete.
  collector.finish_spans();

  r.exec_time = app_done;
  r.events_processed = machine.engine().events_processed();
  r.phases = log.spans();
  if (collector.binary_writer() != nullptr) r.binary_trace = collector.finish_binary_trace();
  // Account memory while the collector still holds its state, then move it
  // out instead of copying.
  r.trace_memory = collector.memory_stats();
  if (auto* s = collector.streaming()) {
    r.streaming = std::move(*s);
    r.critical_path = r.streaming->critical_path();
  }
  pablo::TraceFile kept = collector.take_trace();
  r.file_names = std::move(kept.file_names);
  r.events = std::move(kept.events);
  r.fault_events = std::move(kept.faults);
  r.qos_events = std::move(kept.qos);
  r.loss_events = std::move(kept.losses);
  r.integrity_events = std::move(kept.integrity);
  r.span_events = std::move(kept.spans);
  // Without the streaming fold, attribute the retained spans in one batch.
  if (!r.streaming) r.critical_path = obs::critical_path(r.span_events);
  r.scrub = fs.scrub();
  r.integrity = fs.integrity_report();

  auto& rc = r.resilience;
  rc.retries = fs.op_retries();
  rc.timeouts = fs.op_timeouts();
  rc.failed_ops = fs.failed_ops();
  rc.dropped_messages = machine.network().messages_dropped();
  for (int i = 0; i < fs.server_count(); ++i) {
    auto& srv = fs.server(i);
    rc.replayed_ops += srv.replayed_ops();
    rc.coalesced_ops += srv.coalesced_ops();
    rc.server_crashes += srv.crash_count();
    rc.degraded_disk_ops += srv.disk().degraded_ops();
    rc.stuck_disk_ops += srv.disk().stuck_ops();
  }
  if (fs.qos_enabled()) {
    rc.qos_reroutes = fs.rerouted_reads();
    rc.breaker_holds = fs.breaker_holds();
    for (int i = 0; i < fs.server_count(); ++i) {
      if (auto* q = fs.server_qos(i)) {
        rc.qos_admitted += q->admitted();
        rc.qos_rejected += q->rejected();
        rc.qos_shed += q->shed();
        rc.qos_credits += q->credits_issued();
      }
      if (auto* b = fs.breaker(i)) {
        rc.breaker_opens += b->opens();
        rc.breaker_closes += b->closes();
      }
    }
    if (auto* q = fs.metadata_qos()) {
      rc.qos_admitted += q->admitted();
      rc.qos_rejected += q->rejected();
      rc.qos_shed += q->shed();
      rc.qos_credits += q->credits_issued();
    }
  }
  return r;
}

}  // namespace

RunResult run_escat(apps::escat::Config cfg, std::uint64_t seed) {
  return run_escat(std::move(cfg), fault::FaultPlan::fault_free(), seed);
}

RunResult run_prism(apps::prism::Config cfg, std::uint64_t seed) {
  return run_prism(std::move(cfg), fault::FaultPlan::fault_free(), seed);
}

RunResult run_escat(apps::escat::Config cfg, const fault::FaultPlan& plan, std::uint64_t seed) {
  return run_escat(std::move(cfg), plan, TraceOptions{}, seed);
}

RunResult run_prism(apps::prism::Config cfg, const fault::FaultPlan& plan, std::uint64_t seed) {
  return run_prism(std::move(cfg), plan, TraceOptions{}, seed);
}

RunResult run_escat(apps::escat::Config cfg, const fault::FaultPlan& plan,
                    const TraceOptions& trace, std::uint64_t seed) {
  const auto os = apps::escat::os_for(cfg.version);
  const int nodes = cfg.workload.nodes;
  return run_app(
      [](hw::Machine& m, pfs::Pfs& fs, apps::escat::Config c, apps::PhaseLog* log) {
        return apps::escat::run(m, fs, std::move(c), log);
      },
      std::move(cfg), os, nodes, seed, plan_active(plan) ? &plan : nullptr, nullptr, &trace);
}

RunResult run_prism(apps::prism::Config cfg, const fault::FaultPlan& plan,
                    const TraceOptions& trace, std::uint64_t seed) {
  const int nodes = cfg.workload.nodes;
  return run_app(
      [](hw::Machine& m, pfs::Pfs& fs, apps::prism::Config c, apps::PhaseLog* log) {
        return apps::prism::run(m, fs, std::move(c), log);
      },
      std::move(cfg), hw::osf_r13(), nodes, seed, plan_active(plan) ? &plan : nullptr, nullptr,
      &trace);
}

RunResult run_ckpt(apps::ckpt::Config cfg, std::uint64_t seed) {
  return run_ckpt(std::move(cfg), fault::FaultPlan::fault_free(), seed);
}

RunResult run_ckpt(apps::ckpt::Config cfg, const fault::FaultPlan& plan, std::uint64_t seed) {
  return run_ckpt(std::move(cfg), plan, TraceOptions{}, seed);
}

RunResult run_ckpt(apps::ckpt::Config cfg, const fault::FaultPlan& plan,
                   const TraceOptions& trace, std::uint64_t seed) {
  const int nodes = cfg.workload.nodes;
  // M_ASYNC (the aggregated variant) needs OSF/1 R1.3.
  const pfs::ServerConfig server = apps::ckpt::tuned_server();
  return run_app(
      [](hw::Machine& m, pfs::Pfs& fs, apps::ckpt::Config c, apps::PhaseLog* log) {
        return apps::ckpt::run(m, fs, std::move(c), log);
      },
      std::move(cfg), hw::osf_r13(), nodes, seed, plan_active(plan) ? &plan : nullptr, &server,
      &trace);
}

EscatStudy run_escat_study(std::uint64_t seed) {
  using apps::escat::Version;
  // The three versions are independent seeded runs; fan them out.  Results
  // come back in input order, so the study is bit-identical to serial runs.
  ParallelRunner pool;
  auto runs = pool.run<RunResult>({
      [seed] { return run_escat(apps::escat::make_config(Version::A), seed); },
      [seed] { return run_escat(apps::escat::make_config(Version::B), seed); },
      [seed] { return run_escat(apps::escat::make_config(Version::C), seed); },
  });
  EscatStudy s;
  s.a = std::move(runs[0]);
  s.b = std::move(runs[1]);
  s.c = std::move(runs[2]);
  return s;
}

RunResult run_escat_carbon_monoxide(std::uint64_t seed) {
  auto cfg = apps::escat::make_config(apps::escat::Version::C, apps::escat::carbon_monoxide());
  cfg.label = "C (carbon monoxide)";
  return run_escat(std::move(cfg), seed);
}

PrismStudy run_prism_study(std::uint64_t seed) {
  using apps::prism::Version;
  ParallelRunner pool;
  auto runs = pool.run<RunResult>({
      [seed] { return run_prism(apps::prism::make_config(Version::A), seed); },
      [seed] { return run_prism(apps::prism::make_config(Version::B), seed); },
      [seed] { return run_prism(apps::prism::make_config(Version::C), seed); },
  });
  PrismStudy s;
  s.a = std::move(runs[0]);
  s.b = std::move(runs[1]);
  s.c = std::move(runs[2]);
  return s;
}

}  // namespace sio::core
