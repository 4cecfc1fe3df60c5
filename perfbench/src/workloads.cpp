#include "workloads.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "core/figures.hpp"
#include "fault/clock.hpp"
#include "machine/machine.hpp"
#include "mc/fingerprint.hpp"
#include "pablo/binsddf.hpp"
#include "pablo/collector.hpp"
#include "pablo/sddf.hpp"
#include "pfs/pfs.hpp"

namespace perfbench {

namespace sim = sio::sim;
namespace hw = sio::hw;
namespace pfs = sio::pfs;
namespace pablo = sio::pablo;
namespace fault = sio::fault;
namespace core = sio::core;
namespace escat = sio::apps::escat;
namespace prism = sio::apps::prism;
namespace ckpt = sio::apps::ckpt;

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"paper", "ckpt-crash", "traced"};
  return names;
}

namespace {

SubRun escat_run(std::string name, escat::Config cfg, core::TraceOptions trace = {}) {
  SubRun s;
  s.name = std::move(name);
  s.app = App::kEscat;
  s.escat = std::move(cfg);
  s.trace = trace;
  return s;
}

SubRun prism_run(std::string name, prism::Version v) {
  SubRun s;
  s.name = std::move(name);
  s.app = App::kPrism;
  s.prism = prism::make_config(v);
  return s;
}

SubRun ckpt_run(std::string name, ckpt::Variant v, fault::FaultPlan plan) {
  SubRun s;
  s.name = std::move(name);
  s.app = App::kCkpt;
  s.ckpt = ckpt::make_config(v);
  s.plan = std::move(plan);
  return s;
}

escat::Config carbon_monoxide() {
  auto cfg = escat::make_config(escat::Version::C, escat::carbon_monoxide());
  cfg.label = "C (carbon monoxide)";
  return cfg;
}

/// Two torn crashes of I/O node 0 under full journaling, QoS admission and
/// integrity repair.
fault::FaultPlan crash_plan(std::uint64_t seed) {
  auto plan = fault::FaultPlan::io_node_crash_torn(seed);
  plan.journal = pfs::JournalMode::kFull;
  plan.qos.enabled = true;
  plan.integrity.mode = pfs::IntegrityMode::kRepair;
  return plan;
}

}  // namespace

core::TraceOptions always_on() {
  core::TraceOptions t;
  t.spans = true;
  t.streaming = true;
  t.binary_trace = true;
  t.retain_events = false;
  return t;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  if (name == "paper") {
    w.subs.push_back(escat_run("escat-a", escat::make_config(escat::Version::A)));
    w.subs.push_back(escat_run("escat-b", escat::make_config(escat::Version::B)));
    w.subs.push_back(escat_run("escat-c", escat::make_config(escat::Version::C)));
    w.subs.push_back(escat_run("escat-co256", carbon_monoxide()));
    w.subs.push_back(prism_run("prism-a", prism::Version::A));
    w.subs.push_back(prism_run("prism-b", prism::Version::B));
    w.subs.push_back(prism_run("prism-c", prism::Version::C));
  } else if (name == "ckpt-crash") {
    for (const auto v : {ckpt::Variant::kNaive, ckpt::Variant::kAggregated}) {
      const std::string base = "ckpt-" + std::string(ckpt::variant_name(v));
      w.subs.push_back(ckpt_run(base, v, fault::FaultPlan::fault_free()));
      w.subs.push_back(ckpt_run(base + "-crash", v, crash_plan(seed)));
    }
  } else if (name == "traced") {
    core::TraceOptions exported = always_on();  // what siotrace reads back
    exported.retain_events = true;
    w.subs.push_back(escat_run("traced-co256", carbon_monoxide(), always_on()));
    w.subs.push_back(
        escat_run("traced-escat-a", escat::make_config(escat::Version::A), exported));
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

core::RunResult run_core(const SubRun& s, std::uint64_t seed) {
  switch (s.app) {
    case App::kEscat: return core::run_escat(s.escat, s.plan, s.trace, seed);
    case App::kPrism: return core::run_prism(s.prism, s.plan, s.trace, seed);
    case App::kCkpt: return core::run_ckpt(s.ckpt, s.plan, s.trace, seed);
  }
  throw std::logic_error("unknown app");
}

namespace {

// The layer-by-layer path mirrors core::run_app step for step, so that both
// paths simulate the same program (checked by fingerprint every pass).

/// Same rule as core: only a plan that does something takes the faulted path.
bool plan_active(const fault::FaultPlan& plan) {
  return !plan.empty() || plan.retry.enabled || plan.qos.enabled ||
         plan.journal != pfs::JournalMode::kOff || plan.integrity.enabled();
}

hw::OsProfile os_of(const SubRun& s) {
  return s.app == App::kEscat ? escat::os_for(s.escat.version) : hw::osf_r13();
}

int nodes_of(const SubRun& s) {
  switch (s.app) {
    case App::kEscat: return s.escat.workload.nodes;
    case App::kPrism: return s.prism.workload.nodes;
    case App::kCkpt: return s.ckpt.workload.nodes;
  }
  return 0;
}

const std::string& label_of(const SubRun& s) {
  switch (s.app) {
    case App::kEscat: return s.escat.label;
    case App::kPrism: return s.prism.label;
    case App::kCkpt: return s.ckpt.label;
  }
  return s.name;
}

sim::Task<void> app_task(const SubRun& s, hw::Machine& m, pfs::Pfs& fs, sio::apps::PhaseLog* log) {
  switch (s.app) {
    case App::kEscat: return escat::run(m, fs, s.escat, log);
    case App::kPrism: return prism::run(m, fs, s.prism, log);
    case App::kCkpt: return ckpt::run(m, fs, s.ckpt, log);
  }
  throw std::logic_error("unknown app");
}

/// Records when the application's root task finishes (the engine may keep
/// draining timers afterwards).
sim::Task<void> until_done(sim::Engine& eng, sim::Task<void> inner, sim::Tick* done) {
  co_await std::move(inner);
  *done = eng.now();
}

void count_result(const core::RunResult& r, LayerCounts& c) {
  const auto& rc = r.resilience;
  c.dispatches += r.events_processed;
  c.retries += rc.retries;
  c.timeouts += rc.timeouts;
  c.failed_ops += rc.failed_ops;
  c.journal_appends += r.scrub.journal_appends;
  c.journal_redone += r.scrub.journal_redone;
  c.acked_bytes_lost += r.scrub.acked_bytes_lost;
  c.qos_admitted += rc.qos_admitted;
  c.qos_rejected += rc.qos_rejected;
  c.qos_shed += rc.qos_shed;
  c.breaker_opens += rc.breaker_opens;
  c.reroutes += rc.qos_reroutes;
  c.server_crashes += rc.server_crashes;
  c.spans += r.critical_path.spans;
  c.events_recorded += r.trace_memory.events_recorded;
  c.peak_bytes_retained = std::max<std::uint64_t>(c.peak_bytes_retained,
                                                  r.trace_memory.peak_bytes_retained);
}

void count_layers(hw::Machine& machine, pfs::Pfs& fs, LayerCounts& c) {
  const auto& net = machine.network();
  c.net_messages += net.messages_sent();
  c.net_bytes += net.bytes_moved();
  c.net_dropped += net.messages_dropped();
  for (int i = 0; i < fs.server_count(); ++i) {
    auto& srv = fs.server(i);
    c.disk_ops += srv.disk().ops();
    c.disk_busy += srv.disk().busy_time();
    c.cache_hits += srv.cache_hits();
    c.cache_misses += srv.cache_misses();
    c.peak_cpu_queue = std::max<std::uint64_t>(c.peak_cpu_queue, srv.peak_cpu_queue());
  }
  c.data_ops += fs.data_ops();
  c.meta_requests += fs.metadata().requests_served();
  c.meta_busy += fs.metadata().busy_time();
}

core::ResilienceCounters resilience_of(hw::Machine& machine, pfs::Pfs& fs) {
  core::ResilienceCounters rc;
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
  return rc;
}

}  // namespace

core::RunResult run_layers(const SubRun& s, std::uint64_t seed, SpanLog& log, int parent,
                           LayerCounts& counts) {
  const SpanLog::Scope run_span(log, "core.run", s.name, parent);
  const int p = run_span.id();
  const auto span = [&](const char* name) { return SpanLog::Scope(log, name, s.name, p); };

  std::optional<hw::Machine> machine;
  std::optional<pablo::Collector> collector;
  std::optional<pfs::Pfs> fs;
  std::optional<fault::FaultClock> fclock;
  const bool armed = plan_active(s.plan);

  {
    const auto sp = span("machine.setup");
    auto mc = hw::Machine::caltech_paragon(nodes_of(s), os_of(s));
    mc.seed = seed;
    machine.emplace(mc);
  }
  {
    const auto sp = span("pablo.setup");
    collector.emplace(machine->engine());
    if (s.trace.binary_trace) collector->enable_binary_trace();
    if (s.trace.streaming) {
      pablo::StreamingConfig scfg;
      scfg.sketch_precision = s.trace.sketch_precision;
      collector->enable_streaming(scfg);
    }
    if (s.trace.spans) collector->enable_spans();
    collector->set_retain_events(s.trace.retain_events);
  }
  {
    const auto sp = span("pfs.setup");
    pfs::PfsConfig pcfg;
    if (s.app == App::kCkpt) pcfg.server = ckpt::tuned_server();
    if (armed) {
      pcfg.retry = s.plan.retry;
      pcfg.qos = s.plan.qos;
      pcfg.server.journal = s.plan.journal;
      pcfg.server.integrity = s.plan.integrity;
    }
    fs.emplace(*machine, *collector, pcfg);
  }
  {
    const auto sp = span("fault.arm");
    if (armed) {
      fclock.emplace(*machine, *fs, *collector, s.plan);
      fclock->arm();
    }
  }

  core::RunResult r;
  r.label = label_of(s);
  sim::Tick app_done = 0;
  sio::apps::PhaseLog phases;
  {
    const auto sp = span("apps.spawn");
    auto& eng = machine->engine();
    eng.spawn(until_done(eng, app_task(s, *machine, *fs, &phases), &app_done));
  }
  {
    const auto sp = span("sim.run");
    machine->engine().run();
  }
  {
    const auto sp = span("obs.finish_spans");
    collector->finish_spans();
  }
  {
    const auto sp = span("pablo.extract");
    r.exec_time = app_done;
    r.events_processed = machine->engine().events_processed();
    r.events = collector->events();
    r.file_names.reserve(collector->file_count());
    for (std::size_t i = 0; i < collector->file_count(); ++i) {
      r.file_names.push_back(collector->file_name(static_cast<pablo::FileId>(i)));
    }
    r.phases = phases.spans();
    r.fault_events = collector->fault_events();
    r.qos_events = collector->qos_events();
    r.loss_events = collector->loss_events();
    r.span_events = collector->span_events();
  }
  {
    const auto sp = span("obs.critical_path");
    if (const auto* st = collector->streaming()) {
      r.streaming = *st;
      r.critical_path = st->critical_path();
      if (collector->retain_events() && collector->tracer() != nullptr) {
        SIO_ASSERT(sio::obs::critical_path(r.span_events) == r.critical_path);
      }
    } else {
      r.critical_path = sio::obs::critical_path(r.span_events);
    }
  }
  {
    const auto sp = span("pablo.finish_binary");
    if (collector->binary_writer() != nullptr) r.binary_trace = collector->finish_binary_trace();
    r.trace_memory = collector->memory_stats();
  }
  {
    const auto sp = span("pfs.scrub");
    r.scrub = fs->scrub();
    r.integrity_events = collector->integrity_events();
    r.integrity = fs->integrity_report();
  }
  {
    const auto sp = span("pfs.counters");
    r.resilience = resilience_of(*machine, *fs);
    count_layers(*machine, *fs, counts);
    count_result(r, counts);
    if (armed) counts.fault_injections += s.plan.injection_count();
  }
  // Tear down in core's order: the fault clock and file system, then the
  // collector, then the machine and its engine.
  {
    const auto sp = span("pfs.teardown");
    fclock.reset();
    fs.reset();
  }
  {
    const auto sp = span("pablo.teardown");
    collector.reset();
  }
  {
    const auto sp = span("machine.teardown");
    machine.reset();
  }
  return r;
}

namespace {

std::string decoded_text(const std::string& binary) {
  pablo::TraceFile tf = pablo::from_binary_sddf(binary);
  pablo::sort_trace_events(tf.events);
  std::ostringstream out;
  pablo::write_sddf(out, tf.file_names, tf.events, tf.faults, tf.qos, tf.losses, tf.integrity,
                    tf.spans);
  return out.str();
}

}  // namespace

Report render_report(const Workload& w, std::vector<core::RunResult>& runs) {
  Report rep;
  if (w.name == "paper") {
    core::EscatStudy es{std::move(runs[0]), std::move(runs[1]), std::move(runs[2])};
    core::PrismStudy ps{std::move(runs[4]), std::move(runs[5]), std::move(runs[6])};
    for (const std::string& text :
         {core::render_table2(es), core::render_table3(es, runs[3]), core::render_table5(ps),
          core::render_fig2(es), core::render_fig3(es), core::render_fig4(es),
          core::render_fig5(es), core::render_fig6(ps), core::render_fig7(ps),
          core::render_fig8(ps), core::render_fig9(ps)}) {
      rep.bytes += text.size();
    }
    runs[0] = std::move(es.a);
    runs[1] = std::move(es.b);
    runs[2] = std::move(es.c);
    runs[4] = std::move(ps.a);
    runs[5] = std::move(ps.b);
    runs[6] = std::move(ps.c);
  } else if (w.name == "ckpt-crash") {
    // Sub-runs come in (fault-free, crash) pairs.
    for (std::size_t i = 0; i + 1 < runs.size(); i += 2) {
      rep.bytes += core::render_resilience_summary(runs[i + 1], runs[i]).size();
      rep.bytes += pablo::render_scrub(runs[i + 1].scrub).size();
    }
  } else if (w.name == "traced") {
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const core::RunResult& r = runs[i];
      rep.bytes += r.critical_path_table().size();
      if (w.subs[i].trace.retain_events) {
        const std::string text = r.to_sddf();
        rep.ok = rep.ok && decoded_text(r.binary_trace) == text;
        rep.bytes += text.size();
      } else {
        const pablo::TraceFile tf = pablo::from_binary_sddf(r.binary_trace);
        rep.ok = rep.ok && tf.events.size() == r.trace_memory.events_recorded;
        rep.bytes += r.binary_trace.size();
      }
    }
  }
  return rep;
}

namespace {

void mix_bytes(sio::mc::Fingerprint& f, std::string_view bytes) {
  f.mix(bytes.size());
  for (std::size_t i = 0; i < bytes.size(); i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes.data() + i, std::min<std::size_t>(8, bytes.size() - i));
    f.mix(word);
  }
}

template <class E>
std::uint64_t u(E e) {
  return static_cast<std::uint64_t>(e);
}

}  // namespace

std::uint64_t trace_fnv(const core::RunResult& r) {
  sio::mc::Fingerprint f;
  for (const auto& n : r.file_names) mix_bytes(f, n);
  for (const auto& e : r.events) {
    for (const std::uint64_t w : {u(e.start), u(e.duration), u(e.node), u(e.file), u(e.op),
                                  e.offset, e.bytes}) {
      f.mix(w);
    }
  }
  for (const auto& e : r.fault_events) {
    for (const std::uint64_t w : {u(e.at), e.op_id, u(e.kind), u(e.node), u(e.target), e.info}) {
      f.mix(w);
    }
  }
  for (const auto& e : r.qos_events) {
    for (const std::uint64_t w : {u(e.at), e.op_id, u(e.kind), u(e.node), u(e.target), e.info}) {
      f.mix(w);
    }
  }
  for (const auto& e : r.loss_events) {
    for (const std::uint64_t w : {u(e.at), e.op_id, u(e.target), u(e.file), e.offset, e.bytes,
                                  e.torn}) {
      f.mix(w);
    }
  }
  for (const auto& e : r.integrity_events) {
    for (const std::uint64_t w : {u(e.at), u(e.kind), u(e.target), u(e.file), e.unit, e.bytes}) {
      f.mix(w);
    }
  }
  for (const auto& e : r.span_events) {
    for (const std::uint64_t w : {u(e.start), u(e.duration), e.op_id, u(e.span), u(e.parent),
                                  u(e.stage), u(e.node), u(e.target), e.bytes, e.flags, e.info}) {
      f.mix(w);
    }
  }
  f.mix(r.streaming ? r.streaming->fingerprint() : 0);
  f.mix(r.critical_path.fingerprint());
  mix_bytes(f, r.binary_trace);
  return f.value();
}

double sim_io_seconds(const core::RunResult& r) {
  if (r.events.empty() && r.streaming) return sim::to_seconds(r.streaming->totals().total_io_time());
  return sim::to_seconds(r.io_time());
}

}  // namespace perfbench
