// The scenario matrices of bench_paper: resilience, checkpoint/journaling and
// overload.  Each matrix fans its independent seeded runs out over
// core::ParallelRunner, then renders serially in the fixed cell order, so the
// report and its JSON records are identical to a serial run.
//
//   resilience  tuned (version C) ESCAT and PRISM under the canned fault
//               plans (disk-degraded, io-node-crash, slow-link) plus the
//               silent-corruption ablation (one seeded bit-rot schedule
//               against verification off / verify / repair), each against
//               the app's fault-free run.  Faulted cells run with causal
//               tracing on, so each summary appends its critical-path
//               attribution; spans never touch engine timing.
//   ckpt        the checkpoint workload (naive 1 KB strided writes vs
//               aggregated 64 KB slabs) through the write-ahead-journaling
//               ablation: fault-free with journal off and full, then a
//               double torn io-node crash with journal off / meta / full.
//   overload    the four storm scenarios at 1x / 2x / 4x offered load with
//               protection on, plus the unprotected 4x point.

#include <cstdarg>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_paper.hpp"
#include "core/sio.hpp"

namespace sio::bench {
namespace {

constexpr std::uint64_t kSeed = 510;

/// Served data operations per simulated second: the goodput of every
/// scenario record.
double goodput_ops_per_s(std::uint64_t served, sim::Tick exec_time) {
  const double secs = sim::to_seconds(exec_time);
  return secs > 0 ? static_cast<double>(served) / secs : 0.0;
}

double goodput_ops_per_s(const core::RunResult& run) {
  std::uint64_t served = 0;
  for (const auto& ev : run.events) {
    if (ev.op == pablo::IoOp::kRead || ev.op == pablo::IoOp::kWrite) ++served;
  }
  return goodput_ops_per_s(served, run.exec_time);
}

/// One `  {"key": value, ...}` record of a JSON-array artifact.
class JsonRecord {
 public:
  JsonRecord& raw(const char* key, const std::string& value) {
    out_ += out_.empty() ? "  {\"" : ", \"";
    out_ += key;
    out_ += "\": " + value;
    return *this;
  }
  JsonRecord& text(const char* key, const std::string& v) { return raw(key, '"' + v + '"'); }
  JsonRecord& count(const char* key, std::uint64_t v) { return raw(key, std::to_string(v)); }
  JsonRecord& fixed(const char* key, double v, int decimals) {
    return raw(key, pablo::fmt_fixed(v, decimals));
  }
  JsonRecord& seconds(const char* key, sim::Tick t) { return fixed(key, sim::to_seconds(t), 6); }
  std::string str() const { return out_ + "}"; }

 private:
  std::string out_;
};

/// A JSON array holding one record per line.
class JsonArray {
 public:
  void add(const JsonRecord& r) { body_ += (body_.empty() ? "" : ",\n") + r.str(); }
  std::string str() const { return "[\n" + body_ + "\n]\n"; }

 private:
  std::string body_;
};

/// One (app, plan) cell of a fault-plan matrix, judged against the app's
/// fault-free run.
struct Cell {
  std::string app;
  std::string plan;
  const core::RunResult& run;
  const core::RunResult& baseline;

  /// The record fields every fault-plan matrix shares.
  JsonRecord record() const {
    JsonRecord r;
    r.text("app", app).text("plan", plan);
    r.fixed("goodput_ops_per_s", goodput_ops_per_s(run), 3);
    r.seconds("exec_time_s", run.exec_time).seconds("io_time_s", run.io_time());
    r.seconds("baseline_exec_time_s", baseline.exec_time);
    return r;
  }
};

std::string render_cell(const Cell& c) {
  return "==== " + c.app + " / " + c.plan + " ====\n" +
         core::render_resilience_summary(c.run, c.baseline) + "\n";
}

[[gnu::format(printf, 1, 2)]] std::string format(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

}  // namespace

ScenarioReport run_resilience() {
  struct PlanRow {
    const char* name;
    fault::FaultPlan plan;
  };
  const std::vector<PlanRow> plans = {
      {"disk-degraded", fault::FaultPlan::disk_degraded(kSeed)},
      {"io-node-crash", fault::FaultPlan::io_node_crash(kSeed)},
      {"slow-link", fault::FaultPlan::slow_link(kSeed)},
      {"bit-rot-off", fault::FaultPlan::bit_rot_plan(kSeed, pfs::IntegrityMode::kOff)},
      {"bit-rot-verify", fault::FaultPlan::bit_rot_plan(kSeed, pfs::IntegrityMode::kVerify)},
      {"bit-rot-repair", fault::FaultPlan::bit_rot_plan(kSeed, pfs::IntegrityMode::kRepair)},
  };
  core::TraceOptions traced;
  traced.spans = true;
  traced.streaming = true;

  // Per app: the fault-free baseline, then one job per plan.
  std::vector<std::function<core::RunResult()>> jobs;
  for (const bool escat : {true, false}) {
    const auto job = [escat](fault::FaultPlan plan, core::TraceOptions topt) {
      return [escat, plan, topt] {
        return escat ? core::run_escat(apps::escat::make_config(apps::escat::Version::C), plan,
                                       topt, kSeed)
                     : core::run_prism(apps::prism::make_config(apps::prism::Version::C), plan,
                                       topt, kSeed);
      };
    };
    jobs.push_back(job(fault::FaultPlan::fault_free(), {}));
    for (const auto& row : plans) jobs.push_back(job(row.plan, traced));
  }
  const auto results = core::ParallelRunner().run<core::RunResult>(jobs);

  ScenarioReport out;
  out.text = "Resilience: tuned ESCAT/PRISM (version C) under canned fault plans\n\n";
  JsonArray json, integrity;
  std::size_t idx = 0;
  for (const char* app : {"escat", "prism"}) {
    const auto& baseline = results[idx++];
    for (const auto& row : plans) {
      const Cell c{app, row.name, results[idx++], baseline};
      out.text += render_cell(c);
      const auto& rc = c.run.resilience;
      json.add(c.record()
                   .seconds("baseline_io_time_s", baseline.io_time())
                   .count("injected", c.run.fault_events.size())
                   .count("retries", rc.retries)
                   .count("timeouts", rc.timeouts)
                   .count("failed_ops", rc.failed_ops)
                   .count("replayed_ops", rc.replayed_ops)
                   .count("coalesced_ops", rc.coalesced_ops)
                   .count("dropped_messages", rc.dropped_messages)
                   .count("degraded_disk_ops", rc.degraded_disk_ops)
                   .count("stuck_disk_ops", rc.stuck_disk_ops)
                   .count("server_crashes", rc.server_crashes));
      if (c.run.integrity.empty()) continue;
      const auto& g = c.run.integrity;
      integrity.add(JsonRecord()
                        .text("app", c.app)
                        .text("plan", c.plan)
                        .text("mode", g.mode)
                        .count("rotted_units", g.rotted_units)
                        .count("rotted_bytes", g.rotted_bytes)
                        .count("detected_verify_fails", g.verify_fails)
                        .count("detected_scrub", g.scrub_detects)
                        .count("read_repairs", g.read_repairs)
                        .count("scrub_repairs", g.scrub_repairs)
                        .count("repairs_lost", g.repairs_lost)
                        .count("scrub_units_checked", g.scrub_units_checked)
                        .count("corrupt_bytes_acked", g.corrupt_bytes_acked)
                        .count("residual_corrupt_units", g.residual_corrupt_units)
                        .count("residual_corrupt_bytes", g.residual_corrupt_bytes));
    }
  }
  out.json = json.str();
  out.integrity_json = integrity.str();
  return out;
}

ScenarioReport run_ckpt() {
  struct PlanRow {
    const char* name;
    bool faults;
    pfs::JournalMode journal;
  };
  const std::vector<PlanRow> plans = {
      {"fault-free", false, pfs::JournalMode::kOff},
      {"fault-free-journal", false, pfs::JournalMode::kFull},
      {"crash-torn-off", true, pfs::JournalMode::kOff},
      {"crash-torn-meta", true, pfs::JournalMode::kMeta},
      {"crash-torn-full", true, pfs::JournalMode::kFull},
  };
  const auto variants = {apps::ckpt::Variant::kNaive, apps::ckpt::Variant::kAggregated};

  std::vector<std::function<core::RunResult()>> jobs;
  for (const auto variant : variants) {
    for (const auto& row : plans) {
      fault::FaultPlan plan =
          row.faults ? fault::FaultPlan::io_node_crash_torn(kSeed) : fault::FaultPlan::fault_free();
      plan.journal = row.journal;
      jobs.push_back([variant, plan] {
        return core::run_ckpt(apps::ckpt::make_config(variant), plan, kSeed);
      });
    }
  }
  const auto results = core::ParallelRunner().run<core::RunResult>(jobs);

  ScenarioReport out;
  out.text = "Checkpoint/restart: naive vs aggregated through the journaling ablation\n\n";
  JsonArray json;
  std::size_t idx = 0;
  for (const auto variant : variants) {
    const std::string app = "ckpt-" + std::string(apps::ckpt::variant_name(variant));
    const auto& baseline = results[idx];  // the fault-free, journal-off cell
    for (const auto& row : plans) {
      const Cell c{app, row.name, results[idx++], baseline};
      out.text += render_cell(c);
      const auto& sc = c.run.scrub;
      json.add(c.record()
                   .text("journal", sc.journal_mode)
                   .count("server_crashes", c.run.resilience.server_crashes)
                   .count("loss_events", c.run.loss_events.size())
                   .count("acked_bytes_lost", sc.acked_bytes_lost)
                   .count("lost_units", sc.lost_units)
                   .count("torn_units", sc.torn_units)
                   .count("journal_appends", sc.journal_appends)
                   .count("journal_redone", sc.journal_redone)
                   .count("journal_detected_lost", sc.journal_detected_lost)
                   .count("recoveries", sc.recoveries));
    }
  }
  out.json = json.str();
  return out;
}

ScenarioReport run_overload() {
  std::vector<core::OverloadConfig> cells;
  for (auto scenario : {core::OverloadScenario::kOpenStampede, core::OverloadScenario::kHotStripe,
                        core::OverloadScenario::kRetryStorm, core::OverloadScenario::kCkptBurst}) {
    for (const double load : {1.0, 2.0, 4.0}) {
      core::OverloadConfig cfg;
      cfg.scenario = scenario;
      cfg.offered_load = load;
      cells.push_back(cfg);
    }
    core::OverloadConfig raw;
    raw.scenario = scenario;
    raw.offered_load = 4.0;
    raw.qos = false;
    cells.push_back(raw);
  }
  std::vector<std::function<core::OverloadResult()>> jobs;
  for (const auto& cfg : cells) jobs.push_back([cfg] { return core::run_overload(cfg); });
  const auto results = core::ParallelRunner().run<core::OverloadResult>(jobs);

  ScenarioReport out;
  out.text = "Overload storms: goodput under offered load, protection on/off\n\n";
  out.text += format("%-15s %5s %4s | %9s %9s %7s | %9s %8s %8s | %7s %7s\n", "scenario", "load",
                     "qos", "completed", "goodput/s", "failed", "p99(ms)", "rejected", "shed",
                     "maxpend", "starved");
  JsonArray json;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& cfg = cells[i];
    const auto& r = results[i];
    const double goodput = goodput_ops_per_s(r.completed_ops, r.exec_time);
    out.text += format("%-15s %4.1fx %4s | %9llu %9.1f %7llu | %9.2f %8llu %8llu | %7zu %7d\n",
                       core::overload_scenario_name(cfg.scenario), cfg.offered_load,
                       cfg.qos ? "on" : "off", static_cast<unsigned long long>(r.completed_ops),
                       goodput, static_cast<unsigned long long>(r.failed_ops),
                       sim::to_seconds(r.p99_latency) * 1e3,
                       static_cast<unsigned long long>(r.rejected),
                       static_cast<unsigned long long>(r.shed), r.max_pending, r.starved_windows);
    json.add(JsonRecord()
                 .text("scenario", core::overload_scenario_name(cfg.scenario))
                 .fixed("offered_load", cfg.offered_load, 1)
                 .raw("qos", cfg.qos ? "true" : "false")
                 .count("offered_ops", r.offered_ops)
                 .count("completed_ops", r.completed_ops)
                 .count("failed_ops", r.failed_ops)
                 .fixed("goodput_ops_per_s", goodput, 3)
                 .seconds("exec_time_s", r.exec_time)
                 .seconds("p50_latency_s", r.p50_latency)
                 .seconds("p99_latency_s", r.p99_latency)
                 .count("retries", r.retries)
                 .count("timeouts", r.timeouts)
                 .count("rejected", r.rejected)
                 .count("shed", r.shed)
                 .count("paced_meta", r.paced_meta)
                 .count("reroutes", r.reroutes)
                 .count("breaker_opens", r.breaker_opens)
                 .count("breaker_holds", r.breaker_holds)
                 .count("max_pending", r.max_pending)
                 .count("peak_cpu_queue", r.peak_cpu_queue)
                 .count("starved_windows", static_cast<std::uint64_t>(r.starved_windows)));
  }
  out.text += "\n";
  out.json = json.str();
  return out;
}

}  // namespace sio::bench
