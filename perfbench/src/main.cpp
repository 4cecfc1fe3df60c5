// sio_perfbench: end-to-end and per-layer host-time benchmark.
//
//   sio_perfbench --workload <paper|ckpt-crash|traced> [--seed N] [--seconds S]
//                 [--trace 0|1] [--span-file PATH]
//
// --trace 0 (end to end): sets the workload up (build inputs plus one
// untimed warm-up pass), then runs timed passes through `core::run_*` for S
// seconds and prints the end-to-end metrics.
//
// --trace 1 (per layer): alternates untimed-path passes with passes that
// drive every layer directly under host-time spans, checks both simulate
// the same program, and prints the per-layer metrics.  The spans go to
// --span-file.
//
// Every pass is checked (see check_pass); a failed check makes `correct`
// false and counts as a failed pass.  The last line of output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "mc/fingerprint.hpp"
#include "pablo/binsddf.hpp"
#include "pablo/sddf.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using sio::core::RunResult;

// Host time at process start, taken before any other static initializer
// runs, so that setup_s sees once-per-process work wherever it lands.
std::int64_t process_start_ns = 0;
__attribute__((constructor(101))) void mark_process_start() { process_start_ns = host_ns(); }

struct Options {
  std::string workload;
  std::uint64_t seed = sio::core::kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string span_file;
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "sio_perfbench: %s\n"
               "usage: sio_perfbench --workload <paper|ckpt-crash|traced> [--seed N]"
               " [--seconds S] [--trace 0|1] [--span-file PATH]\n",
               msg.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = val;
      } else if (arg == "--seed") {
        o.seed = std::stoull(val);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(val);
      } else if (arg == "--trace") {
        o.trace = std::stoi(val) != 0;
      } else if (arg == "--span-file") {
        o.span_file = val;
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + val);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    usage("unknown workload '" + o.workload + "'");
  }
  if (o.trace && o.span_file.empty()) usage("--trace 1 needs --span-file");
  return o;
}

double seconds_since(std::int64_t t0) { return static_cast<double>(host_ns() - t0) * 1e-9; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- determinism fingerprint ----

struct RunPrint {
  sio::sim::Tick exec_time = 0;
  std::uint64_t events_processed = 0;
  std::uint64_t trace = 0;
  bool operator==(const RunPrint&) const = default;
};

std::vector<RunPrint> prints_of(const std::vector<RunResult>& runs) {
  std::vector<RunPrint> out;
  for (const auto& r : runs) out.push_back({r.exec_time, r.events_processed, trace_fnv(r)});
  return out;
}

std::uint64_t workload_fnv(const std::vector<RunPrint>& prints) {
  sio::mc::Fingerprint f;
  for (const auto& p : prints) {
    f.mix_signed(p.exec_time);
    f.mix(p.events_processed);
    f.mix(p.trace);
  }
  return f.value();
}

void print_fingerprints(const Workload& w, const std::vector<RunPrint>& prints) {
  for (std::size_t i = 0; i < prints.size(); ++i) {
    std::printf("fingerprint run=%s exec_time=%" PRId64 " events_processed=%" PRIu64
                " trace=%016" PRIx64 "\n",
                w.subs[i].name.c_str(), prints[i].exec_time, prints[i].events_processed,
                prints[i].trace);
  }
  std::printf("fingerprint workload=%s seed=%" PRIu64 " %016" PRIx64 "\n", w.name.c_str(), w.seed,
              workload_fnv(prints));
}

// ---- passes and their checks ----

struct Pass {
  std::vector<RunResult> runs;
  Report report;
  double seconds = 0.0;
};

/// One pass through the public entry points, timed from the first run to
/// the rendered report.
Pass run_pass(const Workload& w) {
  Pass p;
  p.runs.reserve(w.subs.size());
  const std::int64_t t0 = host_ns();
  for (const auto& s : w.subs) p.runs.push_back(run_core(s, w.seed));
  p.report = render_report(w, p.runs);
  p.seconds = seconds_since(t0);
  return p;
}

/// Tallies for fail_ratio: client ops and passes attempted, and those that
/// failed (an op that exhausted its retries, a pass that failed a check).
struct Tally {
  std::uint64_t ops = 0;
  std::uint64_t failed_ops = 0;
  std::uint64_t passes = 0;
  std::uint64_t failed_passes = 0;
  std::map<std::string, int> failed_checks;

  std::uint64_t attempted() const { return ops + passes; }
  std::uint64_t failed() const { return failed_ops + failed_passes; }
  double fail_ratio() const {
    return attempted() == 0 ? 0.0
                            : static_cast<double>(failed()) / static_cast<double>(attempted());
  }
};

/// Checks one pass against the reference fingerprints and the workload's
/// output invariants; records the outcome in `t`.
void check_pass(const Workload& w, const std::vector<RunResult>& runs, const Report& report,
                const std::vector<RunPrint>& ref, Tally& t) {
  std::vector<std::string> failed;
  if (prints_of(runs) != ref) failed.push_back("fingerprint");
  if (!report.ok) failed.push_back("binary-trace-roundtrip");
  if (report.bytes == 0) failed.push_back("empty-report");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& s = w.subs[i];
    const auto& r = runs[i];
    t.ops += r.trace_memory.events_recorded;
    t.failed_ops += r.resilience.failed_ops;
    if (s.trace.spans) {
      bool exact = !r.critical_path.empty();
      for (const auto& row : r.critical_path.rows) {
        exact = exact && row.exclusive_sum() == row.total_latency;
      }
      if (!exact) failed.push_back("critical-path-exact");
    }
    if (s.plan.journal == sio::pfs::JournalMode::kFull && r.scrub.acked_bytes_lost != 0) {
      failed.push_back("acked-bytes-lost");
    }
  }
  ++t.passes;
  if (!failed.empty()) ++t.failed_passes;
  for (const auto& f : failed) ++t.failed_checks[f];
}

// ---- output ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

int emit(const std::vector<Metric>& metrics, const Tally& t) {
  for (const auto& [name, n] : t.failed_checks) {
    std::printf("check-failed %s in %d pass(es)\n", name.c_str(), n);
  }
  const bool correct = t.failed_checks.empty();
  std::printf("checks %s: %" PRIu64 " of %" PRIu64 " passes failed a check\n",
              correct ? "ok" : "FAILED", t.failed_passes, t.passes);
  std::printf("fail_ratio %.17g (%" PRIu64 " failed of %" PRIu64 " ops and passes)\n",
              t.fail_ratio(), t.failed(), t.attempted());
  for (const auto& m : metrics) {
    std::printf("metric %-34s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(t.attempted()) +
                     ", \"failed\": " + std::to_string(t.failed()) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// ---- --trace 0: end-to-end metrics ----

int run_end_to_end(const Options& o) {
  const Workload w = make_workload(o.workload, o.seed);
  Pass warm = run_pass(w);
  const std::vector<RunPrint> ref = prints_of(warm.runs);
  print_fingerprints(w, ref);
  double sim_exec_s = 0.0;
  double sim_io_s = 0.0;
  std::uint64_t ops_per_pass = 0;
  for (const auto& r : warm.runs) {
    sim_exec_s += r.exec_seconds();
    sim_io_s += sim_io_seconds(r);
    ops_per_pass += r.trace_memory.events_recorded;
  }
  Tally tally;
  check_pass(w, warm.runs, warm.report, ref, tally);
  warm = Pass{};  // so that peak_rss_mb holds one pass's results, not two

  std::vector<double> pass_s;
  const double setup_s = seconds_since(process_start_ns);
  const std::int64_t deadline = host_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  while (pass_s.empty() || host_ns() < deadline) {
    Pass p = run_pass(w);
    pass_s.push_back(p.seconds);
    check_pass(w, p.runs, p.report, ref, tally);
  }

  // Tail: the highest percentile with at least ten passes beyond it, but
  // never below p75, so that it stays above the median in a run of fewer
  // than 40 passes (which then has fewer than ten beyond it).
  std::vector<double> sorted = pass_s;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  const std::size_t tail_rank =  // 1-based rank of the tail sample
      std::max(n > 10 ? n - 10 : n, (3 * n + 3) / 4);
  const double tail_pct = 100.0 * static_cast<double>(tail_rank) / static_cast<double>(n);
  const double run_s = median(pass_s);
  std::printf("passes %zu, run_s_tail is p%.1f (%zu passes beyond it); pass s min %.4f "
              "p25 %.4f median %.4f max %.4f\n",
              n, tail_pct, n - tail_rank, sorted.front(), sorted[n / 4], run_s, sorted.back());

  return emit(
      {
          {"run_s", run_s, "s"},
          {"run_s_tail", sorted[tail_rank - 1], "s"},
          {"ns_per_op", run_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(ops_per_pass, 1)),
           "ns"},
          {"setup_s", setup_s, "s"},
          {"peak_rss_mb", peak_rss_mb(), "MB"},
          {"ok_ratio", 1.0 - tally.fail_ratio(), "ratio"},
          {"sim_exec_s", sim_exec_s, "sim_s"},
          {"sim_io_s", sim_io_s, "sim_s"},
      },
      tally);
}

// ---- --trace 1: per-layer metrics ----

const std::vector<std::string> kLayers{"bench", "core",  "machine", "pablo",
                                       "pfs",   "fault", "apps",    "sim",   "obs"};

/// Per-pass span totals of the layered passes, one vector entry per pass.
struct LayerTimes {
  std::map<std::string, std::vector<double>> named;     // span name -> seconds
  std::map<std::string, std::vector<double>> self;      // layer -> self seconds
  std::map<std::string, std::vector<double>> run_s;     // sub-run -> seconds
  std::vector<double> pass_s;
  double min_coverage = 1.0;

  double med(const std::map<std::string, std::vector<double>>& m, const std::string& k) const {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : median(it->second);
  }
};

const std::vector<std::string> kTimedSpans{"sim.run",          "machine.setup",  "pfs.setup",
                                           "fault.arm",        "pfs.scrub",      "obs.critical_path",
                                           "pablo.render"};

int run_per_layer(const Options& o) {
  const Workload w = make_workload(o.workload, o.seed);
  Tally tally;
  Pass warm = run_pass(w);
  const std::vector<RunPrint> ref = prints_of(warm.runs);
  print_fingerprints(w, ref);
  check_pass(w, warm.runs, warm.report, ref, tally);
  warm = Pass{};

  SpanLog log;
  LayerTimes lt;
  LayerCounts counts;
  std::vector<double> core_pass_s;
  std::vector<double> probe_on_s;
  std::vector<double> probe_off_s;
  std::vector<RunResult> last_runs;
  SubRun probe_on = w.subs.front();
  probe_on.trace = always_on();
  SubRun probe_off = w.subs.front();
  probe_off.trace = sio::core::TraceOptions{};

  const std::int64_t deadline = host_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  do {
    // Untraced pass through the public entry points: the base of the
    // tracing overhead.
    Pass p = run_pass(w);
    core_pass_s.push_back(p.seconds);
    check_pass(w, p.runs, p.report, ref, tally);
    p = Pass{};

    // Traced pass, layer by layer.
    LayerCounts c;
    std::vector<RunResult> runs;
    runs.reserve(w.subs.size());
    Report report;
    const int root = log.open("bench.pass", "", -1);
    for (const auto& s : w.subs) runs.push_back(run_layers(s, w.seed, log, root, c));
    {
      const SpanLog::Scope sp(log, "pablo.render", "", root);
      report = render_report(w, runs);
    }
    log.close(root);
    check_pass(w, runs, report, ref, tally);
    if (lt.pass_s.empty()) {
      counts = c;
    } else if (!(c == counts)) {
      ++tally.failed_checks["layer-counts"];
    }

    lt.pass_s.push_back(log.at(root).seconds());
    for (const auto& name : kTimedSpans) lt.named[name].push_back(log.seconds_named(root, name));
    const auto self = log.self_seconds_by_layer(root);
    for (const auto& layer : kLayers) {
      const auto it = self.find(layer);
      lt.self[layer].push_back(it == self.end() ? 0.0 : it->second);
    }
    for (std::size_t i = 0; i < log.spans().size(); ++i) {
      const Span& s = log.spans()[i];
      if (s.parent != root || s.name != "core.run") continue;
      lt.run_s[s.run].push_back(s.seconds());
      const double cover = log.child_seconds(static_cast<int>(i)) / s.seconds();
      lt.min_coverage = std::min(lt.min_coverage, cover);
    }
    last_runs = std::move(runs);

    // Tracing-overhead probe on the first sub-run: always-on vs plain.
    std::int64_t t0 = host_ns();
    run_core(probe_off, w.seed);
    probe_off_s.push_back(seconds_since(t0));
    t0 = host_ns();
    run_core(probe_on, w.seed);
    probe_on_s.push_back(seconds_since(t0));
  } while (host_ns() < deadline || lt.pass_s.size() < 2);
  if (lt.min_coverage < 0.95) ++tally.failed_checks["span-coverage"];

  // Trace codecs on the last traced pass's results, median of three.
  std::vector<double> enc_text, enc_bin, dec_bin;
  std::uint64_t bin_bytes = 0;
  const int probe_root = log.open("bench.codec", "", -1);
  for (int k = 0; k < 3; ++k) {
    double et = 0.0, eb = 0.0, db = 0.0;
    bin_bytes = 0;
    for (std::size_t i = 0; i < last_runs.size(); ++i) {
      const RunResult& r = last_runs[i];
      const std::string& name = w.subs[i].name;
      std::string bin = r.binary_trace;
      if (w.subs[i].trace.retain_events) {
        {
          const SpanLog::Scope sp(log, "pablo.encode_text", name, probe_root);
          const std::string text = r.to_sddf();
        }
        et += log.spans().back().seconds();
        {
          const SpanLog::Scope sp(log, "pablo.encode_bin", name, probe_root);
          bin = r.to_binary_sddf();
        }
        eb += log.spans().back().seconds();
      }
      {
        const SpanLog::Scope sp(log, "pablo.decode_bin", name, probe_root);
        const auto tf = sio::pablo::from_binary_sddf(bin);
      }
      db += log.spans().back().seconds();
      bin_bytes += bin.size();
    }
    enc_text.push_back(et);
    enc_bin.push_back(eb);
    dec_bin.push_back(db);
  }
  log.close(probe_root);

  // Sub-runs of the other workloads, once each, so every core.run_s metric
  // has a value; they never enter the layer totals above.
  const int census_root = log.open("bench.census", "", -1);
  for (const auto& other : workload_names()) {
    if (other == w.name) continue;
    const Workload ow = make_workload(other, o.seed);
    for (const auto& s : ow.subs) {
      LayerCounts ignored;
      run_layers(s, ow.seed, log, census_root, ignored);
    }
  }
  log.close(census_root);
  for (const Span& s : log.spans()) {
    if (s.parent == census_root && s.name == "core.run") lt.run_s[s.run] = {s.seconds()};
  }

  if (!log.write_jsonl(o.span_file)) {
    std::fprintf(stderr, "sio_perfbench: cannot write span file %s\n", o.span_file.c_str());
    ++tally.failed_checks["span-file"];
  }
  std::printf("traced passes %zu, spans %zu -> %s, min span coverage %.4f\n", lt.pass_s.size(),
              log.spans().size(), o.span_file.c_str(), lt.min_coverage);

  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double sim_run_s = lt.med(lt.named, "sim.run");
  const std::uint64_t lookups = counts.cache_hits + counts.cache_misses;
  std::vector<Metric> m{
      {"sim.dispatches", d(counts.dispatches), "count"},
      {"sim.run_s", sim_run_s, "s"},
      {"sim.ns_per_dispatch", sim_run_s * 1e9 / std::max(1.0, d(counts.dispatches)), "ns"},
      {"machine.setup_s", lt.med(lt.named, "machine.setup"), "s"},
      {"pfs.setup_s", lt.med(lt.named, "pfs.setup"), "s"},
      {"fault.arm_s", lt.med(lt.named, "fault.arm"), "s"},
      {"machine.net_messages", d(counts.net_messages), "count"},
      {"machine.net_bytes", d(counts.net_bytes), "B"},
      {"machine.net_dropped", d(counts.net_dropped), "count"},
      {"machine.disk_ops", d(counts.disk_ops), "count"},
      {"machine.disk_busy_sim_s", sio::sim::to_seconds(counts.disk_busy), "sim_s"},
      {"pfs.data_ops", d(counts.data_ops), "count"},
      {"pfs.meta_requests", d(counts.meta_requests), "count"},
      {"pfs.meta_busy_sim_s", sio::sim::to_seconds(counts.meta_busy), "sim_s"},
      {"pfs.cache_hit_ratio", lookups == 0 ? 0.0 : d(counts.cache_hits) / d(lookups), "ratio"},
      {"pfs.cache_lookups", d(lookups), "count"},
      {"pfs.peak_cpu_queue", d(counts.peak_cpu_queue), "count"},
      {"pfs.retries", d(counts.retries), "count"},
      {"pfs.timeouts", d(counts.timeouts), "count"},
      {"pfs.failed_ops", d(counts.failed_ops), "count"},
      {"pfs.journal_appends", d(counts.journal_appends), "count"},
      {"pfs.journal_redone", d(counts.journal_redone), "count"},
      {"pfs.acked_bytes_lost", d(counts.acked_bytes_lost), "B"},
      {"pfs.scrub_s", lt.med(lt.named, "pfs.scrub"), "s"},
      {"qos.admitted", d(counts.qos_admitted), "count"},
      {"qos.rejected", d(counts.qos_rejected), "count"},
      {"qos.shed", d(counts.qos_shed), "count"},
      {"qos.breaker_opens", d(counts.breaker_opens), "count"},
      {"qos.reroutes", d(counts.reroutes), "count"},
      {"fault.injections", d(counts.fault_injections), "count"},
      {"fault.server_crashes", d(counts.server_crashes), "count"},
      {"obs.spans", d(counts.spans), "count"},
      {"obs.critical_path_s", lt.med(lt.named, "obs.critical_path"), "s"},
      {"obs.overhead_x", median(probe_on_s) / median(probe_off_s), "x"},
      {"pablo.events_recorded", d(counts.events_recorded), "count"},
      {"pablo.peak_bytes_retained", d(counts.peak_bytes_retained), "B"},
      {"pablo.encode_text_s", median(enc_text), "s"},
      {"pablo.encode_bin_s", median(enc_bin), "s"},
      {"pablo.decode_bin_s", median(dec_bin), "s"},
      {"pablo.bin_bytes_per_event", d(bin_bytes) / std::max(1.0, d(counts.events_recorded)),
       "B/event"},
      {"pablo.render_s", lt.med(lt.named, "pablo.render"), "s"},
  };
  for (const auto& name : workload_names()) {
    for (const auto& s : make_workload(name, o.seed).subs) {
      m.push_back({"core.run_s." + s.name, lt.med(lt.run_s, s.name), "s"});
    }
  }
  for (const auto& layer : kLayers) m.push_back({layer + ".self_s", lt.med(lt.self, layer), "s"});
  m.push_back({"bench.trace_overhead_s", median(lt.pass_s) - median(core_pass_s), "s"});
  m.push_back({"bench.span_coverage_min", lt.min_coverage, "ratio"});
  return emit(m, tally);
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    return o.trace ? run_per_layer(o) : run_end_to_end(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sio_perfbench: %s\n", e.what());
    return 1;
  }
}
