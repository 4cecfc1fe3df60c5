// Determinism regression harness.
//
// Runs one ESCAT and one PRISM experiment twice each — two completely
// independent simulations from the same seed — and asserts that every
// observable is bit-identical: engine event count, execution time, trace
// length, and the serialized report text.  Any divergence means silent
// nondeterminism crept into the stack (wall-clock leakage, unordered
// iteration reaching a report, a lost coroutine changing the schedule) and
// would corrupt every regenerated table and figure.
//
// Registered as a CTest test; exit 0 = deterministic, 1 = divergence.  Each
// OK line carries an FNV-1a 64 digest of the fingerprint, and the test
// compares the whole output with bench/golden/determinism_<mode>.txt, so a
// change that shifts both runs the same way fails as well.
//
// `--fault-seed N` additionally runs both experiments under the seeded
// random fault plan `fault::FaultPlan::random_plan(N, ...)`, extending the
// fingerprint with every fault/recovery observable (injection records,
// retry/timeout/replay counters).  A divergence there means the fault
// schedule itself — not just the healthy data path — leaked nondeterminism.
//
// The default pass also covers the trace-capture pipeline: the same
// experiments re-run with streaming aggregates plus live binary-SDDF capture
// on, comparing the streaming fingerprint and the binary container
// byte-for-byte across runs — and across capture modes (retained vectors on
// vs off), since dropping the vectors must not change what the aggregates or
// the encoder observe.
//
// `--overload-scenario` additionally runs every overload-storm scenario at
// the 4x storm point twice and compares the harness counters plus the full
// SDDF trace byte-for-byte.  The storms exercise the QoS subsystem end to
// end (admission rejection, shedding, DRR grants, breaker transitions,
// degraded reconstruction), so this axis catches nondeterminism in the
// protection machinery specifically.  Combinable with --fault-seed: the
// storms then also run with the extra seeded faults layered on top.
//
// `--corruption-seed N` additionally runs both experiments twice under the
// seeded silent-corruption plan `fault::FaultPlan::bit_rot_plan(N, repair)`,
// extending the fingerprint with every integrity observable: the ordered
// #integrity event stream (rot placement, verify fails, read-repairs, scrub
// sweeps) and the whole-run IntegrityReport counters.  A divergence here
// means the corruption injector, the verify-on-read path, or the background
// scrubber leaked nondeterminism into the schedule.
//
// `--capture-mode spans` additionally runs an ESCAT experiment (healthy and
// under the degraded-disk fault plan) with causal tracing on, comparing the
// ordered `#span` stream and the critical-path attribution fingerprint
// byte-for-byte across two runs — and checks the streaming-only run's fold
// against the batch `obs::critical_path()` of the retained span vector, the
// fold-equals-batch proof for full-size faulted runs.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "core/experiment.hpp"
#include "core/figures.hpp"
#include "core/overload.hpp"
#include "fault/plan.hpp"

namespace {

/// Serializes every observable of a run into one comparable blob.
std::string fingerprint(const sio::core::RunResult& r) {
  std::ostringstream out;
  out << "label=" << r.label << "\n"
      << "exec_time=" << r.exec_time << "\n"
      << "events_processed=" << r.events_processed << "\n"
      << "trace_events=" << r.events.size() << "\n";
  for (const auto& name : r.file_names) out << "file=" << name << "\n";
  for (const auto& ph : r.phases) {
    out << "phase=" << ph.name << " [" << ph.t0 << "," << ph.t1 << ")\n";
  }
  for (const auto& ev : r.events) {
    out << ev.node << " " << static_cast<int>(ev.op) << " " << ev.file << " " << ev.start << "+"
        << ev.duration << " " << ev.bytes << " " << ev.offset << "\n";
  }
  for (const auto& f : r.fault_events) {
    out << "fault " << f.at << " " << sio::pablo::fault_kind_name(f.kind) << " " << f.node << " "
        << f.target << " " << f.info << "\n";
  }
  const auto& rc = r.resilience;
  out << "resilience retries=" << rc.retries << " timeouts=" << rc.timeouts
      << " failed=" << rc.failed_ops << " replayed=" << rc.replayed_ops
      << " coalesced=" << rc.coalesced_ops
      << " dropped=" << rc.dropped_messages << " degraded=" << rc.degraded_disk_ops
      << " stuck=" << rc.stuck_disk_ops << " crashes=" << rc.server_crashes << "\n";
  for (const auto& ie : r.integrity_events) {
    out << "integrity " << ie.at << " " << sio::pablo::integrity_kind_name(ie.kind) << " "
        << ie.target << " " << ie.file << " " << ie.unit << " " << ie.bytes << "\n";
  }
  const auto& ig = r.integrity;
  out << "integrity-report mode=" << ig.mode << " rotted=" << ig.rotted_units << "/"
      << ig.rotted_bytes << " vfail=" << ig.verify_fails << " rrep=" << ig.read_repairs
      << " srep=" << ig.scrub_repairs << " sweeps=" << ig.scrub_sweeps
      << " checked=" << ig.scrub_units_checked << " lost=" << ig.repairs_lost
      << " acked=" << ig.corrupt_bytes_acked << " residual=" << ig.residual_corrupt_units << "/"
      << ig.residual_corrupt_bytes << " stale=" << ig.stale_units << "\n";
  out << sio::core::render_io_share_table(r, "determinism-fingerprint");
  return out.str();
}

/// Serializes every observable of an overload-storm run into one blob: the
/// protection counters plus the complete SDDF trace (events, #fault, #qos).
std::string overload_fingerprint(const sio::core::OverloadResult& r) {
  std::ostringstream out;
  out << "label=" << r.label << "\n"
      << "exec_time=" << r.exec_time << "\n"
      << "events_processed=" << r.events_processed << "\n"
      << "offered=" << r.offered_ops << " completed=" << r.completed_ops
      << " failed=" << r.failed_ops << "\n"
      << "retries=" << r.retries << " timeouts=" << r.timeouts
      << " rejects=" << r.backpressure_rejects << "\n"
      << "admitted=" << r.admitted << " rejected=" << r.rejected << " shed=" << r.shed
      << " credits=" << r.credits << "\n"
      << "reroutes=" << r.reroutes << " opens=" << r.breaker_opens
      << " closes=" << r.breaker_closes << " holds=" << r.breaker_holds
      << " paced=" << r.paced_meta << "\n"
      << "max_pending=" << r.max_pending << " peak_cpu_queue=" << r.peak_cpu_queue << "\n"
      << "p50=" << r.p50_latency << " p99=" << r.p99_latency << "\n";
  out << r.sddf;
  return out.str();
}

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

bool check(const char* what, const std::string& a, const std::string& b, int& failures) {
  if (a == b) {
    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(a)));
    std::cout << "determinism-check: " << what << ": OK (" << a.size()
              << " fingerprint bytes, fnv1a64 " << digest << ")\n";
    return true;
  }
  ++failures;
  std::cout << "determinism-check: " << what << ": DIVERGED\n";
  // Report the first differing line to make the leak findable.
  std::istringstream sa(a), sb(b);
  std::string la, lb;
  int line = 1;
  while (std::getline(sa, la) && std::getline(sb, lb)) {
    if (la != lb) {
      std::cout << "  first divergence at fingerprint line " << line << ":\n"
                << "    run1: " << la << "\n    run2: " << lb << "\n";
      return false;
    }
    ++line;
  }
  std::cout << "  fingerprints differ in length (" << a.size() << " vs " << b.size() << ")\n";
  return false;
}

/// The causal-tracing observables: the full ordered span stream plus the
/// per-(op class, stage) critical-path attribution.
std::string span_fingerprint(const sio::core::RunResult& r) {
  std::ostringstream out;
  out << "label=" << r.label << "\n"
      << "spans=" << r.span_events.size() << "\n"
      << "critical_path_fp=" << r.critical_path.fingerprint() << "\n"
      << "roots=" << r.critical_path.roots << "\n";
  for (const auto& s : r.span_events) {
    out << s.span << " " << s.parent << " " << static_cast<int>(s.stage) << " " << s.start << "+"
        << s.duration << " op=" << s.op_id << " " << s.node << "->" << s.target << " "
        << s.bytes << " " << s.flags << " " << s.info << "\n";
  }
  out << r.critical_path_table();
  return out.str();
}

/// The streaming-capture observables: aggregate fingerprint plus the raw
/// binary-SDDF container bytes.
std::string streaming_fingerprint(const sio::core::RunResult& r) {
  std::ostringstream out;
  out << "label=" << r.label << "\n"
      << "streaming_fp=" << (r.streaming ? r.streaming->fingerprint() : 0) << "\n"
      << "streaming_events=" << (r.streaming ? r.streaming->events_folded() : 0) << "\n"
      << "binary_bytes=" << r.binary_trace.size() << "\n";
  out.write(r.binary_trace.data(), static_cast<std::streamsize>(r.binary_trace.size()));
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  int failures = 0;
  bool with_faults = false;
  bool with_overload = false;
  bool with_corruption = false;
  bool with_spans = false;
  std::uint64_t fault_seed = 0;
  std::uint64_t corruption_seed = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fault-seed" && i + 1 < argc) {
      with_faults = true;
      fault_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--overload-scenario") {
      with_overload = true;
    } else if (arg == "--corruption-seed" && i + 1 < argc) {
      with_corruption = true;
      corruption_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--capture-mode" && i + 1 < argc && std::string(argv[i + 1]) == "spans") {
      ++i;
      with_spans = true;
    } else {
      std::cout << "usage: sio_determinism_check [--fault-seed N] [--overload-scenario]"
                   " [--corruption-seed N] [--capture-mode spans]\n";
      return 2;
    }
  }

  {
    auto cfg1 = sio::apps::escat::make_config(sio::apps::escat::Version::B);
    auto cfg2 = sio::apps::escat::make_config(sio::apps::escat::Version::B);
    const auto r1 = sio::core::run_escat(std::move(cfg1));
    const auto r2 = sio::core::run_escat(std::move(cfg2));
    check("escat version B (two runs, same seed)", fingerprint(r1), fingerprint(r2), failures);
  }
  {
    auto cfg1 = sio::apps::prism::make_config(sio::apps::prism::Version::C);
    auto cfg2 = sio::apps::prism::make_config(sio::apps::prism::Version::C);
    const auto r1 = sio::core::run_prism(std::move(cfg1));
    const auto r2 = sio::core::run_prism(std::move(cfg2));
    check("prism version C (two runs, same seed)", fingerprint(r1), fingerprint(r2), failures);
  }

  {
    // Trace-pipeline axis: streaming aggregates + live binary capture must be
    // bit-reproducible across runs and invariant to the retain-vectors mode.
    const auto plan = sio::fault::FaultPlan::fault_free();
    sio::core::TraceOptions topt;
    topt.streaming = true;
    topt.binary_trace = true;
    const auto cfg = sio::apps::prism::make_config(sio::apps::prism::Version::C);
    const auto r1 = sio::core::run_prism(cfg, plan, topt);
    const auto r2 = sio::core::run_prism(cfg, plan, topt);
    check("prism version C (streaming + binary capture, two runs)", streaming_fingerprint(r1),
          streaming_fingerprint(r2), failures);
    sio::core::TraceOptions slim = topt;
    slim.retain_events = false;
    const auto r3 = sio::core::run_prism(cfg, plan, slim);
    check("prism version C (retained vs streaming-only capture)", streaming_fingerprint(r1),
          streaming_fingerprint(r3), failures);
  }

  if (with_faults) {
    const auto plan =
        sio::fault::FaultPlan::random_plan(fault_seed, sio::sim::seconds(30), /*io_nodes=*/16);
    std::cout << "determinism-check: fault plan '" << plan.name << "' ("
              << plan.injection_count() << " injection(s))\n";
    {
      const auto r1 =
          sio::core::run_escat(sio::apps::escat::make_config(sio::apps::escat::Version::B), plan);
      const auto r2 =
          sio::core::run_escat(sio::apps::escat::make_config(sio::apps::escat::Version::B), plan);
      check("escat version B (faulted, same plan)", fingerprint(r1), fingerprint(r2), failures);
    }
    {
      const auto r1 =
          sio::core::run_prism(sio::apps::prism::make_config(sio::apps::prism::Version::C), plan);
      const auto r2 =
          sio::core::run_prism(sio::apps::prism::make_config(sio::apps::prism::Version::C), plan);
      check("prism version C (faulted, same plan)", fingerprint(r1), fingerprint(r2), failures);
    }
  }

  if (with_corruption) {
    const auto plan = sio::fault::FaultPlan::bit_rot_plan(corruption_seed,
                                                          sio::pfs::IntegrityMode::kRepair);
    std::cout << "determinism-check: corruption plan '" << plan.name << "' ("
              << plan.bit_rot.size() << " rot burst(s), mode=repair)\n";
    {
      const auto r1 =
          sio::core::run_escat(sio::apps::escat::make_config(sio::apps::escat::Version::B), plan);
      const auto r2 =
          sio::core::run_escat(sio::apps::escat::make_config(sio::apps::escat::Version::B), plan);
      check("escat version B (bit-rot + scrub, same plan)", fingerprint(r1), fingerprint(r2),
            failures);
    }
    {
      const auto r1 =
          sio::core::run_prism(sio::apps::prism::make_config(sio::apps::prism::Version::C), plan);
      const auto r2 =
          sio::core::run_prism(sio::apps::prism::make_config(sio::apps::prism::Version::C), plan);
      check("prism version C (bit-rot + scrub, same plan)", fingerprint(r1), fingerprint(r2),
            failures);
    }
  }

  if (with_spans) {
    // Causal-tracing axis: the span streams and the critical-path
    // attribution must be byte-reproducible, healthy and faulted alike, and
    // the bounded streaming fold must land on the report the retained
    // vectors produce.
    sio::core::TraceOptions topt;
    topt.spans = true;
    topt.streaming = true;
    const auto cfg = sio::apps::escat::make_config(sio::apps::escat::Version::C);
    for (const auto& [what, plan] :
         {std::pair{"escat version C (spans, two runs)", sio::fault::FaultPlan::fault_free()},
          std::pair{"escat version C (spans, degraded disks, two runs)",
                    sio::fault::FaultPlan::disk_degraded(29)}}) {
      const auto r1 = sio::core::run_escat(cfg, plan, topt);
      const auto r2 = sio::core::run_escat(cfg, plan, topt);
      check(what, span_fingerprint(r1), span_fingerprint(r2), failures);
      // Streaming-only capture drops the span vector, so its fold must land
      // on the report the batch oracle computes from r1's retained spans.
      sio::core::TraceOptions slim = topt;
      slim.retain_events = false;
      const auto r3 = sio::core::run_escat(cfg, plan, slim);
      sio::core::RunResult batch;
      batch.critical_path = sio::obs::critical_path(r1.span_events);
      std::ostringstream a, b;
      a << batch.critical_path.fingerprint() << "\n" << batch.critical_path_table();
      b << r3.critical_path.fingerprint() << "\n" << r3.critical_path_table();
      check((std::string(what) + " [retained vs streaming-only fold]").c_str(), a.str(), b.str(),
            failures);
    }
  }

  if (with_overload) {
    using sio::core::OverloadScenario;
    for (const auto scenario : {OverloadScenario::kOpenStampede, OverloadScenario::kHotStripe,
                                OverloadScenario::kRetryStorm, OverloadScenario::kCkptBurst}) {
      sio::core::OverloadConfig cfg;
      cfg.scenario = scenario;
      cfg.offered_load = 4.0;
      cfg.qos = true;
      cfg.fault_seed = with_faults ? fault_seed : 0;
      const auto r1 = sio::core::run_overload(cfg);
      const auto r2 = sio::core::run_overload(cfg);
      const std::string what = std::string("overload ") +
                               sio::core::overload_scenario_name(scenario) +
                               " 4x (two runs, same seed" +
                               (with_faults ? ", extra seeded faults)" : ")");
      check(what.c_str(), overload_fingerprint(r1), overload_fingerprint(r2), failures);
    }
  }

  if (failures != 0) {
    std::cout << "determinism-check: FAILED (" << failures << " divergent experiment(s))\n";
    return 1;
  }
  std::cout << "determinism-check: all experiments bit-reproducible\n";
  return 0;
}
