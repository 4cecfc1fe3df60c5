// Workloads of the benchmark and the two ways it runs them.
//
// A workload is a fixed list of sub-runs (application, configuration, fault
// plan, trace options) plus the report a user renders from their results.
// One *pass* runs every sub-run once, one after another on this thread, and
// then renders the report.
//
// `run_core` executes a sub-run through the public `core::run_*` entry
// point.  `run_layers` executes the same inputs by driving each layer itself
// (machine, collector, file system, fault clock, application, engine), with a
// host-time span around every call; both return the same `RunResult`.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "fault/plan.hpp"
#include "spans.hpp"

namespace perfbench {

enum class App { kEscat, kPrism, kCkpt };

struct SubRun {
  std::string name;  ///< Metric suffix, e.g. "escat-co256".
  App app = App::kEscat;
  sio::apps::escat::Config escat{};
  sio::apps::prism::Config prism{};
  sio::apps::ckpt::Config ckpt{};
  sio::fault::FaultPlan plan = sio::fault::FaultPlan::fault_free();
  sio::core::TraceOptions trace{};
};

struct Workload {
  std::string name;
  std::uint64_t seed = sio::core::kDefaultSeed;
  std::vector<SubRun> subs;
};

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Builds a workload's inputs from its seed (the `core::run_*` seed and the
/// fault-plan seed).  Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Work counters read from the layers' public accessors after one run.
/// Exact: the same inputs give the same counts.
struct LayerCounts {
  std::uint64_t dispatches = 0;
  std::uint64_t net_messages = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t net_dropped = 0;
  std::uint64_t disk_ops = 0;
  sio::sim::Tick disk_busy = 0;
  std::uint64_t data_ops = 0;
  std::uint64_t meta_requests = 0;
  sio::sim::Tick meta_busy = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t peak_cpu_queue = 0;  ///< Max over servers and runs.
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t failed_ops = 0;
  std::uint64_t journal_appends = 0;
  std::uint64_t journal_redone = 0;
  std::uint64_t acked_bytes_lost = 0;
  std::uint64_t qos_admitted = 0;
  std::uint64_t qos_rejected = 0;
  std::uint64_t qos_shed = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t reroutes = 0;
  std::uint64_t fault_injections = 0;
  std::uint64_t server_crashes = 0;
  std::uint64_t spans = 0;
  std::uint64_t events_recorded = 0;
  std::uint64_t peak_bytes_retained = 0;  ///< Max over runs.

  bool operator==(const LayerCounts&) const = default;
};

/// The always-on tracing configuration: spans, streaming fold and live
/// binary SDDF, with no retained vectors.
sio::core::TraceOptions always_on();

sio::core::RunResult run_core(const SubRun& s, std::uint64_t seed);

/// Runs `s` layer by layer under span `parent` of `log`, adding the layers'
/// work counters to `counts`.
sio::core::RunResult run_layers(const SubRun& s, std::uint64_t seed, SpanLog& log, int parent,
                                LayerCounts& counts);

/// What rendering a pass's report produced.
struct Report {
  std::size_t bytes = 0;  ///< Total rendered text.
  bool ok = true;         ///< Exports that must round-trip did.
};

/// Renders the workload's report from one pass's results (in sub-run order):
///   paper       Tables 2, 3, 5 and Figures 2-9;
///   ckpt-crash  the resilience summary of each crash run against its
///               fault-free twin, plus the crash run's scrub report;
///   traced      the critical-path tables, and the siotrace export: the
///               retained run's text SDDF, checked byte for byte against its
///               decoded live binary trace.
Report render_report(const Workload& w, std::vector<sio::core::RunResult>& runs);

/// Trace fingerprint: FNV-1a over every retained record, the streaming
/// aggregates, the critical-path report and the live binary trace.
std::uint64_t trace_fnv(const sio::core::RunResult& r);

/// Simulated I/O seconds (sum of op durations), from the retained events or,
/// when the run kept none, from the streaming totals.
double sim_io_seconds(const sio::core::RunResult& r);

}  // namespace perfbench
