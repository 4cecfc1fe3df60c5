// siolint — determinism linter for the simulation codebase.
//
// A line-oriented static-analysis pass with a fixed rule table.  It is not a
// compiler: rules are textual heuristics tuned to this repository's idiom,
// chosen so that every diagnostic is actionable and false positives can be
// silenced in place with `// siolint:allow(<rule>)`.
//
// Rules (ids are stable; see `rule_table()` for scope details):
//   wall-clock        banned wall-clock APIs (std::chrono clocks, time(), ...)
//   raw-random        banned nondeterministic randomness (rand, random_device)
//   getenv            environment access inside simulation code (src/)
//   banned-header     <thread>/<mutex>/<random>/... includes in the
//                     single-threaded engine (src/, <random> allowed only in
//                     src/sim/random.*)
//   discarded-task    a Task<T>-returning call used as a bare statement
//                     (lost coroutine: never co_awaited, never spawned)
//   assert-side-effect SIO_ASSERT whose condition contains ++/--/assignment
//   unordered-iter    range-for over a std::unordered_{map,set} in
//                     src/pablo/, src/core/, or src/fault/, where iteration
//                     order could leak into a report or a fault schedule
//   trace-vector-growth  push_back/emplace_back on a vector of trace records
//                     (TraceEvent/FaultEvent/QosEvent/LossEvent/
//                     IntegrityEvent/SpanEvent), by name or through a
//                     TraceFile member pointer, in src/pablo/ or src/obs/,
//                     which grows without bound with trace length and
//                     defeats the streaming analytics path
//
// Suppression: `// siolint:allow(rule)` on the offending line, or on a
// comment-only line immediately above it.  `siolint:allow(all)` silences
// every rule for that line.

#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace siolint {

struct Diagnostic {
  std::string file;
  int line = 0;          // 1-based
  std::string rule;      // stable rule id
  std::string message;
};

struct RuleInfo {
  std::string_view id;
  std::string_view summary;
};

/// The fixed rule table (for --list-rules and docs).
const std::vector<RuleInfo>& rule_table();

/// A source file presented to the linter.  `path` should be repo-relative
/// (e.g. "src/pfs/pfs.cpp"): rule scoping keys off path prefixes.
struct SourceFile {
  std::string path;
  std::string content;
};

/// Lints a set of files as one program: cross-file facts (the set of
/// Task-returning function names, the set of unordered-container member
/// names) are collected over all inputs before per-line rules run.
/// Diagnostics are sorted by (file, line, rule).
std::vector<Diagnostic> lint(const std::vector<SourceFile>& files);

/// Formats one diagnostic as "file:line: [rule] message".
std::string format(const Diagnostic& d);

}  // namespace siolint
