// Schedule-space exploration over a Scenario.
//
// Every run rebuilds the scenario — and the engine it owns — from scratch and
// drives it through one interleaving (a Controller with a forced choice prefix).
// On top of that single-run primitive the explorer offers:
//
//   * explore()  — exhaustive DFS over the choice tree, CHESS-style: run
//     the current prefix with a first-alternative tail, record the arity of
//     every branch point met, then backtrack to the rightmost branch with
//     an untried sibling.  Every run is a distinct interleaving.  With
//     pruning on, a branch point whose (state fingerprint, depth) was
//     already seen ends its run early: interleavings of independent events
//     converge to the same state at the same depth, and the shared
//     continuation is explored once (the state-hash analogue of a
//     sleep-set/partial-order reduction).  The subtree is still covered —
//     by the first schedule that reached the state, whose sibling
//     expansion continues past it.
//   * sample()   — seeded random tails for configurations whose tree is too
//     big to enumerate; distinct schedules are counted exactly.
//   * minimize() — delta-debugging of a violating schedule: greedy tail
//     truncation plus ddmin-style chunk zeroing of non-default choices and
//     value lowering, until 1-minimal.  The result replays the violation
//     byte-identically (replays_identically verifies).
//
// Soundness note on pruning: a fingerprint that fails to cover part of the
// observable state can merge distinct states and hide interleavings.  The
// bare-engine bundled scenarios fold in every per-task progress counter and
// all protocol state; the ones driving a real Pfs return 0 and are never
// pruned.  For a belt-and-braces proof run, pass prune = false.

#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "mc/scenario.hpp"
#include "mc/schedule.hpp"

namespace sio::mc {

struct ExploreOptions {
  /// Cap on executed runs for explore(); 0 = unlimited (use only on
  /// configurations known to be tiny).
  std::uint64_t max_runs = 100000;
  /// Per-run decision budget (guards against non-terminating scenarios).
  std::uint64_t max_decisions = 1u << 20;
  /// Convergence pruning via Scenario::fingerprint() (explore() only).
  bool prune = true;
  /// Stop explore() at the first violating schedule.
  bool stop_at_first_violation = false;
};

/// Outcome of a single controlled run.
struct RunRecord {
  Schedule schedule;                  ///< branch choices actually taken
  std::vector<std::uint32_t> arities; ///< alternatives at each branch point
  bool violation = false;
  bool pruned = false;    ///< converged into an already-visited state
  bool diverged = false;  ///< forced prefix no longer matched the program
  std::string message;    ///< violation / sanitizer diagnostic
  std::uint64_t events = 0;
  std::uint64_t decisions = 0;
  /// Hash of the full decision trace + outcome: two runs of the same
  /// schedule replay byte-identically iff their trace hashes (and messages)
  /// are equal.
  std::uint64_t trace_hash = 0;
};

struct ExploreResult {
  std::uint64_t runs = 0;       ///< schedules executed (each one distinct)
  std::uint64_t complete = 0;   ///< ran to completion (finish() checked)
  std::uint64_t pruned = 0;     ///< ended early at a visited state
  std::uint64_t violations = 0;
  std::uint64_t distinct = 0;   ///< distinct schedules (== runs for explore)
  std::uint64_t total_events = 0;
  std::size_t max_branch_depth = 0;
  bool exhausted = false;       ///< the whole choice tree was enumerated
  std::vector<RunRecord> failures;  ///< first violating runs (capped)
  /// Every violating run's diagnostic, with the number of runs that gave it.
  std::map<std::string, std::uint64_t> diagnostics;
};

class Explorer {
 public:
  struct RunOptions {
    Schedule prefix;
    bool random_tail = false;
    std::uint64_t seed = 0;
    bool allow_prune = false;
  };

  Explorer(ScenarioFactory factory, ExploreOptions opt = {});

  /// One controlled run; never throws on scenario misbehavior (violations,
  /// divergence, and prunes land in the record).
  RunRecord run(const RunOptions& ropt);

  /// Exhaustive DFS over the choice tree (bounded by opt.max_runs).
  ExploreResult explore();

  /// `runs` seeded random-tail runs; `distinct` counts unique schedules.
  ExploreResult sample(std::uint64_t runs, std::uint64_t seed);

  /// Replays `s` exactly (forced prefix + first-alternative tail).
  RunRecord replay(const Schedule& s);

  /// Shrinks a violating schedule to a 1-minimal counterexample that still
  /// violates; returns `bad` unchanged if it does not reproduce.
  Schedule minimize(const Schedule& bad);

  /// True iff two fresh replays of `s` produce identical decision traces,
  /// outcomes, and diagnostics.  On success `out` (if non-null) receives
  /// the record.
  bool replays_identically(const Schedule& s, RunRecord* out = nullptr);

 private:
  ScenarioFactory factory_;
  ExploreOptions opt_;
  std::set<std::uint64_t> visited_;  // branch-point state fingerprints

  static void trim_trailing_zeros(Schedule& s);
};

}  // namespace sio::mc
