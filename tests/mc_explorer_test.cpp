// Unit tests for the schedule-exploration core (src/mc): controller branch
// recording, exhaustive DFS, replay determinism, divergence handling,
// convergence pruning, random sampling, and ddmin minimization.  The tests
// use tiny synthetic scenarios with exactly known choice trees, plus the
// registry scenarios as integration cross-checks (the retry, wal and
// integrity ones drive the shipped Pfs); the full acceptance sweep over
// every bundled configuration lives in tools/simmc (`simmc ctest`).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mc/explorer.hpp"
#include "mc/scenarios.hpp"
#include "sim/task.hpp"

namespace sio::mc {
namespace {

// Two tasks appending their id; the only branch point is which start-resume
// dispatches first (one same-tick ready pair -> choice tree of exactly two
// schedules: "-" and "1").  The "bug" flavor declares B-before-A illegal.
class OrderScenario : public Scenario {
 public:
  explicit OrderScenario(bool b_first_is_bug) : bug_(b_first_is_bug) {}

  sim::Engine& engine() override { return engine_; }

  void start(Controller&) override {
    engine_.spawn(runner(0));
    engine_.spawn(runner(1));
  }

  void check() override {
    if (bug_ && !log_.empty() && log_.front() == 1) {
      throw InvariantViolation("task 1 overtook task 0");
    }
  }

  void finish() override {
    if (log_.size() != 2) throw InvariantViolation("a task never ran");
  }

 private:
  sim::Task<void> runner(int id) {
    log_.push_back(id);
    co_return;
  }

  sim::Engine engine_;
  bool bug_;
  std::vector<int> log_;
};

// One task, one explicit choose(3) decision; choice 2 trips the invariant.
// Exercises scenario-surfaced decision points without any scheduler branch.
class ChooseScenario : public Scenario {
 public:
  sim::Engine& engine() override { return engine_; }

  void start(Controller& ctl) override { engine_.spawn(runner(engine_, ctl)); }

  void check() override {
    if (bad_) throw InvariantViolation("forbidden choice reached");
  }

 private:
  sim::Task<void> runner(sim::Engine& engine, Controller& ctl) {
    co_await engine.delay(1);
    if (ctl.choose(3) == 2) bad_ = true;
    co_await engine.delay(1);
  }

  sim::Engine engine_;
  bool bad_ = false;
};

ScenarioFactory order_factory(bool bug) {
  return [bug] { return std::make_unique<OrderScenario>(bug); };
}

ScenarioFactory choose_factory() {
  return [] { return std::make_unique<ChooseScenario>(); };
}

TEST(Schedule, ToStringParseRoundTrip) {
  Schedule s;
  s.choices = {0, 2, 1};
  EXPECT_EQ(s.to_string(), "0.2.1");
  EXPECT_EQ(Schedule::parse("0.2.1"), s);
  EXPECT_EQ(Schedule{}.to_string(), "-");
  EXPECT_EQ(Schedule::parse("-"), Schedule{});
  EXPECT_FALSE(Schedule::parse("0..1").has_value());
  EXPECT_FALSE(Schedule::parse("x").has_value());
}

TEST(Explorer, ExhaustsTheTwoScheduleOrderTree) {
  Explorer ex(order_factory(/*b_first_is_bug=*/false));
  const ExploreResult res = ex.explore();
  EXPECT_TRUE(res.exhausted);
  EXPECT_EQ(res.runs, 2u);
  EXPECT_EQ(res.distinct, 2u);
  EXPECT_EQ(res.violations, 0u);
  EXPECT_EQ(res.max_branch_depth, 1u);
}

TEST(Explorer, FindsTheOrderBugOnTheSiblingSchedule) {
  Explorer ex(order_factory(/*b_first_is_bug=*/true));
  const ExploreResult res = ex.explore();
  EXPECT_TRUE(res.exhausted);
  EXPECT_EQ(res.violations, 1u);
  ASSERT_EQ(res.failures.size(), 1u);
  EXPECT_EQ(res.failures.front().schedule.to_string(), "1");
  EXPECT_NE(res.failures.front().message.find("overtook"), std::string::npos);
}

TEST(Explorer, ChooseBranchesEnumerateEveryAlternative) {
  Explorer ex(choose_factory());
  const ExploreResult res = ex.explore();
  EXPECT_TRUE(res.exhausted);
  EXPECT_EQ(res.runs, 3u);  // choose(3): tails "-", "1", "2"
  EXPECT_EQ(res.violations, 1u);
  ASSERT_EQ(res.failures.size(), 1u);
  EXPECT_EQ(res.failures.front().schedule.to_string(), "2");
}

TEST(Explorer, ReplayIsByteIdentical) {
  Explorer ex(choose_factory());
  Schedule bad;
  bad.choices = {2};
  RunRecord rec;
  ASSERT_TRUE(ex.replays_identically(bad, &rec));
  EXPECT_TRUE(rec.violation);
  EXPECT_EQ(rec.schedule, bad);
  const RunRecord again = ex.replay(bad);
  EXPECT_EQ(again.trace_hash, rec.trace_hash);
}

TEST(Explorer, OutOfRangeForcedChoiceDiverges) {
  Explorer ex(choose_factory());
  Schedule wild;
  wild.choices = {7};  // arity is 3
  const RunRecord rec = ex.replay(wild);
  EXPECT_TRUE(rec.diverged);
  EXPECT_FALSE(rec.violation);
  EXPECT_FALSE(rec.message.empty());
}

TEST(Explorer, MinimizeDropsIrrelevantChoicesAndReproduces) {
  // In the choose scenario only the value 2 matters; a padded schedule with
  // trailing defaults must shrink to exactly "2".
  Explorer ex(choose_factory());
  Schedule padded;
  padded.choices = {2, 0, 0};
  const Schedule min = ex.minimize(padded);
  EXPECT_EQ(min.to_string(), "2");
  RunRecord rec;
  EXPECT_TRUE(ex.replays_identically(min, &rec));
  EXPECT_TRUE(rec.violation);
}

TEST(Explorer, MinimizeReturnsInputWhenNothingReproduces) {
  Explorer ex(choose_factory());
  Schedule clean;
  clean.choices = {1};
  EXPECT_EQ(ex.minimize(clean), clean);
}

TEST(Explorer, SamplingIsSeedDeterministic) {
  ExploreOptions opt;
  Explorer a(order_factory(true), opt);
  Explorer b(order_factory(true), opt);
  const ExploreResult ra = a.sample(32, /*seed=*/7);
  const ExploreResult rb = b.sample(32, /*seed=*/7);
  EXPECT_EQ(ra.runs, 32u);
  EXPECT_EQ(ra.distinct, rb.distinct);
  EXPECT_EQ(ra.violations, rb.violations);
  EXPECT_LE(ra.distinct, 2u);  // the whole tree has two schedules
  EXPECT_GE(ra.violations, 1u);  // 32 coin flips: both orders show up
}

TEST(Explorer, PruningPreservesExhaustionAndVerdictOnTokenScenario) {
  // Registry cross-check: the token.meta proof config (the real metadata
  // server's grant protocol) must exhaust cleanly with pruning both off and
  // on, and pruning must never *add* runs.
  ExploreOptions full;
  full.prune = false;
  Explorer unpruned(make_token_meta_scenario(2, 2), full);
  const ExploreResult r_full = unpruned.explore();
  EXPECT_TRUE(r_full.exhausted);
  EXPECT_EQ(r_full.violations, 0u);

  ExploreOptions pruned_opt;
  pruned_opt.prune = true;
  Explorer pruned(make_token_meta_scenario(2, 2), pruned_opt);
  const ExploreResult r_pruned = pruned.explore();
  EXPECT_TRUE(r_pruned.exhausted);
  EXPECT_EQ(r_pruned.violations, 0u);
  EXPECT_LT(r_pruned.runs, r_full.runs);
  EXPECT_GT(r_pruned.runs, 1u);
}

TEST(Explorer, StopAtFirstViolationHaltsEarly) {
  ExploreOptions opt;
  opt.stop_at_first_violation = true;
  Explorer ex(choose_factory(), opt);
  const ExploreResult res = ex.explore();
  EXPECT_EQ(res.violations, 1u);
  EXPECT_FALSE(res.exhausted);
  EXPECT_EQ(res.runs, 3u);  // "-", "1", then the violating "2"
}

TEST(Registry, BundledScenariosResolveByName) {
  EXPECT_GE(scenario_registry().size(), 10u);
  const NamedScenario* token = find_scenario("token.meta");
  ASSERT_NE(token, nullptr);
  EXPECT_TRUE(token->expect_clean);
  EXPECT_EQ(find_scenario("token"), nullptr);  // the distilled mutex copy is gone
  const NamedScenario* unsafe = find_scenario("retry.unsafe");
  ASSERT_NE(unsafe, nullptr);
  EXPECT_FALSE(unsafe->expect_clean);
  EXPECT_TRUE(unsafe->known_defect.empty());
  const NamedScenario* wal_full = find_scenario("wal.full");
  ASSERT_NE(wal_full, nullptr);
  EXPECT_TRUE(wal_full->expect_clean);
  const NamedScenario* wal_off = find_scenario("wal.off");
  ASSERT_NE(wal_off, nullptr);
  EXPECT_FALSE(wal_off->expect_clean);
  const NamedScenario* repair = find_scenario("integrity.repair");
  ASSERT_NE(repair, nullptr);
  EXPECT_FALSE(repair->expect_clean);
  EXPECT_FALSE(repair->known_defect.empty());
  EXPECT_EQ(find_scenario("no-such-config"), nullptr);
}

void expect_proof(const ScenarioFactory& cfg) {
  Explorer proof(cfg);
  const ExploreResult r = proof.explore();
  EXPECT_TRUE(r.exhausted);
  EXPECT_EQ(r.violations, 0u);
  for (const auto& [msg, runs] : r.diagnostics) ADD_FAILURE() << runs << " runs: " << msg;
}

// Exploration finds a violation whose minimized schedule replays
// byte-identically with `what` in its diagnostic.
void expect_minimized_counterexample(Explorer& ex, const ExploreResult& r,
                                     const std::string& what) {
  ASSERT_GT(r.violations, 0u);
  ASSERT_FALSE(r.failures.empty());
  const Schedule min = ex.minimize(r.failures.front().schedule);
  EXPECT_LE(min.size(), r.failures.front().schedule.size());
  RunRecord rec;
  EXPECT_TRUE(ex.replays_identically(min, &rec));
  EXPECT_TRUE(rec.violation);
  EXPECT_NE(rec.message.find(what), std::string::npos) << rec.message;
}

// A bug config, differing from its proof config in one shipped switch.
void expect_counterexample(const ScenarioFactory& bug_cfg, const std::string& what) {
  Explorer bug(bug_cfg);
  const ExploreResult r = bug.explore();
  EXPECT_TRUE(r.exhausted);
  expect_minimized_counterexample(bug, r, what);
}

// A known-defect config still finds its defect, and nothing else: every
// violating run's diagnostic names the known defect.
void expect_only_known_defect(const std::string& name) {
  const NamedScenario* sc = find_scenario(name);
  ASSERT_NE(sc, nullptr);
  ASSERT_FALSE(sc->known_defect.empty());
  Explorer ex(sc->factory);
  const ExploreResult r =
      sc->sample_runs == 0 ? ex.explore() : ex.sample(sc->sample_runs, /*seed=*/1);
  EXPECT_TRUE(r.exhausted || sc->sample_runs != 0);
  expect_minimized_counterexample(ex, r, sc->known_defect);
  std::uint64_t counted = 0;
  for (const auto& [msg, runs] : r.diagnostics) {
    counted += runs;
    EXPECT_NE(msg.find(sc->known_defect), std::string::npos) << runs << " runs: " << msg;
  }
  EXPECT_EQ(counted, r.violations);
}

TEST(Registry, WalJournalProofExhaustsAndUnjournaledLoses) {
  // The journaling contract on the shipped IoServer: with JournalMode::kFull
  // every placement of a torn crash across three buffered writes — and of a
  // second crash mid recovery — keeps acknowledged writes recoverable and
  // redoes each record at most once.  JournalMode::kOff must yield the
  // write-behind loss counterexample.
  expect_proof(make_wal_scenario(/*journal=*/true));
  expect_counterexample(make_wal_scenario(/*journal=*/false), "unrecoverable");
}

TEST(Registry, IntegrityProofExhaustsAndUnverifiedAcksCorrupt) {
  // The end-to-end integrity contract on the shipped IoServer: with
  // IntegrityMode::kRepair every placement of the bit-rot burst and of a
  // spindle failure across the read phase ends with no corrupt byte
  // acknowledged, each unit regenerated at most once, and nothing latent
  // after scrubbing.  The only violation is the open defect that a
  // read-repair can start on an array whose spindle failed after the
  // detection.  IntegrityMode::kOff must yield the silent corrupt-acknowledge
  // counterexample.
  expect_only_known_defect("integrity.repair");
  expect_counterexample(make_integrity_scenario(/*integrity=*/false), "acknowledged");
}

TEST(Registry, RetryProofExhaustsAndUntrackedReplaysApplyTwice) {
  // Idempotent replay on the shipped Pfs: with replay tracking every
  // placement of one crash under a 5 ms op deadline applies each op once,
  // however the re-driven attempts interleave at restart.  With
  // IoServer::set_replay_tracking(false) a re-driven attempt is applied
  // again.
  expect_proof(make_retry_scenario(/*replay_tracking=*/true, SecondCrash::kNone));
  expect_counterexample(make_retry_scenario(/*replay_tracking=*/false, SecondCrash::kNone),
                        "applied more than once");
}

TEST(Registry, RetrySecondCrashInRecoveryIsSafeAfterRestartReapplies) {
  // One write with replay tracking on: a second crash inside the recovery
  // pass still applies the op once, but a second crash after the restart
  // wipes the completed-id set and a late retry applies the op again — an
  // open defect of the shipped server, and the only violation retry.recrash
  // may show.
  expect_proof(make_retry_scenario(/*replay_tracking=*/true, SecondCrash::kInRecovery));
  expect_only_known_defect("retry.recrash");
}

}  // namespace
}  // namespace sio::mc
