// Selftest for the siolint rule engine: every rule must fire on a seeded
// violation fixture and stay quiet on the matching clean variant, and the
// `siolint:allow` suppression mechanism must silence findings in place.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "siolint/rules.hpp"

namespace {

using siolint::Diagnostic;
using siolint::SourceFile;

std::vector<Diagnostic> lint_one(const std::string& path, const std::string& content) {
  return siolint::lint({SourceFile{path, content}});
}

std::set<std::string> rules_fired(const std::vector<Diagnostic>& diags) {
  std::set<std::string> out;
  for (const auto& d : diags) out.insert(d.rule);
  return out;
}

TEST(SiolintWallClock, FiresOnChronoClocksAndTimeCalls) {
  const auto diags = lint_one("src/sim/bad.cpp",
                              "auto t = std::chrono::steady_clock::now();\n"
                              "auto u = time(nullptr);\n"
                              "gettimeofday(&tv, nullptr);\n");
  ASSERT_EQ(diags.size(), 3u);
  EXPECT_EQ(diags[0].rule, "wall-clock");
  EXPECT_EQ(diags[0].line, 1);
  EXPECT_EQ(diags[1].line, 2);
  EXPECT_EQ(diags[2].line, 3);
}

TEST(SiolintWallClock, IgnoresSimTimeIdentifiers) {
  const auto diags = lint_one("src/pablo/ok.cpp",
                              "auto a = core_.total_io_time();\n"
                              "auto b = disk.busy_time();\n"
                              "auto c = net.payload_time(bytes);\n"
                              "// time(nullptr) in a comment is fine\n"
                              "auto s = std::string(\"time(\");\n");
  EXPECT_TRUE(diags.empty());
}

TEST(SiolintRawRandom, FiresOnRandAndRandomDevice) {
  const auto diags = lint_one("bench/bad.cpp",
                              "int a = rand();\n"
                              "std::random_device rd;\n"
                              "srand(42);\n");
  ASSERT_EQ(diags.size(), 3u);
  for (const auto& d : diags) EXPECT_EQ(d.rule, "raw-random");
}

TEST(SiolintRawRandom, IgnoresTheSeededRng) {
  const auto diags = lint_one("src/apps/ok.cpp",
                              "sim::Rng rng(seed);\n"
                              "auto x = rng.uniform_int(0, 7);\n"
                              "auto y = rng.exponential(mean);\n");
  EXPECT_TRUE(diags.empty());
}

TEST(SiolintGetenv, FiresOnlyInsideSrc) {
  const std::string code = "const char* home = getenv(\"HOME\");\n";
  EXPECT_EQ(rules_fired(lint_one("src/core/bad.cpp", code)),
            (std::set<std::string>{"getenv"}));
  EXPECT_TRUE(lint_one("tests/ok_test.cpp", code).empty());
}

TEST(SiolintBannedHeader, FiresOnThreadingHeadersInSrc) {
  const auto diags = lint_one("src/pfs/bad.cpp",
                              "#include <thread>\n"
                              "#include <mutex>\n"
                              "#include <vector>\n");
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].rule, "banned-header");
  EXPECT_EQ(diags[1].line, 2);
}

TEST(SiolintBannedHeader, RandomAllowedOnlyInSimRandom) {
  const std::string inc = "#include <random>\n";
  EXPECT_EQ(rules_fired(lint_one("src/machine/bad.cpp", inc)),
            (std::set<std::string>{"banned-header"}));
  EXPECT_TRUE(lint_one("src/sim/random.cpp", inc).empty());
  EXPECT_TRUE(lint_one("src/sim/random.hpp", inc).empty());
  EXPECT_TRUE(lint_one("tests/ok_test.cpp", inc).empty());  // scope is src/ only
}

TEST(SiolintDiscardedTask, FiresOnBareStatementCall) {
  const std::string decl = "sim::Task<void> drain_queue(int n);\n";
  const auto diags = siolint::lint({
      SourceFile{"src/pfs/decl.hpp", decl},
      SourceFile{"src/pfs/bad.cpp",
                 "void f(Server& s) {\n"
                 "  s.drain_queue(3);\n"
                 "}\n"},
  });
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "discarded-task");
  EXPECT_EQ(diags[0].file, "src/pfs/bad.cpp");
  EXPECT_EQ(diags[0].line, 2);
}

TEST(SiolintDiscardedTask, QuietWhenAwaitedSpawnedOrAssigned) {
  const auto diags = siolint::lint({
      SourceFile{"src/pfs/decl.hpp", "sim::Task<void> drain_queue(int n);\n"},
      SourceFile{"src/pfs/ok.cpp",
                 "sim::Task<void> g(Engine& e, Server& s) {\n"
                 "  co_await s.drain_queue(1);\n"
                 "  e.spawn(s.drain_queue(2));\n"
                 "  auto t = s.drain_queue(3);\n"
                 "  co_await std::move(t);\n"
                 "}\n"},
  });
  EXPECT_TRUE(diags.empty());
}

TEST(SiolintDiscardedTask, AmbiguousNamesAreSkipped) {
  // `pump` is declared both as a coroutine and as a plain void function;
  // a line-based pass cannot tell the overloads apart at a call site.
  const auto diags = siolint::lint({
      SourceFile{"src/pfs/decl.hpp",
                 "sim::Task<void> pump(int n);\n"
                 "void pump();\n"},
      SourceFile{"src/pfs/maybe.cpp", "void f(Pump& p) { p.pump(); }\n"},
  });
  EXPECT_TRUE(diags.empty());
}

TEST(SiolintAssertSideEffect, FiresOnMutatingConditions) {
  const auto diags = lint_one("src/sim/bad.cpp",
                              "SIO_ASSERT(count++ > 0);\n"
                              "SIO_ASSERT(live = busy);\n"
                              "SIO_ASSERT(total += delta);\n");
  ASSERT_EQ(diags.size(), 3u);
  for (const auto& d : diags) EXPECT_EQ(d.rule, "assert-side-effect");
}

TEST(SiolintAssertSideEffect, QuietOnComparisons) {
  const auto diags = lint_one("src/sim/ok.cpp",
                              "SIO_ASSERT(a == b);\n"
                              "SIO_ASSERT(a <= b && c >= d);\n"
                              "SIO_ASSERT(x != y);\n"
                              "SIO_ASSERT(queue.empty());\n");
  EXPECT_TRUE(diags.empty());
}

TEST(SiolintAssertSideEffect, HandlesMultiLineConditions) {
  const auto diags = lint_one("src/sim/bad.cpp",
                              "SIO_ASSERT(first == second &&\n"
                              "           bump++ < limit);\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "assert-side-effect");
  EXPECT_EQ(diags[0].line, 1);
}

TEST(SiolintUnorderedIter, FiresInOrderSensitiveDirsOnly) {
  const std::string code =
      "std::unordered_map<int, long> counts_;\n"
      "void dump(std::ostream& os) {\n"
      "  for (const auto& kv : counts_) os << kv.first;\n"
      "}\n";
  const auto in_pablo = lint_one("src/pablo/bad.cpp", code);
  ASSERT_EQ(in_pablo.size(), 1u);
  EXPECT_EQ(in_pablo[0].rule, "unordered-iter");
  EXPECT_EQ(in_pablo[0].line, 3);
  // The same pattern in src/pfs/ is out of the rule's scope (the server
  // cache is iterated only through its deterministic intrusive lists)...
  EXPECT_TRUE(lint_one("src/pfs/ok.cpp", code).empty());
  // ...except the journal, whose replay order is observable in recovery and
  // in the scrub report, and the checkpoint workload that drives it.
  const auto in_journal = lint_one("src/pfs/journal.cpp", code);
  ASSERT_EQ(in_journal.size(), 1u);
  EXPECT_EQ(in_journal[0].rule, "unordered-iter");
  const auto in_ckpt = lint_one("src/apps/ckpt.cpp", code);
  ASSERT_EQ(in_ckpt.size(), 1u);
  EXPECT_EQ(in_ckpt[0].rule, "unordered-iter");
  // ...and the integrity subsystem, whose scrub order and #integrity records
  // are observable in traces.
  const auto in_integrity = lint_one("src/pfs/integrity.cpp", code);
  ASSERT_EQ(in_integrity.size(), 1u);
  EXPECT_EQ(in_integrity[0].rule, "unordered-iter");
  const auto in_integrity_hdr = lint_one("src/pfs/integrity.hpp", code);
  ASSERT_EQ(in_integrity_hdr.size(), 1u);
  EXPECT_EQ(in_integrity_hdr[0].rule, "unordered-iter");
  // ...and the servers' unit table, whose walk order all of those follow.
  const auto in_table = lint_one("src/pfs/unit_table.hpp", code);
  ASSERT_EQ(in_table.size(), 1u);
  EXPECT_EQ(in_table[0].rule, "unordered-iter");
}

TEST(SiolintUnorderedIter, SeesMembersDeclaredInHeaders) {
  const auto diags = siolint::lint({
      SourceFile{"src/core/state.hpp", "std::unordered_set<std::string> labels_;\n"},
      SourceFile{"src/core/bad.cpp", "void f() { for (const auto& l : labels_) use(l); }\n"},
  });
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "unordered-iter");
}

TEST(SiolintSuppression, SameLineAllowSilences) {
  const auto diags = lint_one("src/sim/ok.cpp",
                              "int a = rand();  // siolint:allow(raw-random)\n");
  EXPECT_TRUE(diags.empty());
}

TEST(SiolintSuppression, PrecedingCommentLineAllowSilences) {
  const auto diags = lint_one("src/sim/ok.cpp",
                              "// siolint:allow(wall-clock)\n"
                              "auto t = time(nullptr);\n");
  EXPECT_TRUE(diags.empty());
}

TEST(SiolintSuppression, AllowAllSilencesEveryRule) {
  const auto diags = lint_one("src/sim/ok.cpp",
                              "auto t = time(rand());  // siolint:allow(all)\n");
  EXPECT_TRUE(diags.empty());
}

TEST(SiolintSuppression, WrongRuleNameDoesNotSilence) {
  const auto diags = lint_one("src/sim/bad.cpp",
                              "int a = rand();  // siolint:allow(wall-clock)\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "raw-random");
}

TEST(SiolintOutput, FormatAndOrdering) {
  const auto diags = siolint::lint({
      SourceFile{"src/b.cpp", "int a = rand();\n"},
      SourceFile{"src/a.cpp", "auto t = time(nullptr);\nint b = rand();\n"},
  });
  ASSERT_EQ(diags.size(), 3u);
  // Sorted by (file, line, rule).
  EXPECT_EQ(diags[0].file, "src/a.cpp");
  EXPECT_EQ(diags[0].line, 1);
  EXPECT_EQ(diags[1].file, "src/a.cpp");
  EXPECT_EQ(diags[1].line, 2);
  EXPECT_EQ(diags[2].file, "src/b.cpp");
  const std::string line = siolint::format(diags[0]);
  EXPECT_EQ(line.find("src/a.cpp:1: [wall-clock]"), 0u);
}

TEST(SiolintFaultSubsystem, OrderSensitiveScopeCoversSrcFault) {
  // The fault scheduler's iteration order reaches the trace, so src/fault/
  // is in the unordered-iter rule's scope alongside pablo and core.
  const std::string code =
      "std::unordered_map<int, long> pending_;\n"
      "void arm() { for (const auto& kv : pending_) schedule(kv.first); }\n";
  const auto diags = lint_one("src/fault/bad.cpp", code);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "unordered-iter");
}

TEST(SiolintFaultSubsystem, RepresentativeFaultCodePassesAllRules) {
  // A condensed fixture mirroring the idiom of src/fault/plan.cpp and
  // clock.cpp: seeded sim::Rng draws, engine-time scheduling, vector-ordered
  // fault iteration, and spawned record callbacks.  Every rule must
  // stay quiet — the fault subsystem introduces no nondeterminism.
  const auto diags = siolint::lint({
      SourceFile{"src/fault/fixture.hpp",
                 "#include <vector>\n"
                 "sim::Task<void> record_later(sim::Tick at, int kind);\n"
                 "struct Plan { std::vector<DiskFault> disk_failures; std::uint64_t seed; };\n"},
      SourceFile{"src/fault/fixture.cpp",
                 "#include \"fault/fixture.hpp\"\n"
                 "Plan random_plan(std::uint64_t seed, sim::Tick horizon) {\n"
                 "  sim::Rng rng(seed ^ 0xFA01D5EEDull);\n"
                 "  Plan p;\n"
                 "  p.seed = seed;\n"
                 "  const int n = rng.uniform_int(1, 3);\n"
                 "  for (int i = 0; i < n; ++i) {\n"
                 "    p.disk_failures.push_back({rng.uniform_int(0, 15), rng.jitter(horizon, 0.5)});\n"
                 "  }\n"
                 "  return p;\n"
                 "}\n"
                 "void arm(sim::Engine& engine, const Plan& plan) {\n"
                 "  SIO_ASSERT(plan.disk_failures.size() > 0);\n"
                 "  for (const auto& f : plan.disk_failures) {\n"
                 "    engine.schedule_at(f.at, [] {});\n"
                 "    engine.spawn(record_later(f.at, 0));\n"
                 "  }\n"
                 "}\n"},
  });
  EXPECT_TRUE(diags.empty());
}

TEST(SiolintQosSubsystem, OrderSensitiveScopeCoversSrcQos) {
  // Admission-queue and breaker decisions land in the SDDF trace, so any
  // hash-ordered iteration in src/qos/ would leak nondeterminism straight
  // into the two-run fingerprints; the scope covers it like pablo and core.
  const std::string code =
      "std::unordered_map<int, long> classes_;\n"
      "void pump() { for (const auto& kv : classes_) grant(kv.first); }\n";
  const auto diags = lint_one("src/qos/bad.cpp", code);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "unordered-iter");
  EXPECT_EQ(diags[0].line, 2);
}

TEST(SiolintQosSubsystem, RepresentativeQosCodePassesAllRules) {
  // A condensed fixture mirroring src/qos/qos.cpp idiom: std::map-keyed DRR
  // queues, a FIFO deque of active keys, and engine-posted grants.  Every
  // rule must stay quiet.
  const auto diags = siolint::lint({
      SourceFile{"src/qos/fixture.hpp",
                 "#include <deque>\n"
                 "#include <map>\n"
                 "using ClassKey = std::pair<int, int>;\n"
                 "struct ClassQueue { std::deque<int> q; long deficit = 0; };\n"},
      SourceFile{"src/qos/fixture.cpp",
                 "#include \"qos/fixture.hpp\"\n"
                 "std::map<ClassKey, ClassQueue> classes_;\n"
                 "std::deque<ClassKey> active_;\n"
                 "void pump(sim::Engine& engine) {\n"
                 "  while (!active_.empty()) {\n"
                 "    const ClassKey key = active_.front();\n"
                 "    active_.pop_front();\n"
                 "    for (const auto& kv : classes_) schedule(kv.first);\n"
                 "    engine.post(classes_[key].q.front());\n"
                 "  }\n"
                 "}\n"},
  });
  EXPECT_TRUE(diags.empty());
}

TEST(SiolintStdFunction, FiresOnlyInSrcSim) {
  const std::string code =
      "#include <functional>\n"
      "void defer(std::function<void()> fn);\n"
      "std::vector<std::function<int(int)>> hooks_;\n";
  const auto in_sim = lint_one("src/sim/bad.hpp", code);
  ASSERT_EQ(in_sim.size(), 2u);
  EXPECT_EQ(in_sim[0].rule, "std-function");
  EXPECT_EQ(in_sim[0].line, 2);
  EXPECT_EQ(in_sim[1].line, 3);
  // Outside the engine hot path std::function is fine (ParallelRunner jobs,
  // bench drivers, tests).
  EXPECT_TRUE(lint_one("src/core/ok.hpp", code).empty());
  EXPECT_TRUE(lint_one("bench/ok.cpp", code).empty());
}

TEST(SiolintStdFunction, QuietOnInlineCallbackAndComments) {
  const auto diags = lint_one("src/sim/ok.hpp",
                              "// std::function<void()> would allocate here\n"
                              "sim::InlineCallback cb;\n"
                              "auto s = std::string(\"std::function<\");\n");
  EXPECT_TRUE(diags.empty());
}

TEST(SiolintStdFunction, AllowMarkerSilences) {
  const auto diags = lint_one("src/sim/ok.hpp",
                              "// siolint:allow(std-function)\n"
                              "void defer(std::function<void()> fn);\n");
  EXPECT_TRUE(diags.empty());
}

TEST(SiolintUnorderedIter, ScopeCoversSrcSim) {
  // Engine bookkeeping order reaches dispatch order, so src/sim/ is in the
  // unordered-iter rule's scope too.
  const std::string code =
      "std::unordered_map<void*, int> waiters_;\n"
      "void wake() { for (const auto& kv : waiters_) resume(kv.first); }\n";
  const auto diags = lint_one("src/sim/bad.cpp", code);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "unordered-iter");
}

TEST(SiolintUnorderedIter, ScopeCoversSrcMc) {
  // Exploration results feed schedule strings and counterexamples; a
  // hash-ordered iteration in src/mc/ would make replays non-reproducible.
  const std::string code =
      "std::unordered_set<std::uint64_t> visited_;\n"
      "void dump() { for (const auto& v : visited_) print(v); }\n";
  const auto diags = lint_one("src/mc/bad.cpp", code);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "unordered-iter");
  EXPECT_EQ(diags[0].line, 2);
}

TEST(SiolintTraceVectorGrowth, FiresOnEventVectorAppendsInPablo) {
  const std::string code =
      "std::vector<TraceEvent> events_;\n"
      "std::vector<FaultEvent> faults_;\n"
      "void record(const TraceEvent& ev, const FaultEvent& f) {\n"
      "  events_.push_back(ev);\n"
      "  faults_.emplace_back(f);\n"
      "}\n";
  const auto diags = lint_one("src/pablo/bad.cpp", code);
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].rule, "trace-vector-growth");
  EXPECT_EQ(diags[0].line, 4);
  EXPECT_EQ(diags[1].line, 5);
  // Outside src/pablo/ the rule does not apply (tests and benches
  // materialize traces on purpose).
  EXPECT_TRUE(lint_one("src/core/ok.cpp", code).empty());
  EXPECT_TRUE(lint_one("bench/ok.cpp", code).empty());
}

TEST(SiolintTraceVectorGrowth, SeesMembersDeclaredInHeaders) {
  // Qualified element types and dotted receivers must still match.
  const auto diags = siolint::lint({
      SourceFile{"src/pablo/decl.hpp", "struct TraceFile { std::vector<pablo::QosEvent> qos; };\n"},
      SourceFile{"src/pablo/bad.cpp", "void f(TraceFile& tf, QosEvent q) { tf.qos.push_back(q); }\n"},
  });
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "trace-vector-growth");
  EXPECT_EQ(diags[0].file, "src/pablo/bad.cpp");
}

TEST(SiolintTraceVectorGrowth, FiresOnIntegrityEventVectors) {
  const auto diags = lint_one("src/pablo/bad.cpp",
                              "std::vector<IntegrityEvent> integrity_;\n"
                              "void record(const IntegrityEvent& g) {\n"
                              "  integrity_.push_back(g);\n"
                              "}\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "trace-vector-growth");
  EXPECT_EQ(diags[0].line, 3);
}

TEST(SiolintTraceVectorGrowth, FiresOnAppendsThroughMemberPointers) {
  // The schema-driven record loops reach a TraceFile vector through a
  // pointer to member, so no vector name appears on the line.
  const auto diags = lint_one("src/pablo/bad.cpp",
                              "template <class R> void keep(TraceFile& tf, const R& r) {\n"
                              "  (tf.*RecordSchema<R>::trace).push_back(r);\n"
                              "}\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "trace-vector-growth");
  EXPECT_EQ(diags[0].line, 2);
}

TEST(SiolintTraceVectorGrowth, QuietOnBoundedVectorsAndParameters) {
  const auto diags = lint_one(
      "src/pablo/ok.cpp",
      "std::vector<TimeWindowSummary> windows_;\n"
      "void note(const TimeWindowSummary& w) { windows_.push_back(w); }\n"
      // A reference parameter is not an owning declaration; the local
      // summary vector is not an event container.
      "void scan(const std::vector<TraceEvent>& events) {\n"
      "  std::vector<std::uint64_t> sizes;\n"
      "  for (const auto& ev : events) sizes.push_back(ev.bytes);\n"
      "}\n");
  EXPECT_TRUE(diags.empty());
}

TEST(SiolintTraceVectorGrowth, AllowMarkerSilences) {
  const auto diags = lint_one(
      "src/pablo/ok.cpp",
      "std::vector<LossEvent> losses_;\n"
      "void record(const LossEvent& l) {\n"
      "  losses_.push_back(l);  // siolint:allow(trace-vector-growth) gated\n"
      "}\n");
  EXPECT_TRUE(diags.empty());
}

TEST(SiolintDetachedCoroutine, FiresOnRawResumeAndDestroyOutsideSrcSim) {
  const std::string code =
      "void kick(std::coroutine_handle<> h) {\n"
      "  h.resume();\n"
      "  h.destroy();\n"
      "}\n";
  const auto diags = lint_one("src/mc/bad.cpp", code);
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].rule, "detached-coroutine");
  EXPECT_EQ(diags[0].line, 2);
  EXPECT_EQ(diags[1].line, 3);
  // src/sim/ owns the dispatch path: raw resumes are its job.
  EXPECT_TRUE(lint_one("src/sim/ok.cpp", code).empty());
  // Outside src/ the rule does not apply (tests drive handles directly).
  EXPECT_TRUE(lint_one("tests/ok_test.cpp", code).empty());
}

TEST(SiolintDetachedCoroutine, QuietOnEnginePostAndNonHandleCalls) {
  const auto diags = lint_one("src/mc/ok.cpp",
                              "void wake(sim::Engine& e, std::coroutine_handle<> h) {\n"
                              "  e.post(h);\n"
                              "  resume(h);\n"
                              "  job.resume(from_checkpoint);\n"
                              "}\n");
  EXPECT_TRUE(diags.empty());
}

TEST(SiolintDetachedCoroutine, AllowMarkerSilences) {
  const auto diags = lint_one("src/mc/ok.cpp",
                              "// siolint:allow(detached-coroutine)\n"
                              "h.resume();\n");
  EXPECT_TRUE(diags.empty());
}

TEST(SiolintRuleTable, ListsEveryRuleOnce) {
  std::set<std::string> ids;
  for (const auto& r : siolint::rule_table()) ids.insert(std::string(r.id));
  EXPECT_EQ(ids, (std::set<std::string>{"wall-clock", "raw-random", "getenv", "banned-header",
                                        "discarded-task", "assert-side-effect",
                                        "unordered-iter", "std-function",
                                        "detached-coroutine", "trace-vector-growth"}));
}

}  // namespace
