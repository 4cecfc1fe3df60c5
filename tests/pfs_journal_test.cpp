// Crash-consistency tests: the write-ahead journal, the acked-vs-durable
// unit ledger, and the IoServer recovery protocol — torn write-backs,
// journal redo after a crash, double crashes (both back-to-back outages and
// a crash landing mid recovery), and the parked-client wake order.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "machine/disk.hpp"
#include "pfs/content.hpp"
#include "pfs/journal.hpp"
#include "pfs/server.hpp"
#include "sim/task.hpp"

namespace sio::pfs {
namespace {

constexpr std::uint64_t kUnit = 64 * 1024;

// --------------------------------------------------------------- journal ---

TEST(Journal, OffModeLogsNothing) {
  UnitTable t;
  Journal j(t, JournalMode::kOff);
  EXPECT_FALSE(j.enabled());
  EXPECT_EQ(j.append(1, 0, 4096), 0u);
  EXPECT_FALSE(j.has_unapplied());
  EXPECT_EQ(j.counters().appends, 0u);
  EXPECT_EQ(j.counters().bytes_logged, 0u);
}

TEST(Journal, MetaLogsIntentOnlyFullLogsPayloadToo) {
  UnitTable meta_units;
  Journal meta(meta_units, JournalMode::kMeta);
  EXPECT_EQ(meta.append(1, 0, 4096), Journal::kIntentBytes);
  UnitTable full_units;
  Journal full(full_units, JournalMode::kFull);
  EXPECT_EQ(full.append(1, 0, 4096), Journal::kIntentBytes + 4096);
}

TEST(Journal, AppendsAggregatePerUnitAndUnappliedIsLogOrdered) {
  UnitTable t;
  Journal j(t, JournalMode::kFull);
  j.append(/*file=*/7, /*unit=*/3, 1024);
  j.append(/*file=*/7, /*unit=*/9, 1024);
  j.append(/*file=*/7, /*unit=*/3, 1024);  // folds into unit 3's record
  const auto recs = j.unapplied();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].unit, 3u);  // first-append (lsn) order, not key order
  EXPECT_EQ(recs[0].bytes, 2048u);
  EXPECT_EQ(recs[0].ops, 2u);
  EXPECT_EQ(recs[1].unit, 9u);
  EXPECT_EQ(j.counters().appends, 3u);
}

TEST(Journal, WriteBackTrimsAndRecoveryRetiresRecords) {
  UnitTable t;
  Journal j(t, JournalMode::kFull);
  j.append(1, 0, 512);
  j.append(1, 1, 512);
  j.append(1, 2, 512);
  j.mark_applied(1, 0);  // completed write-back
  EXPECT_EQ(j.counters().trimmed, 1u);
  ASSERT_EQ(j.unapplied().size(), 2u);
  j.note_redone(1, 1);
  j.note_detected_lost(1, 2);
  EXPECT_FALSE(j.has_unapplied());
  EXPECT_EQ(j.counters().redone, 1u);
  EXPECT_EQ(j.counters().detected_lost, 1u);
  j.mark_applied(1, 5);  // unknown unit: no-op
  EXPECT_EQ(j.counters().trimmed, 1u);
}

// ---------------------------------------------------------------- ledger ---

TEST(UnitLedger, AckIsIdempotentForReplayedDuplicates) {
  UnitTable t;
  UnitLedger l(t);
  l.ack(1, 0, 0, 2048, /*op_id=*/42);
  const auto once = l.status(1, 0);
  l.ack(1, 0, 0, 2048, /*op_id=*/42);  // crash-replayed duplicate
  const auto twice = l.status(1, 0);
  EXPECT_EQ(once.acked_bytes, 2048u);
  EXPECT_EQ(twice.acked_bytes, once.acked_bytes);
  EXPECT_EQ(twice.acked_csum, once.acked_csum);
}

TEST(UnitLedger, CrashedResidencyNeverBecomesDurable) {
  UnitTable t;
  UnitLedger l(t);
  l.ack(1, 0, 0, 2048, 1);
  l.drop_residency();         // crash: the cache copy is gone
  l.ack(1, 0, 4096, 2048, 2);  // post-restart write into the same unit
  l.durable(1, 0);            // write-back of what is resident *now*
  const auto s = l.status(1, 0);
  EXPECT_EQ(s.acked_bytes, 4096u);
  EXPECT_EQ(s.durable_bytes, 2048u);  // only the post-crash span
  EXPECT_EQ(l.acked_undurable_bytes(1, 0), 2048u);
}

TEST(UnitLedger, TornWriteBackCoversOnlyThePrefix) {
  UnitTable t;
  UnitLedger l(t);
  l.ack(1, 0, 0, 8192, 1);
  l.torn(1, 0, /*prefix=*/4096);
  const auto s = l.status(1, 0);
  EXPECT_TRUE(s.torn);
  EXPECT_EQ(s.durable_bytes, 4096u);
  EXPECT_EQ(l.acked_undurable_bytes(1, 0), 4096u);
}

TEST(UnitLedger, RedoneRestoresWholeAckedSetAndRepairsTear) {
  UnitTable t;
  UnitLedger l(t);
  l.ack(1, 0, 0, 8192, 1);
  l.torn(1, 0, 4096);
  l.drop_residency();
  l.redone(1, 0);  // full-journal redo rewrites from the logged payload
  const auto s = l.status(1, 0);
  EXPECT_FALSE(s.torn);
  EXPECT_EQ(s.durable_bytes, s.acked_bytes);
  EXPECT_EQ(s.durable_csum, s.acked_csum);
  EXPECT_EQ(l.acked_undurable_bytes(1, 0), 0u);
}

TEST(UnitLedger, StaleOverwriteKeepsCoverageButMismatchesChecksum) {
  UnitTable t;
  UnitLedger l(t);
  l.ack(1, 0, 0, 2048, /*op_id=*/1);
  l.durable(1, 0);               // op 1's bytes reach the array
  l.ack(1, 0, 0, 2048, /*op_id=*/2);  // overwrite acked, still cached
  l.drop_residency();            // crash before its write-back
  const auto s = l.status(1, 0);
  EXPECT_EQ(s.durable_bytes, s.acked_bytes);  // coverage is complete...
  EXPECT_NE(s.durable_csum, s.acked_csum);    // ...but the content is stale
}

// ---------------------------------------------------- server + recovery ---

struct Fixture {
  sim::Engine engine;
  hw::DiskConfig disk{};
  ServerConfig cfg{};

  IoServer make(JournalMode journal = JournalMode::kOff, std::size_t dirty_limit = 64) {
    cfg.journal = journal;
    cfg.dirty_limit = dirty_limit;
    cfg.cache_units = 64;
    return IoServer(engine, 0, disk, kUnit, 16, cfg);
  }
};

sim::Task<void> write_unit(IoServer& s, std::uint64_t unit, std::uint64_t len = 2048) {
  co_await s.write(UnitKey{1, unit}, 0, len, true);
}

TEST(IoServerJournal, OffModeCrashLosesAckedDirtyUnits) {
  Fixture f;
  auto s = f.make(JournalMode::kOff);
  f.engine.spawn(write_unit(s, 0));
  f.engine.spawn(write_unit(s, 16));
  f.engine.run();
  s.crash();
  s.restart();
  f.engine.run();
  EXPECT_EQ(s.lost_dirty_units(), 2u);
  EXPECT_EQ(s.ledger().status(1, 0).durable_bytes, 0u);
  EXPECT_EQ(s.ledger().acked_undurable_bytes(1, 0), 2048u);
  EXPECT_EQ(s.ledger().acked_undurable_bytes(1, 16), 2048u);
}

TEST(IoServerJournal, FullModeRecoveryRedoesEveryAckedUnit) {
  Fixture f;
  auto s = f.make(JournalMode::kFull);
  f.engine.spawn(write_unit(s, 0));
  f.engine.spawn(write_unit(s, 16));
  f.engine.run();
  s.crash();
  s.restart();
  EXPECT_TRUE(s.recovering());
  f.engine.run();  // drain the recovery pass
  EXPECT_FALSE(s.recovering());
  EXPECT_FALSE(s.crashed());
  EXPECT_EQ(s.journal().counters().redone, 2u);
  EXPECT_EQ(s.journal().counters().recoveries, 1u);
  EXPECT_EQ(s.ledger().acked_undurable_bytes(1, 0), 0u);
  EXPECT_EQ(s.ledger().acked_undurable_bytes(1, 16), 0u);
}

TEST(IoServerJournal, CompletedWriteBackLeavesNothingToRedo) {
  Fixture f;
  auto s = f.make(JournalMode::kFull);
  auto writer = [](IoServer& srv) -> sim::Task<void> {
    co_await srv.write(UnitKey{1, 0}, 0, 2048, true);
    co_await srv.flush_all();
  };
  f.engine.spawn(writer(s));
  f.engine.run();
  EXPECT_EQ(s.journal().counters().trimmed, 1u);
  EXPECT_FALSE(s.journal().has_unapplied());
  s.crash();
  s.restart();  // nothing unapplied: cold restart, no recovery pass
  EXPECT_FALSE(s.recovering());
  f.engine.run();
  EXPECT_EQ(s.journal().counters().redone, 0u);
}

sim::Task<void> crash_torn_when_writeback_starts(sim::Engine& engine, IoServer& s) {
  // The array access for one 64 KB unit spans many milliseconds, so a 10 us
  // poll quantum deterministically lands the crash mid transfer.
  while (!s.write_back_in_flight()) co_await engine.delay(sim::microseconds(10));
  s.crash(/*torn=*/true);
}

TEST(IoServerJournal, TornCrashClipsInFlightWriteBackToPrefix) {
  Fixture f;
  auto s = f.make(JournalMode::kOff);
  auto writer = [](IoServer& srv) -> sim::Task<void> {
    co_await srv.write(UnitKey{1, 0}, 0, kUnit, true);  // whole-unit dirty
    co_await srv.flush_all();
  };
  f.engine.spawn(writer(s));
  f.engine.spawn(crash_torn_when_writeback_starts(f.engine, s));
  f.engine.run();
  EXPECT_EQ(s.torn_unit_count(), 1u);
  const auto st = s.ledger().status(1, 0);
  EXPECT_TRUE(st.torn);
  EXPECT_EQ(st.acked_bytes, kUnit);
  EXPECT_EQ(st.durable_bytes, kUnit / 2);  // half the unit, granule-aligned
  s.restart();
  f.engine.run();
  EXPECT_EQ(s.ledger().acked_undurable_bytes(1, 0), kUnit / 2);
}

TEST(IoServerJournal, FullModeRecoveryRepairsTornUnit) {
  Fixture f;
  auto s = f.make(JournalMode::kFull);
  auto writer = [](IoServer& srv) -> sim::Task<void> {
    co_await srv.write(UnitKey{1, 0}, 0, kUnit, true);
    co_await srv.flush_all();
  };
  f.engine.spawn(writer(s));
  f.engine.spawn(crash_torn_when_writeback_starts(f.engine, s));
  f.engine.run();
  ASSERT_EQ(s.torn_unit_count(), 1u);
  ASSERT_TRUE(s.journal().has_unapplied());  // torn write-back never trimmed
  s.restart();
  f.engine.run();
  const auto st = s.ledger().status(1, 0);
  EXPECT_FALSE(st.torn);
  EXPECT_EQ(st.durable_bytes, st.acked_bytes);
  EXPECT_EQ(s.journal().counters().redone, 1u);
}

sim::Task<void> ordered_write(IoServer& s, std::uint64_t unit, int id, std::vector<int>& order) {
  co_await s.write(UnitKey{1, unit}, 0, 2048, true);
  order.push_back(id);
}

TEST(IoServerJournal, ParkedClientsKeepFifoOrderAcrossTwoCrashes) {
  Fixture f;
  auto s = f.make(JournalMode::kOff);
  std::vector<int> order;
  s.crash();
  // Clients arrive (and park) in a staggered order during the outage.
  auto stagger = [&](sim::Tick at, std::uint64_t unit, int id) -> sim::Task<void> {
    co_await f.engine.delay(at);
    co_await ordered_write(s, unit, id, order);
  };
  f.engine.spawn(stagger(1, 0, 0));
  f.engine.spawn(stagger(2, 16, 1));
  f.engine.spawn(stagger(3, 32, 2));
  // Second crash mid-outage: must NOT swap the restart event the three
  // parked clients wait on, or they would sleep forever.
  auto fault_driver = [&]() -> sim::Task<void> {
    co_await f.engine.delay(10);
    s.crash();
    co_await f.engine.delay(10);
    s.restart();
  };
  f.engine.spawn(fault_driver());
  f.engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(s.crash_count(), 2u);
}

TEST(IoServerJournal, WaiterOfOldOutageRidesOutAnImmediateRecrash) {
  Fixture f;
  auto s = f.make(JournalMode::kOff);
  std::vector<int> order;
  s.crash();
  auto client = [&]() -> sim::Task<void> {
    co_await f.engine.delay(1);
    co_await ordered_write(s, 0, 7, order);
  };
  f.engine.spawn(client());
  // Restart and crash again on the same tick, before the parked client gets
  // dispatched: its wake-up must observe the *new* outage and re-park on the
  // new restart event (the old one is never re-armed) instead of running.
  auto fault_driver = [&]() -> sim::Task<void> {
    co_await f.engine.delay(5);
    s.restart();
    s.crash();
    EXPECT_TRUE(order.empty());
    co_await f.engine.delay(20);
    EXPECT_TRUE(order.empty());  // still parked through outage #2
    s.restart();
  };
  f.engine.spawn(fault_driver());
  f.engine.run();
  EXPECT_EQ(order, (std::vector<int>{7}));
  EXPECT_EQ(s.crash_count(), 2u);
}

TEST(IoServerJournal, CrashDuringRecoveryResumesAndRedoesExactlyOnce) {
  Fixture f;
  auto s = f.make(JournalMode::kFull);
  f.engine.spawn(write_unit(s, 0));
  f.engine.spawn(write_unit(s, 16));
  f.engine.run();
  s.crash();
  s.restart();
  ASSERT_TRUE(s.recovering());
  // Second fault lands while the redo pass is replaying records; the pass
  // aborts and the next restart resumes whatever is still unapplied.
  auto double_fault = [&]() -> sim::Task<void> {
    co_await f.engine.delay(1);  // mid first record's replay setup
    EXPECT_TRUE(s.recovering());
    s.crash();
    EXPECT_FALSE(s.recovering());
    co_await f.engine.delay(10);
    s.restart();
  };
  f.engine.spawn(double_fault());
  f.engine.run();
  EXPECT_FALSE(s.crashed());
  EXPECT_FALSE(s.recovering());
  // Both records redone exactly once in total, across however many passes it
  // took; only the completed pass counts as a recovery.
  EXPECT_EQ(s.journal().counters().redone, 2u);
  EXPECT_EQ(s.journal().counters().recoveries, 1u);
  EXPECT_EQ(s.ledger().acked_undurable_bytes(1, 0), 0u);
  EXPECT_EQ(s.ledger().acked_undurable_bytes(1, 16), 0u);
}

}  // namespace
}  // namespace sio::pfs
