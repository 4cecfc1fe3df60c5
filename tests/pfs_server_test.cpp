// Tests for the I/O-node server: stripe cache hits/misses, write-back
// behavior and dirty-limit flushing, unbuffered bypass, eviction, and the
// sequential-prefetch policy extension.
//
// The server is I/O node 0 of 16, so it holds the units that are multiples
// of 16; it places each at the next free block of its array on first touch.

#include <gtest/gtest.h>

#include "machine/disk.hpp"
#include "pfs/server.hpp"
#include "sim/assert.hpp"
#include "sim/task.hpp"

namespace sio::pfs {
namespace {

constexpr std::uint64_t kUnit = 64 * 1024;

struct Fixture {
  sim::Engine engine;
  hw::DiskConfig disk{};
  ServerConfig cfg{};

  IoServer make(int prefetch = 0, std::size_t cache_units = 8, std::size_t dirty_limit = 4) {
    cfg.prefetch_units = prefetch;
    cfg.cache_units = cache_units;
    cfg.dirty_limit = dirty_limit;
    return IoServer(engine, 0, disk, kUnit, 16, cfg);
  }

  void run(sim::Task<void> t) {
    engine.spawn(std::move(t));
    engine.run();
  }
};

sim::Task<void> read_unit(IoServer& s, std::uint32_t file, std::uint64_t unit, bool buffered) {
  co_await s.read(UnitKey{file, unit}, 0, kUnit, buffered);
}

sim::Task<void> write_unit(IoServer& s, std::uint32_t file, std::uint64_t unit, bool buffered) {
  co_await s.write(UnitKey{file, unit}, 0, 2048, buffered);
}

TEST(IoServer, FirstReadMissesSecondHits) {
  Fixture f;
  auto s = f.make();
  f.run(read_unit(s, 1, 0, true));
  EXPECT_EQ(s.cache_misses(), 1u);
  EXPECT_EQ(s.cache_hits(), 0u);
  f.run(read_unit(s, 1, 0, true));
  EXPECT_EQ(s.cache_hits(), 1u);
}

TEST(IoServer, HitIsMuchCheaperThanMiss) {
  Fixture f;
  auto s = f.make();
  f.run(read_unit(s, 1, 0, true));
  const sim::Tick miss_time = f.engine.now();
  const sim::Tick before = f.engine.now();
  f.run(read_unit(s, 1, 0, true));
  const sim::Tick hit_time = f.engine.now() - before;
  EXPECT_LT(hit_time * 10, miss_time);
}

TEST(IoServer, UnbufferedReadBypassesCache) {
  Fixture f;
  auto s = f.make();
  f.run(read_unit(s, 1, 0, false));
  f.run(read_unit(s, 1, 0, false));
  EXPECT_EQ(s.cache_misses(), 0u);
  EXPECT_EQ(s.cache_hits(), 0u);
  EXPECT_EQ(s.unbuffered_ops(), 2u);
  EXPECT_EQ(s.disk().ops(), 2u);  // every access hits the array
}

TEST(IoServer, BufferedWriteIsAbsorbedNotWrittenThrough) {
  Fixture f;
  auto s = f.make();
  f.run(write_unit(s, 1, 0, true));
  EXPECT_EQ(s.disk().ops(), 0u);
  EXPECT_EQ(s.dirty_units(), 1u);
}

TEST(IoServer, DirtyLimitTriggersInlineFlush) {
  Fixture f;
  auto s = f.make(0, 16, 2);
  auto writer = [](IoServer& srv) -> sim::Task<void> {
    for (std::uint64_t u = 0; u < 5; ++u) {
      co_await srv.write(UnitKey{1, u * 16}, 0, 2048, true);
    }
  };
  f.run(writer(s));
  EXPECT_GT(s.disk().ops(), 0u);        // some units were flushed inline
  EXPECT_LE(s.dirty_units(), 3u);       // backlog stays bounded
}

TEST(IoServer, FlushAllDrainsDirty) {
  Fixture f;
  auto s = f.make(0, 16, 16);
  auto writer = [](IoServer& srv) -> sim::Task<void> {
    for (std::uint64_t u = 0; u < 4; ++u) {
      co_await srv.write(UnitKey{1, u * 16}, 0, 2048, true);
    }
    co_await srv.flush_all();
  };
  f.run(writer(s));
  EXPECT_EQ(s.dirty_units(), 0u);
  EXPECT_EQ(s.disk().ops(), 4u);
}

TEST(IoServer, WriteThenReadHitsCache) {
  Fixture f;
  auto s = f.make();
  f.run(write_unit(s, 1, 48, true));
  f.run(read_unit(s, 1, 48, true));
  EXPECT_EQ(s.cache_hits(), 1u);
  EXPECT_EQ(s.cache_misses(), 0u);
}

TEST(IoServer, EvictionRespectsCapacityAndWritesBackDirty) {
  Fixture f;
  auto s = f.make(0, /*cache_units=*/2, /*dirty_limit=*/16);
  auto worker = [](IoServer& srv) -> sim::Task<void> {
    co_await srv.write(UnitKey{1, 0}, 0, 2048, true);  // dirty
    co_await srv.read(UnitKey{1, 16}, 0, kUnit, true);
    co_await srv.read(UnitKey{1, 32}, 0, kUnit, true);  // evicts unit 0
  };
  f.run(worker(s));
  EXPECT_LE(s.cached_units(), 2u);
  // The dirty victim was written back: at least 3 disk ops (2 fetches + 1 WB).
  EXPECT_GE(s.disk().ops(), 3u);
}

TEST(IoServer, PrefetchFetchesAheadOnSequentialRun) {
  Fixture f;
  auto s = f.make(/*prefetch=*/2, /*cache_units=*/32);
  // Units on this server for one file differ by the stripe factor (16).
  auto reader = [](IoServer& srv) -> sim::Task<void> {
    co_await srv.read(UnitKey{1, 0}, 0, kUnit, true);
    co_await srv.read(UnitKey{1, 16}, 0, kUnit, true);  // sequential -> prefetch
    co_await srv.read(UnitKey{1, 32}, 0, kUnit, true);  // prefetched: hit
    co_await srv.read(UnitKey{1, 48}, 0, kUnit, true);  // prefetched: hit
  };
  f.run(reader(s));
  EXPECT_EQ(s.prefetched_units(), 2u);
  EXPECT_EQ(s.cache_hits(), 2u);
  EXPECT_EQ(s.cache_misses(), 2u);
}

TEST(IoServer, NoPrefetchOnRandomRun) {
  Fixture f;
  auto s = f.make(/*prefetch=*/2, /*cache_units=*/32);
  auto reader = [](IoServer& srv) -> sim::Task<void> {
    co_await srv.read(UnitKey{1, 0}, 0, kUnit, true);
    co_await srv.read(UnitKey{1, 80}, 0, kUnit, true);
    co_await srv.read(UnitKey{1, 32}, 0, kUnit, true);
  };
  f.run(reader(s));
  EXPECT_EQ(s.prefetched_units(), 0u);
  EXPECT_EQ(s.cache_misses(), 3u);
}

TEST(IoServer, PlacesUnitsInFirstTouchOrderAndRejectsUnitsItDoesNotOwn) {
  Fixture f;
  auto s = f.make();
  EXPECT_EQ(s.place(2, 32), 0u);
  EXPECT_EQ(s.place(1, 0), kUnit);
  EXPECT_EQ(s.place(2, 32), 0u);  // a unit keeps its place
  // Server 0 of 16 owns only multiples of 16.
  EXPECT_THROW(s.place(1, 1), sim::AssertionError);
  EXPECT_THROW(f.run(read_unit(s, 1, 17, true)), sim::AssertionError);
}

TEST(IoServer, SeparateFilesDoNotConfusePrefetchDetector) {
  Fixture f;
  auto s = f.make(/*prefetch=*/1, /*cache_units=*/32);
  auto reader = [](IoServer& srv) -> sim::Task<void> {
    co_await srv.read(UnitKey{1, 0}, 0, kUnit, true);
    co_await srv.read(UnitKey{2, 16}, 0, kUnit, true);  // other file
  };
  f.run(reader(s));
  EXPECT_EQ(s.prefetched_units(), 0u);
}

}  // namespace
}  // namespace sio::pfs
