// Orders the I/O servers' per-unit state must keep.  The post-run scrub, the
// background scrubber, the bit-rot injector and the crash #loss records all
// reach the goldens, so each must walk units in a fixed order however the
// units were laid out on the array.
//
// The fixture touches two files so that their first-touch allocations
// interleave on I/O node 0: the array blocks hold (b,0) (a,0) (b,16) (a,16)
// while (file, unit) order is (a,0) (a,16) (b,0) (b,16).

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "machine/machine.hpp"
#include "pablo/collector.hpp"
#include "pfs/pfs.hpp"

namespace sio::pfs {
namespace {

using Key = std::pair<std::uint32_t, std::uint64_t>;

constexpr std::uint64_t kUnit = 64 * 1024;

/// splitmix64, the injector's documented seeded draw.
std::uint64_t mix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

PfsConfig table_config(IntegrityMode integrity) {
  PfsConfig cfg;
  cfg.server.dirty_limit = 3;
  cfg.server.integrity.mode = integrity;
  if (integrity != IntegrityMode::kOff) {
    cfg.server.integrity.scrub_interval = sim::seconds(1);
    cfg.server.integrity.scrub_sweeps = 3;
    cfg.server.integrity.scrub_units_per_sweep = 3;
  }
  return cfg;
}

struct Fixture {
  hw::Machine machine;
  pablo::Collector collector;
  Pfs fs;
  FileState& a;
  FileState& b;

  explicit Fixture(IntegrityMode integrity = IntegrityMode::kOff)
      : machine(hw::Machine::caltech_paragon(4)),
        collector(machine.engine()),
        fs(machine, collector, table_config(integrity)),
        a(fs.stage_file("t/a", 0)),
        b(fs.stage_file("t/b", 0)) {}

  IoServer& server() { return fs.server(0); }

  /// The four units of I/O node 0 in (file, unit) order.
  std::vector<Key> key_order() const {
    return {{a.id, 0}, {a.id, 16}, {b.id, 0}, {b.id, 16}};
  }

  /// One whole-unit buffered write.
  sim::Task<void> write(FileState& f, std::uint64_t unit) {
    co_await fs.transfer(0, f, unit * kUnit, kUnit, /*is_write=*/true, /*buffered=*/true);
  }

  /// Places the units in interleaved order, each written once and flushed.
  sim::Task<void> populate() {
    co_await write(b, 0);
    co_await write(a, 0);
    co_await write(b, 16);
    co_await write(a, 16);
    co_await fs.flush_servers();
  }

  void run(sim::Task<void> t) {
    machine.engine().spawn(std::move(t));
    machine.engine().run();
  }

  std::vector<Key> integrity_keys(pablo::IntegrityKind kind) const {
    std::vector<Key> out;
    for (const auto& ev : collector.integrity_events()) {
      if (ev.kind == kind) out.emplace_back(ev.file, ev.unit);
    }
    return out;
  }
};

TEST(PfsUnitTable, InterleavedFilesLandOnInterleavedBlocks) {
  Fixture f;
  f.run(f.populate());
  const auto off = [&](FileState& file, std::uint64_t unit) {
    return f.fs.disk_offset_of(file, unit);
  };
  EXPECT_EQ(off(f.b, 0), 0u);
  EXPECT_EQ(off(f.a, 0), kUnit);
  EXPECT_EQ(off(f.b, 16), 2 * kUnit);
  EXPECT_EQ(off(f.a, 16), 3 * kUnit);
}

TEST(PfsUnitTable, ScrubWalksUnitsInKeyOrder) {
  Fixture f;
  f.run([](Fixture& fx) -> sim::Task<void> {
    co_await fx.write(fx.b, 0);
    co_await fx.write(fx.a, 0);
    co_await fx.write(fx.b, 16);
  }(f));
  std::vector<Key> walked;
  f.server().ledger().for_each(
      [&](std::uint32_t file, std::uint64_t unit, const UnitLedger::UnitStatus&) {
        walked.emplace_back(file, unit);
      });
  EXPECT_EQ(walked, (std::vector<Key>{{f.a.id, 0}, {f.b.id, 0}, {f.b.id, 16}}));
  // All three are still dirty in the live cache: pending, not lost.
  const auto rep = f.fs.scrub();
  EXPECT_EQ(rep.units_checked, 3u);
  EXPECT_EQ(rep.pending_units, 3u);
  EXPECT_EQ(rep.lost_units, 0u);
}

TEST(PfsUnitTable, ScrubberResumesAfterItsCursorAndWraps) {
  Fixture f(IntegrityMode::kVerify);
  f.run([](Fixture& fx) -> sim::Task<void> {
    co_await fx.populate();
    // Rot every unit so each scrubber visit reports a detection.  Verify
    // mode never repairs, so later sweeps detect the same units again.
    for (std::uint64_t seed = 1; fx.server().ledger().corrupt_unit_count() < 4; ++seed) {
      fx.server().inject_bit_rot(seed, 4, /*journal=*/false);
    }
  }(f));
  const auto k = f.key_order();
  // Three units per sweep over four: each sweep resumes after the last unit
  // the previous one visited and wraps at the end of the table.
  EXPECT_EQ(f.integrity_keys(pablo::IntegrityKind::kScrubDetect),
            (std::vector<Key>{k[0], k[1], k[2], k[3], k[0], k[1], k[2], k[3], k[0]}));
}

TEST(PfsUnitTable, BitRotVictimsFollowKeyOrder) {
  // The injector starts at a seeded position in the key-ordered population
  // and steps by a seeded stride.  With an odd stride it visits all four
  // units once each.
  std::uint64_t seed = 1;
  std::uint64_t pos = 0;
  std::uint64_t stride = 0;
  for (;; ++seed) {
    std::uint64_t state = seed;
    pos = mix64(state) % 4;
    stride = 1 + mix64(state) % 4;
    if (stride % 2 == 1 && pos != 0) break;
  }
  Fixture f;
  f.run(f.populate());
  f.server().inject_bit_rot(seed, 4, /*journal=*/false);
  const auto k = f.key_order();
  std::vector<Key> want;
  for (std::uint64_t i = 0; i < 4; ++i) want.push_back(k[(pos + i * stride) % 4]);
  EXPECT_EQ(f.integrity_keys(pablo::IntegrityKind::kBitRot), want);
}

TEST(PfsUnitTable, CrashReportsLossesInDirtyFifoOrder) {
  Fixture f;
  f.run([](Fixture& fx) -> sim::Task<void> {
    co_await fx.write(fx.b, 16);
    co_await fx.write(fx.a, 0);
    co_await fx.write(fx.a, 0);  // already dirty: keeps its FIFO slot
    co_await fx.write(fx.b, 0);
    co_await fx.write(fx.a, 16);  // fourth dirty unit: flushes (b,16)
    co_await fx.write(fx.b, 16);  // dirty again at the back; flushes (a,0)
  }(f));
  f.server().crash();
  std::vector<Key> lost;
  for (const auto& ev : f.collector.loss_events()) lost.emplace_back(ev.file, ev.offset / kUnit);
  EXPECT_EQ(lost, (std::vector<Key>{{f.b.id, 0}, {f.a.id, 16}, {f.b.id, 16}}));
  EXPECT_EQ(f.server().lost_dirty_units(), 3u);
}

}  // namespace
}  // namespace sio::pfs
