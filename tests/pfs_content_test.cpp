// Tests for the sparse content store: byte-accurate round trips across chunk
// boundaries, hole semantics, and residency accounting.  Also the unit
// ledger's span bookkeeping, checked op by op against a reference ledger
// built on std::map.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "pfs/content.hpp"
#include "sim/random.hpp"

namespace sio::pfs {
namespace {

std::vector<std::byte> pattern(std::size_t n, unsigned seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 131 + seed) & 0xff);
  }
  return v;
}

TEST(SparseContent, RoundTripsWithinOneChunk) {
  SparseContent c;
  const auto data = pattern(100, 1);
  c.write(10, data);
  std::vector<std::byte> out(100);
  c.read(10, out);
  EXPECT_EQ(out, data);
}

TEST(SparseContent, RoundTripsAcrossChunkBoundary) {
  SparseContent c;
  const auto data = pattern(3 * SparseContent::kChunk + 17, 2);
  c.write(SparseContent::kChunk - 5, data);
  std::vector<std::byte> out(data.size());
  c.read(SparseContent::kChunk - 5, out);
  EXPECT_EQ(out, data);
}

TEST(SparseContent, HolesReadAsZero) {
  SparseContent c;
  c.write(100 * SparseContent::kChunk, pattern(10, 3));
  std::vector<std::byte> out(64, std::byte{0xff});
  c.read(5 * SparseContent::kChunk, out);
  for (auto b : out) EXPECT_EQ(b, std::byte{0});
}

TEST(SparseContent, OverwriteReplaces) {
  SparseContent c;
  c.write(0, pattern(256, 4));
  const auto newer = pattern(128, 5);
  c.write(64, newer);
  std::vector<std::byte> out(128);
  c.read(64, out);
  EXPECT_EQ(out, newer);
  // Bytes before the overwrite keep the old pattern.
  std::vector<std::byte> head(64);
  c.read(0, head);
  const auto old = pattern(256, 4);
  EXPECT_TRUE(std::memcmp(head.data(), old.data(), 64) == 0);
}

TEST(SparseContent, ResidencyCountsOnlyTouchedChunks) {
  SparseContent c;
  EXPECT_EQ(c.resident_bytes(), 0u);
  c.write(0, pattern(1, 6));
  EXPECT_EQ(c.resident_bytes(), SparseContent::kChunk);
  c.write(10 * SparseContent::kChunk, pattern(1, 7));
  EXPECT_EQ(c.resident_bytes(), 2 * SparseContent::kChunk);
}

TEST(SparseContent, HighWaterTracksExtent) {
  SparseContent c;
  EXPECT_EQ(c.high_water(), 0u);
  c.write(1000, pattern(24, 8));
  EXPECT_EQ(c.high_water(), 1024u);
  c.write(10, pattern(4, 9));
  EXPECT_EQ(c.high_water(), 1024u);
}

TEST(SparseContent, ClearResets) {
  SparseContent c;
  c.write(0, pattern(100, 10));
  c.clear();
  EXPECT_EQ(c.resident_bytes(), 0u);
  EXPECT_EQ(c.high_water(), 0u);
  std::vector<std::byte> out(10, std::byte{0x5a});
  c.read(0, out);
  for (auto b : out) EXPECT_EQ(b, std::byte{0});
}

// Parameterized property: write-then-read round trip at awkward offsets.
class ContentRoundTrip : public ::testing::TestWithParam<std::pair<std::uint64_t, std::size_t>> {};

TEST_P(ContentRoundTrip, Holds) {
  const auto [offset, size] = GetParam();
  SparseContent c;
  const auto data = pattern(size, static_cast<unsigned>(offset));
  c.write(offset, data);
  std::vector<std::byte> out(size);
  c.read(offset, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(c.high_water(), offset + size);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ContentRoundTrip,
                         ::testing::Values(std::pair{0ull, std::size_t{1}},
                                           std::pair{4095ull, std::size_t{2}},
                                           std::pair{4096ull, std::size_t{4096}},
                                           std::pair{1ull << 30, std::size_t{10000}},
                                           std::pair{123456789ull, std::size_t{65536}}));

// ---------------------------------------------------------------------------
// SparseContent / UnitLedger edge cases.
// ---------------------------------------------------------------------------

TEST(SparseContent, ZeroLengthWriteAllocatesNothing) {
  SparseContent c;
  c.write(4096, std::span<const std::byte>{});
  EXPECT_EQ(c.resident_bytes(), 0u);
  std::vector<std::byte> out(8, std::byte{0xff});
  c.read(4090, out);  // still a hole: reads back zero
  for (const auto b : out) EXPECT_EQ(b, std::byte{0});
}

// ---- the map ledger, kept as the differential oracle ----------------------

/// The unit ledger's span algebra over `std::map<begin, (end, op)>`, the
/// structure the ledger first used: each span set is a tree of disjoint spans
/// keyed by begin.  Units live in a map keyed by (file, unit), so iteration is
/// in (file, unit) order like the UnitTable's.
class RefLedger {
 public:
  using Status = UnitLedger::UnitStatus;

  void ack(std::uint32_t f, std::uint64_t u, std::uint64_t off, std::uint64_t len,
           std::uint64_t op) {
    if (len == 0) return;
    Unit& x = units_[{f, u}];
    insert(x.acked, off, off + len, op);
    insert(x.resident, off, off + len, op);
  }
  void durable(std::uint32_t f, std::uint64_t u) {
    if (Unit* x = find(f, u)) write_back(*x, x->resident, kAll, false);
  }
  void torn(std::uint32_t f, std::uint64_t u, std::uint64_t prefix) {
    if (Unit* x = find(f, u)) write_back(*x, x->resident, prefix, true);
  }
  void redone(std::uint32_t f, std::uint64_t u) {
    if (Unit* x = find(f, u)) write_back(*x, x->acked, kAll, false);
  }
  void observe_durable(std::uint32_t f, std::uint64_t u, std::uint64_t off, std::uint64_t len) {
    if (len == 0) return;
    Unit& x = units_[{f, u}];
    if (x.acked.empty()) insert(x.on_disk, off, off + len, 0);
  }
  void drop_residency() {
    for (auto& [key, x] : units_) x.resident.clear();
  }
  std::uint64_t rot(std::uint32_t f, std::uint64_t u, std::uint64_t off, std::uint64_t len) {
    Unit* x = find(f, u);
    if (x == nullptr || len == 0) return 0;
    std::uint64_t fresh = 0;
    for (const auto& [begin, span] : x->on_disk) {
      const std::uint64_t b = std::max(begin, off);
      const std::uint64_t e = std::min(span.end, off + len);
      if (b >= e) continue;
      fresh += (e - b) - overlap(x->corrupt, b, e);
      insert(x->corrupt, b, e, 0);
    }
    return fresh;
  }
  std::uint64_t mark_stale(std::uint32_t f, std::uint64_t u) {
    Unit* x = find(f, u);
    if (x == nullptr) return 0;
    std::uint64_t fresh = 0;
    for (const auto& [begin, span] : x->on_disk) {
      fresh += (span.end - begin) - overlap(x->corrupt, begin, span.end);
      insert(x->corrupt, begin, span.end, 0);
    }
    if (!x->corrupt.empty()) x->stale = true;
    return fresh;
  }
  std::uint64_t repair(std::uint32_t f, std::uint64_t u) {
    Unit* x = find(f, u);
    if (x == nullptr || x->stale) return 0;
    const std::uint64_t cleared = clipped(x->corrupt, kAll).first;
    x->corrupt.clear();
    return cleared;
  }
  std::uint64_t corrupt_overlap(std::uint32_t f, std::uint64_t u, std::uint64_t off,
                                std::uint64_t len) {
    Unit* x = find(f, u);
    return x == nullptr || len == 0 ? 0 : overlap(x->corrupt, off, off + len);
  }
  std::uint64_t acked_undurable_bytes(std::uint32_t f, std::uint64_t u) {
    Unit* x = find(f, u);
    if (x == nullptr) return 0;
    const std::uint64_t acked = clipped(x->acked, kAll).first;
    const std::uint64_t disk = clipped(x->on_disk, kAll).first;
    return acked > disk ? acked - disk : 0;
  }
  Status status(std::uint32_t f, std::uint64_t u) {
    Unit* x = find(f, u);
    if (x == nullptr) return {};
    Status s;
    std::tie(s.acked_bytes, s.acked_csum) = clipped(x->acked, kAll);
    std::tie(s.durable_bytes, s.durable_csum) = clipped(x->on_disk, kAll);
    s.torn = x->torn;
    if (!x->corrupt.empty()) {
      const auto [cbytes, ccsum] = clipped(x->corrupt, kAll);
      s.corrupt_bytes = cbytes;
      s.durable_csum = mix(s.durable_csum, ccsum);
    }
    s.stale = x->stale;
    return s;
  }
  /// (file, unit) of every tracked unit, in iteration order.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> units() const {
    std::vector<std::pair<std::uint32_t, std::uint64_t>> out;
    for (const auto& [key, x] : units_) out.push_back(key);
    return out;
  }

 private:
  static constexpr std::uint64_t kAll = ~std::uint64_t{0};
  struct Span {
    std::uint64_t end = 0;
    std::uint64_t op = 0;
  };
  using Spans = std::map<std::uint64_t, Span>;
  struct Unit {
    Spans acked, resident, on_disk, corrupt;
    bool torn = false;
    bool stale = false;
  };

  Unit* find(std::uint32_t f, std::uint64_t u) {
    const auto it = units_.find({f, u});
    return it == units_.end() ? nullptr : &it->second;
  }

  static std::uint64_t mix(std::uint64_t h, std::uint64_t v) {  // FNV-1a, 8 bytes
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ULL;
    }
    return h;
  }

  static void insert(Spans& spans, std::uint64_t begin, std::uint64_t end, std::uint64_t op) {
    auto it = spans.lower_bound(begin);
    if (it != spans.begin()) {
      auto prev = std::prev(it);
      if (prev->second.end > begin) {
        if (prev->second.end > end) spans[end] = prev->second;
        prev->second.end = begin;
      }
    }
    it = spans.lower_bound(begin);
    while (it != spans.end() && it->first < end) {
      if (it->second.end <= end) {
        it = spans.erase(it);
      } else {
        const Span tail = it->second;
        spans.erase(it);
        spans[end] = tail;
        break;
      }
    }
    spans[begin] = Span{end, op};
  }
  static void remove(Spans& spans, std::uint64_t begin, std::uint64_t end) {
    if (begin >= end || overlap(spans, begin, end) == 0) return;
    insert(spans, begin, end, 0);
    spans.erase(begin);
  }
  static std::uint64_t overlap(const Spans& spans, std::uint64_t begin, std::uint64_t end) {
    std::uint64_t bytes = 0;
    for (const auto& [b, span] : spans) {
      if (b >= end) break;
      const std::uint64_t lo = std::max(b, begin);
      const std::uint64_t hi = std::min(span.end, end);
      if (lo < hi) bytes += hi - lo;
    }
    return bytes;
  }
  static void write_back(Unit& x, const Spans& written, std::uint64_t limit, bool torn) {
    for (const auto& [begin, span] : written) {
      if (begin >= limit) break;
      const std::uint64_t end = std::min(span.end, limit);
      insert(x.on_disk, begin, end, span.op);
      remove(x.corrupt, begin, end);
    }
    if (x.corrupt.empty()) x.stale = false;
    x.torn = torn;
  }
  static std::pair<std::uint64_t, std::uint64_t> clipped(const Spans& spans,
                                                         std::uint64_t limit) {
    std::uint64_t bytes = 0;
    std::uint64_t csum = 14695981039346656037ULL;
    for (const auto& [begin, span] : spans) {
      if (begin >= limit) break;
      const std::uint64_t end = std::min(span.end, limit);
      bytes += end - begin;
      csum = mix(csum, begin);
      csum = mix(csum, end);
      csum = mix(csum, span.op);
    }
    return {bytes, csum};
  }

  std::map<std::pair<std::uint32_t, std::uint64_t>, Unit> units_;
};

auto fields(const UnitLedger::UnitStatus& s) {
  return std::make_tuple(s.acked_bytes, s.durable_bytes, s.acked_csum, s.durable_csum, s.torn,
                         s.corrupt_bytes, s.stale);
}

TEST(UnitLedger, MatchesMapReference) {
  // Seeded random histories over six units of 16 KB: 1 KB-aligned and odd
  // ranges, exact re-writes (same op: a crash-replayed duplicate; new op: an
  // overwrite), partial overlaps and spans that cover several others, mixed
  // with write-backs, torn write-backs, redos, read fetches, crashes, bit-rot,
  // stale marks and repairs.  After every op both ledgers must agree on every
  // unit's status and on every count the op returned.
  constexpr std::uint64_t kUnitBytes = 16 * 1024;
  constexpr int kOpsPerSeed = 25'000;
  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    UnitTable table;
    UnitLedger got(table);
    RefLedger want;
    sio::sim::Rng rng(seed);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> written;  // (offset, len) history
    std::uint64_t next_op = 1;
    auto range = [&]() -> std::pair<std::uint64_t, std::uint64_t> {
      const std::int64_t r = rng.uniform_int(0, 99);
      if (r < 45) {  // 1 KB pieces, as checkpoint writes arrive
        return {1024 * static_cast<std::uint64_t>(rng.uniform_int(0, 15)),
                1024 * static_cast<std::uint64_t>(rng.uniform_int(1, 4))};
      }
      if (r < 75) {  // odd offsets and lengths
        return {static_cast<std::uint64_t>(rng.uniform_int(0, kUnitBytes - 1)),
                static_cast<std::uint64_t>(rng.uniform_int(1, 3000))};
      }
      if (r < 90 && !written.empty()) {  // an exact re-write of an earlier range
        return written[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(written.size()) - 1))];
      }
      // Covers several earlier spans, sometimes the whole unit.
      return {1024 * static_cast<std::uint64_t>(rng.uniform_int(0, 7)),
              static_cast<std::uint64_t>(rng.uniform_int(4096, kUnitBytes))};
    };
    for (int i = 0; i < kOpsPerSeed; ++i) {
      const auto f = static_cast<std::uint32_t>(rng.uniform_int(0, 1));
      const auto u = static_cast<std::uint64_t>(rng.uniform_int(0, 2));
      const std::int64_t kind = rng.uniform_int(0, 99);
      std::uint64_t got_n = 0;
      std::uint64_t want_n = 0;
      if (kind < 40) {
        const auto [off, len] = range();
        written.emplace_back(off, len);
        // A replayed duplicate keeps the op id of the last ack.
        const std::uint64_t op = rng.uniform_int(0, 9) == 0 ? next_op - 1 : next_op++;
        got.ack(f, u, off, len, op);
        want.ack(f, u, off, len, op);
      } else if (kind < 55) {
        got.durable(f, u);
        want.durable(f, u);
      } else if (kind < 60) {
        const auto prefix = static_cast<std::uint64_t>(rng.uniform_int(0, kUnitBytes));
        got.torn(f, u, prefix);
        want.torn(f, u, prefix);
      } else if (kind < 64) {
        got.redone(f, u);
        want.redone(f, u);
      } else if (kind < 70) {
        const auto [off, len] = range();
        got.observe_durable(f, u, off, len);
        want.observe_durable(f, u, off, len);
      } else if (kind < 72) {
        got.drop_residency();
        want.drop_residency();
      } else if (kind < 84) {
        const auto [off, len] = range();
        got_n = got.rot(f, u, off, len);
        want_n = want.rot(f, u, off, len);
      } else if (kind < 88) {
        got_n = got.mark_stale(f, u);
        want_n = want.mark_stale(f, u);
      } else {
        got_n = got.repair(f, u);
        want_n = want.repair(f, u);
      }
      ASSERT_EQ(got_n, want_n) << "seed " << seed << " op #" << i << " kind " << kind;
      for (std::uint32_t cf = 0; cf < 2; ++cf) {
        for (std::uint64_t cu = 0; cu < 3; ++cu) {
          ASSERT_EQ(fields(got.status(cf, cu)), fields(want.status(cf, cu)))
              << "seed " << seed << " op #" << i << " unit " << cf << "/" << cu;
          ASSERT_EQ(got.acked_undurable_bytes(cf, cu), want.acked_undurable_bytes(cf, cu))
              << "seed " << seed << " op #" << i << " unit " << cf << "/" << cu;
          const auto [off, len] = range();
          ASSERT_EQ(got.corrupt_overlap(cf, cu, off, len), want.corrupt_overlap(cf, cu, off, len))
              << "seed " << seed << " op #" << i << " unit " << cf << "/" << cu;
        }
      }
    }
    std::vector<std::pair<std::uint32_t, std::uint64_t>> listed;
    got.for_each([&](std::uint32_t f, std::uint64_t u, const UnitLedger::UnitStatus&) {
      listed.emplace_back(f, u);
    });
    EXPECT_EQ(listed, want.units()) << "seed " << seed;
  }
}

TEST(UnitLedger, ZeroLengthAckLeavesUnitEmpty) {
  UnitTable t;
  UnitLedger l(t);
  l.ack(1, 0, 64, 0, /*op=*/7);
  const auto st = l.status(1, 0);
  EXPECT_EQ(st.acked_bytes, 0u);
  EXPECT_EQ(st.durable_bytes, 0u);
  EXPECT_EQ(l.acked_undurable_bytes(1, 0), 0u);
}

TEST(UnitLedger, ChecksumIsStableAcrossOverlappingRewrites) {
  // Two ledgers fed the identical overlapping-rewrite history agree on every
  // checksum; replaying the final op (the crash-recovery duplicate) changes
  // nothing.
  UnitTable ta, tb;
  UnitLedger a(ta), b(tb);
  for (UnitLedger* l : {&a, &b}) {
    l->ack(3, 5, 0, 100, /*op=*/1);
    l->ack(3, 5, 50, 100, /*op=*/2);  // overlaps the tail of op 1
    l->ack(3, 5, 25, 10, /*op=*/3);   // overlaps the middle of both
  }
  b.ack(3, 5, 25, 10, /*op=*/3);  // idempotent replay
  const auto sa = a.status(3, 5);
  const auto sb = b.status(3, 5);
  EXPECT_EQ(sa.acked_bytes, 150u);
  EXPECT_EQ(sa.acked_bytes, sb.acked_bytes);
  EXPECT_EQ(sa.acked_csum, sb.acked_csum);

  // A different overlap (different op owning the middle) must change the
  // checksum even though coverage is identical.
  UnitTable tc;
  UnitLedger c(tc);
  c.ack(3, 5, 0, 100, /*op=*/1);
  c.ack(3, 5, 50, 100, /*op=*/2);
  c.ack(3, 5, 25, 10, /*op=*/4);
  EXPECT_EQ(c.status(3, 5).acked_bytes, sa.acked_bytes);
  EXPECT_NE(c.status(3, 5).acked_csum, sa.acked_csum);
}

TEST(UnitLedger, RotClipsToUnitsSpanningHoles) {
  UnitTable t;
  UnitLedger l(t);
  // Two durable islands with a hole between them.
  l.ack(1, 0, 0, 10, /*op=*/1);
  l.ack(1, 0, 100, 10, /*op=*/2);
  l.durable(1, 0);
  EXPECT_EQ(l.status(1, 0).durable_bytes, 20u);
  // Rot aimed at the hole lands on nothing.
  EXPECT_EQ(l.rot(1, 0, 20, 40), 0u);
  EXPECT_EQ(l.unit_corrupt_bytes(1, 0), 0u);
  // Rot spanning both islands corrupts only the durable overlap.
  EXPECT_EQ(l.rot(1, 0, 5, 100), 10u);  // [5,10) + [100,105)
  EXPECT_EQ(l.unit_corrupt_bytes(1, 0), 10u);
  // Re-rotting the same range is not fresh damage.
  EXPECT_EQ(l.rot(1, 0, 5, 100), 0u);
  EXPECT_EQ(l.corrupt_overlap(1, 0, 0, 7), 2u);  // [5,7)
}

TEST(UnitLedger, TornPrefixUnitsReportUndurableTail) {
  UnitTable t;
  UnitLedger l(t);
  l.ack(2, 1, 0, 100, /*op=*/1);
  l.torn(2, 1, /*prefix=*/60);
  auto st = l.status(2, 1);
  EXPECT_TRUE(st.torn);
  EXPECT_EQ(st.durable_bytes, 60u);
  EXPECT_EQ(l.acked_undurable_bytes(2, 1), 40u);
  // Rot beyond the torn prefix hits nothing durable.
  EXPECT_EQ(l.rot(2, 1, 60, 40), 0u);
  EXPECT_EQ(l.rot(2, 1, 0, 60), 60u);
  // A journal redo restores the full acked set and heals the damage the
  // redo's rewrite covered.
  l.redone(2, 1);
  st = l.status(2, 1);
  EXPECT_FALSE(st.torn);
  EXPECT_EQ(st.durable_bytes, 100u);
  EXPECT_EQ(l.unit_corrupt_bytes(2, 1), 0u);
}

TEST(UnitLedger, ObserveDurableRegistersReadOnlyInputData) {
  UnitTable t;
  UnitLedger l(t);
  l.observe_durable(9, 3, 0, 4096);
  const auto st = l.status(9, 3);
  EXPECT_EQ(st.acked_bytes, 0u);  // never written by the workload
  EXPECT_EQ(st.durable_bytes, 4096u);
  // ...which is exactly the population bit-rot targets in read-mostly runs.
  EXPECT_EQ(l.rot(9, 3, 0, 100), 100u);
}

TEST(UnitLedger, ObserveDurableNeverLaundersCrashLosses) {
  UnitTable t;
  UnitLedger l(t);
  l.ack(4, 2, 0, 100, /*op=*/1);
  l.drop_residency();  // crash before any write-back: the bytes are lost
  EXPECT_EQ(l.acked_undurable_bytes(4, 2), 100u);
  // A later read fetching the unit must not retroactively declare the lost
  // write durable: written units' durability is decided by write-backs alone.
  l.observe_durable(4, 2, 0, 100);
  EXPECT_EQ(l.acked_undurable_bytes(4, 2), 100u);
  EXPECT_EQ(l.status(4, 2).durable_bytes, 0u);
}

TEST(UnitLedger, StaleUnitsResistRepairButHealOnRewrite) {
  UnitTable t;
  UnitLedger l(t);
  l.ack(5, 0, 0, 100, /*op=*/1);
  l.durable(5, 0);
  EXPECT_GT(l.mark_stale(5, 0), 0u);
  EXPECT_TRUE(l.unit_stale(5, 0));
  EXPECT_EQ(l.repair(5, 0), 0u);  // parity agrees with the wrong bytes
  EXPECT_GT(l.unit_corrupt_bytes(5, 0), 0u);
  // A fresh write-back over the whole unit replaces the bytes for real.
  l.ack(5, 0, 0, 100, /*op=*/2);
  l.durable(5, 0);
  EXPECT_EQ(l.unit_corrupt_bytes(5, 0), 0u);
  EXPECT_FALSE(l.unit_stale(5, 0));
  EXPECT_EQ(l.stale_unit_count(), 0u);
}

TEST(UnitLedger, RepairClearsRotAndResidualCountsTrack) {
  UnitTable t;
  UnitLedger l(t);
  l.observe_durable(1, 1, 0, 4096);
  l.observe_durable(1, 2, 0, 4096);
  EXPECT_EQ(l.rot(1, 1, 0, 50), 50u);
  EXPECT_EQ(l.rot(1, 2, 10, 20), 20u);
  EXPECT_EQ(l.total_corrupt_bytes(), 70u);
  EXPECT_EQ(l.corrupt_unit_count(), 2u);
  EXPECT_EQ(l.repair(1, 1), 50u);
  EXPECT_EQ(l.total_corrupt_bytes(), 20u);
  EXPECT_EQ(l.corrupt_unit_count(), 1u);
  EXPECT_EQ(l.repair(1, 2), 20u);
  EXPECT_EQ(l.total_corrupt_bytes(), 0u);
  EXPECT_EQ(l.corrupt_unit_count(), 0u);
}

}  // namespace
}  // namespace sio::pfs
