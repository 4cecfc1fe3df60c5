// Tests for the sparse content store: byte-accurate round trips across chunk
// boundaries, hole semantics, and residency accounting.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "pfs/content.hpp"

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
