#include "pfs/content.hpp"

#include <algorithm>
#include <cstring>

namespace sio::pfs {

void SparseContent::write(std::uint64_t offset, std::span<const std::byte> data) {
  std::uint64_t pos = offset;
  std::size_t done = 0;
  while (done < data.size()) {
    const std::uint64_t chunk = pos / kChunk;
    const std::uint64_t in_chunk = pos % kChunk;
    const std::size_t take =
        std::min<std::size_t>(data.size() - done, static_cast<std::size_t>(kChunk - in_chunk));
    auto& buf = chunks_[chunk];
    if (buf.empty()) buf.assign(kChunk, std::byte{0});
    std::memcpy(buf.data() + in_chunk, data.data() + done, take);
    pos += take;
    done += take;
  }
  high_water_ = std::max(high_water_, offset + data.size());
}

namespace {

constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

UnitLedger::Unit* UnitLedger::find(std::uint32_t file, std::uint64_t unit) const {
  UnitSlot* s = units_.find(file, unit);
  return s != nullptr && s->ledger.live ? &s->ledger : nullptr;
}

UnitLedger::Unit& UnitLedger::get(std::uint32_t file, std::uint64_t unit) {
  Unit& u = units_.slot(file, unit).ledger;
  u.live = true;
  return u;
}

void UnitLedger::ack(std::uint32_t file, std::uint64_t unit, std::uint64_t offset,
                     std::uint64_t len, std::uint64_t op_id) {
  if (len == 0) return;
  Unit& u = get(file, unit);
  insert_span(u.acked, offset, offset + len, op_id);
  insert_span(u.resident, offset, offset + len, op_id);
}

void UnitLedger::durable(std::uint32_t file, std::uint64_t unit) {
  if (Unit* u = find(file, unit)) write_back(*u, u->resident, ~std::uint64_t{0}, /*torn=*/false);
}

void UnitLedger::torn(std::uint32_t file, std::uint64_t unit, std::uint64_t prefix) {
  if (Unit* u = find(file, unit)) write_back(*u, u->resident, prefix, /*torn=*/true);
}

void UnitLedger::redone(std::uint32_t file, std::uint64_t unit) {
  if (Unit* u = find(file, unit)) write_back(*u, u->acked, ~std::uint64_t{0}, /*torn=*/false);
}

void UnitLedger::observe_durable(std::uint32_t file, std::uint64_t unit, std::uint64_t offset,
                                 std::uint64_t len) {
  if (len == 0) return;
  Unit& u = get(file, unit);  // created on first observation
  // Only never-written units: for acked data, durability is decided by
  // write-backs alone — a fetch of a unit whose dirty spans a crash dropped
  // must not launder the loss into "durable".
  if (!u.acked.empty()) return;
  insert_span(u.on_disk, offset, offset + len, /*op=*/0);
}

std::uint64_t UnitLedger::rot(std::uint32_t file, std::uint64_t unit, std::uint64_t offset,
                              std::uint64_t len) {
  Unit* u = find(file, unit);
  if (u == nullptr || len == 0) return 0;
  const std::uint64_t lo = offset;
  const std::uint64_t hi = offset + len;
  std::uint64_t fresh = 0;
  // Clip the rot window to what is actually durable, span by span, and count
  // only bytes that were not already corrupt.
  for (const auto& [begin, span] : u->on_disk) {
    const std::uint64_t b = std::max(begin, lo);
    const std::uint64_t e = std::min(span.end, hi);
    if (b >= e) continue;
    fresh += (e - b) - overlap_bytes(u->corrupt, b, e);
    insert_span(u->corrupt, b, e, /*op=*/0);
  }
  return fresh;
}

std::uint64_t UnitLedger::mark_stale(std::uint32_t file, std::uint64_t unit) {
  Unit* u = find(file, unit);
  if (u == nullptr) return 0;
  std::uint64_t fresh = 0;
  for (const auto& [begin, span] : u->on_disk) {
    fresh += (span.end - begin) - overlap_bytes(u->corrupt, begin, span.end);
    insert_span(u->corrupt, begin, span.end, /*op=*/0);
  }
  if (!u->corrupt.empty()) u->stale = true;
  return fresh;
}

std::uint64_t UnitLedger::repair(std::uint32_t file, std::uint64_t unit) {
  Unit* u = find(file, unit);
  if (u == nullptr) return 0;
  if (u->stale) return 0;  // parity matches the wrong bytes; nothing to regenerate from
  const std::uint64_t cleared = clipped(u->corrupt, ~std::uint64_t{0}).first;
  u->corrupt.clear();
  return cleared;
}

std::uint64_t UnitLedger::corrupt_overlap(std::uint32_t file, std::uint64_t unit,
                                          std::uint64_t offset, std::uint64_t len) const {
  const Unit* u = find(file, unit);
  if (u == nullptr || len == 0) return 0;
  return overlap_bytes(u->corrupt, offset, offset + len);
}

std::uint64_t UnitLedger::unit_corrupt_bytes(std::uint32_t file, std::uint64_t unit) const {
  const Unit* u = find(file, unit);
  if (u == nullptr) return 0;
  return clipped(u->corrupt, ~std::uint64_t{0}).first;
}

bool UnitLedger::unit_stale(std::uint32_t file, std::uint64_t unit) const {
  const Unit* u = find(file, unit);
  return u != nullptr && u->stale;
}

std::uint64_t UnitLedger::total_corrupt_bytes() const {
  std::uint64_t total = 0;
  units_.for_each([&](const UnitSlot& s) {
    total += clipped(s.ledger.corrupt, ~std::uint64_t{0}).first;
  });
  return total;
}

std::uint64_t UnitLedger::corrupt_unit_count() const {
  std::uint64_t n = 0;
  units_.for_each([&](const UnitSlot& s) { n += s.ledger.corrupt.empty() ? 0 : 1; });
  return n;
}

std::uint64_t UnitLedger::stale_unit_count() const {
  std::uint64_t n = 0;
  units_.for_each([&](const UnitSlot& s) { n += s.ledger.stale ? 1 : 0; });
  return n;
}

void UnitLedger::drop_residency() {
  units_.for_each([](UnitSlot& s) { s.ledger.resident.clear(); });
}

std::uint64_t UnitLedger::acked_undurable_bytes(std::uint32_t file, std::uint64_t unit) const {
  const Unit* u = find(file, unit);
  if (u == nullptr) return 0;
  const std::uint64_t acked = clipped(u->acked, ~std::uint64_t{0}).first;
  const std::uint64_t disk = clipped(u->on_disk, ~std::uint64_t{0}).first;
  return acked > disk ? acked - disk : 0;
}

UnitLedger::UnitStatus UnitLedger::status(std::uint32_t file, std::uint64_t unit) const {
  const Unit* u = find(file, unit);
  if (u == nullptr) return {};
  return status_of(*u);
}

void UnitLedger::insert_span(SpanMap& spans, std::uint64_t begin, std::uint64_t end,
                             std::uint64_t op) {
  // Trim a predecessor span that overlaps [begin, end).
  auto it = spans.lower_bound(begin);
  if (it != spans.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end > begin) {
      if (prev->second.end > end) spans[end] = LedgerSpan{prev->second.end, prev->second.op};
      prev->second.end = begin;
    }
  }
  // Remove or trim spans starting inside [begin, end).
  it = spans.lower_bound(begin);
  while (it != spans.end() && it->first < end) {
    if (it->second.end <= end) {
      it = spans.erase(it);
    } else {
      const LedgerSpan tail = it->second;
      spans.erase(it);
      spans[end] = tail;
      break;
    }
  }
  spans[begin] = LedgerSpan{end, op};
}

std::uint64_t UnitLedger::remove_span(SpanMap& spans, std::uint64_t begin, std::uint64_t end) {
  if (begin >= end) return 0;
  const std::uint64_t removed = overlap_bytes(spans, begin, end);
  if (removed == 0) return 0;
  // Carving out a range is inserting it then erasing the inserted span.
  insert_span(spans, begin, end, /*op=*/0);
  spans.erase(begin);
  return removed;
}

std::uint64_t UnitLedger::overlap_bytes(const SpanMap& spans, std::uint64_t begin,
                                        std::uint64_t end) {
  std::uint64_t bytes = 0;
  for (const auto& [b, span] : spans) {
    if (b >= end) break;
    const std::uint64_t lo = std::max(b, begin);
    const std::uint64_t hi = std::min(span.end, end);
    if (lo < hi) bytes += hi - lo;
  }
  return bytes;
}

void UnitLedger::write_back(Unit& u, const SpanMap& written, std::uint64_t limit, bool torn) {
  for (const auto& [begin, span] : written) {
    if (begin >= limit) break;
    const std::uint64_t end = std::min(span.end, limit);
    insert_span(u.on_disk, begin, end, span.op);
    remove_span(u.corrupt, begin, end);
  }
  if (u.corrupt.empty()) u.stale = false;
  u.torn = torn;
}

std::pair<std::uint64_t, std::uint64_t> UnitLedger::clipped(const SpanMap& spans,
                                                            std::uint64_t limit) {
  std::uint64_t bytes = 0;
  std::uint64_t csum = kFnvBasis;
  for (const auto& [begin, span] : spans) {
    if (begin >= limit) break;
    const std::uint64_t end = std::min(span.end, limit);
    bytes += end - begin;
    csum = fnv_mix(csum, begin);
    csum = fnv_mix(csum, end);
    csum = fnv_mix(csum, span.op);
  }
  return {bytes, csum};
}

UnitLedger::UnitStatus UnitLedger::status_of(const Unit& u) {
  UnitStatus s;
  const auto [abytes, acsum] = clipped(u.acked, ~std::uint64_t{0});
  s.acked_bytes = abytes;
  s.acked_csum = acsum;
  const auto [dbytes, dcsum] = clipped(u.on_disk, ~std::uint64_t{0});
  s.durable_bytes = dbytes;
  s.durable_csum = dcsum;
  s.torn = u.torn;
  if (!u.corrupt.empty()) {
    // Fold the corrupt spans into the durable checksum so an omniscient scrub
    // sees the wrong content, while corruption-free units keep the exact
    // checksums they had before the integrity subsystem existed.
    const auto [cbytes, ccsum] = clipped(u.corrupt, ~std::uint64_t{0});
    s.corrupt_bytes = cbytes;
    s.durable_csum = fnv_mix(s.durable_csum, ccsum);
  }
  s.stale = u.stale;
  return s;
}

void SparseContent::read(std::uint64_t offset, std::span<std::byte> out) const {
  std::uint64_t pos = offset;
  std::size_t done = 0;
  while (done < out.size()) {
    const std::uint64_t chunk = pos / kChunk;
    const std::uint64_t in_chunk = pos % kChunk;
    const std::size_t take =
        std::min<std::size_t>(out.size() - done, static_cast<std::size_t>(kChunk - in_chunk));
    const auto it = chunks_.find(chunk);
    if (it == chunks_.end()) {
      std::memset(out.data() + done, 0, take);
    } else {
      std::memcpy(out.data() + done, it->second.data() + in_chunk, take);
    }
    pos += take;
    done += take;
  }
}

}  // namespace sio::pfs
