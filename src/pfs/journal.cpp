#include "pfs/journal.hpp"

#include <algorithm>

namespace sio::pfs {

std::uint64_t Journal::append(std::uint32_t file, std::uint64_t unit, std::uint64_t len) {
  if (!enabled()) return 0;
  Record& rec = units_.slot(file, unit).journal;
  if (rec.lsn == 0) {
    rec.lsn = next_lsn_++;
    rec.file = file;
    rec.unit = unit;
    ++open_;
  }
  rec.bytes += len;
  ++rec.ops;
  const std::uint64_t logged =
      mode_ == JournalMode::kFull ? kIntentBytes + len : kIntentBytes;
  ++counters_.appends;
  counters_.bytes_logged += logged;
  return logged;
}

bool Journal::retire(std::uint32_t file, std::uint64_t unit) {
  UnitSlot* s = units_.find(file, unit);
  if (s == nullptr || s->journal.lsn == 0) return false;
  s->journal = Record{};
  --open_;
  return true;
}

void Journal::mark_applied(std::uint32_t file, std::uint64_t unit) {
  if (enabled() && retire(file, unit)) ++counters_.trimmed;
}

std::vector<Journal::Record> Journal::unapplied() const {
  std::vector<Record> out;
  out.reserve(open_);
  units_.for_each([&](const UnitSlot& s) {
    if (s.journal.lsn != 0) out.push_back(s.journal);
  });
  std::sort(out.begin(), out.end(),
            [](const Record& a, const Record& b) { return a.lsn < b.lsn; });
  return out;
}

void Journal::note_redone(std::uint32_t file, std::uint64_t unit) {
  ++counters_.redone;
  retire(file, unit);
}

void Journal::note_detected_lost(std::uint32_t file, std::uint64_t unit) {
  ++counters_.detected_lost;
  retire(file, unit);
}

namespace {

// splitmix64 step — a self-contained seeded draw so the journal never touches
// the simulation's shared RNG streams.
std::uint64_t mix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

int Journal::corrupt_open_payloads(std::uint64_t seed, int max_records) {
  if (mode_ != JournalMode::kFull || max_records <= 0 || open_ == 0) return 0;
  // Walk the LSN-ordered open list and pick victims by seeded draw until the
  // budget is spent; clean records before the budget runs out stay clean.
  auto victims = unapplied();
  std::uint64_t state = seed;
  int marked = 0;
  for (const auto& rec : victims) {
    if (marked >= max_records) break;
    if ((mix64(state) & 1) != 0) continue;  // 50/50 per record, deterministic
    Record& open = units_.find(rec.file, rec.unit)->journal;
    if (open.payload_corrupt) continue;
    open.payload_corrupt = true;
    ++marked;
  }
  return marked;
}

}  // namespace sio::pfs
