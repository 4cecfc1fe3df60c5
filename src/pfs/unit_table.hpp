// One I/O server's per-stripe-unit state, kept in one table: each unit's
// disk offset, cache state, ledger spans, open journal record and scrub
// membership live in one slot.  Rows are file ids and a row's slots are
// indexed by the unit's local index on the node (`unit / stride`), so walking
// the table visits units in (file, unit) order — the order the scrub, the
// scrubber and the bit-rot injector follow.  Slots are never freed and never
// move: a coroutine may hold one across a suspension.

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "sim/assert.hpp"

namespace sio::pfs {

/// One ledger interval [begin, end) of a unit, keyed by `begin` in a SpanMap
/// and tagged with the op that wrote it.
struct LedgerSpan {
  std::uint64_t end = 0;
  std::uint64_t op = 0;
};
using SpanMap = std::map<std::uint64_t, LedgerSpan>;  // begin -> (end, op); disjoint

/// A unit's acked-vs-durable bookkeeping (see UnitLedger).
struct LedgerUnit {
  bool live = false;  ///< the ledger tracks this unit
  SpanMap acked;      ///< cumulative client view — never shrinks
  SpanMap resident;   ///< what the server cache holds — cleared by a crash
  SpanMap on_disk;    ///< what actually reached the array
  bool torn = false;
  SpanMap corrupt;     ///< durable spans holding wrong content
  bool stale = false;  ///< corruption is parity-consistent (unrepairable)
};

/// A unit's open write-ahead journal record (see Journal); open iff lsn != 0.
struct JournalRecord {
  std::uint64_t lsn = 0;  ///< log sequence number of first append
  std::uint32_t file = 0;
  std::uint64_t unit = 0;
  std::uint64_t bytes = 0;       ///< acked payload folded into the record
  std::uint64_t ops = 0;         ///< acked ops folded into the record
  bool payload_corrupt = false;  ///< bit-rot hit the logged payload
};

struct UnitSlot;

/// Links of one intrusive list through the slots.
struct UnitLinks {
  UnitSlot* prev = nullptr;
  UnitSlot* next = nullptr;
};

struct UnitSlot {
  static constexpr std::uint64_t kUnplaced = ~std::uint64_t{0};

  UnitSlot(std::uint32_t f, std::uint64_t u) : file(f), unit(u) {}

  const std::uint32_t file;
  const std::uint64_t unit;  ///< global stripe-unit index
  /// Where the unit starts on the node's array (kUnplaced until placed).
  std::uint64_t disk_offset = kUnplaced;

  // Cache state: volatile, a crash clears it.
  bool resident = false;
  bool dirty = false;
  /// Integrity off only: the fetch that filled the cache copied corrupt
  /// durable bytes, so hits serve them silently too.
  bool tainted = false;
  UnitLinks lru;    ///< resident units, least recently used first
  UnitLinks flush;  ///< dirty units, oldest first

  /// In the scrub / bit-rot population: a layout fact, survives crashes.
  bool tracked = false;

  LedgerUnit ledger;
  JournalRecord journal;
};

/// An intrusive FIFO threaded through one UnitLinks member of each slot: a
/// slot joins at the back and may leave from anywhere.  A slot is on the
/// list at most once.
template <UnitLinks UnitSlot::*Links>
class UnitList {
 public:
  UnitSlot* front() const { return head_; }
  static UnitSlot* next(const UnitSlot& s) { return (s.*Links).next; }
  std::size_t size() const { return size_; }

  void push_back(UnitSlot& s) {
    s.*Links = UnitLinks{tail_, nullptr};
    (tail_ != nullptr ? (tail_->*Links).next : head_) = &s;
    tail_ = &s;
    ++size_;
  }

  void erase(UnitSlot& s) {
    const UnitLinks l = s.*Links;
    (l.prev != nullptr ? (l.prev->*Links).next : head_) = l.next;
    (l.next != nullptr ? (l.next->*Links).prev : tail_) = l.prev;
    s.*Links = UnitLinks{};
    --size_;
  }

  void clear() {
    while (head_ != nullptr) erase(*head_);
  }

 private:
  UnitSlot* head_ = nullptr;
  UnitSlot* tail_ = nullptr;
  std::size_t size_ = 0;
};

class UnitTable {
 public:
  /// Holds the units with `unit % stride == phase`: one I/O node's share of
  /// every file.  The defaults hold every unit.
  explicit UnitTable(std::uint64_t stride = 1, std::uint64_t phase = 0)
      : stride_(stride), phase_(phase) {}

  /// The unit's slot, or nullptr if it has none yet.
  UnitSlot* find(std::uint32_t file, std::uint64_t unit) const {
    const std::uint64_t i = local(unit);
    if (file >= rows_.size() || i >= rows_[file].slots.size()) return nullptr;
    return rows_[file].slots[i].get();
  }

  /// The unit's slot, created empty on first use.
  UnitSlot& slot(std::uint32_t file, std::uint64_t unit) {
    const std::uint64_t i = local(unit);
    auto& slots = row(file).slots;
    if (i >= slots.size()) slots.resize(i + 1);
    if (slots[i] == nullptr) slots[i] = std::make_unique<UnitSlot>(file, unit);
    return *slots[i];
  }

  /// Calls fn(UnitSlot&) on every slot in (file, unit) order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Row& row : rows_) {
      for (const auto& s : row.slots) {
        if (s != nullptr) fn(*s);
      }
    }
  }

  /// The first tracked slot after `after` in (file, unit) order, wrapping at
  /// the end; `after == nullptr` starts at the beginning.  nullptr when no
  /// slot is tracked.
  UnitSlot* next_tracked(const UnitSlot* after) const {
    std::size_t file = after == nullptr ? 0 : after->file;
    std::uint64_t i = after == nullptr ? 0 : local(after->unit) + 1;
    for (int pass = 0; pass < 2; ++pass, file = 0, i = 0) {
      for (; file < rows_.size(); ++file, i = 0) {
        const auto& slots = rows_[file].slots;
        for (; i < slots.size(); ++i) {
          if (slots[i] != nullptr && slots[i]->tracked) return slots[i].get();
        }
      }
    }
    return nullptr;
  }

  /// Per-file sequential-read detector: the unit a buffered read must hit
  /// next to extend the file's sequential run (kNoRun = no run; a crash
  /// forgets every run).
  std::uint64_t& next_in_run(std::uint32_t file) { return row(file).next_in_run; }

  void forget_runs() {
    for (Row& row : rows_) row.next_in_run = kNoRun;
  }

 private:
  static constexpr std::uint64_t kNoRun = ~std::uint64_t{0};

  struct Row {
    std::vector<std::unique_ptr<UnitSlot>> slots;  // by local index
    std::uint64_t next_in_run = kNoRun;
  };

  Row& row(std::uint32_t file) {
    if (file >= rows_.size()) rows_.resize(std::size_t{file} + 1);
    return rows_[file];
  }

  std::uint64_t local(std::uint64_t unit) const {
    SIO_ASSERT(unit % stride_ == phase_);  // a node only holds units it owns
    return unit / stride_;
  }

  std::uint64_t stride_;
  std::uint64_t phase_;
  std::vector<Row> rows_;
};

}  // namespace sio::pfs
