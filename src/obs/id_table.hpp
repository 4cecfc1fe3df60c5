// Flat open-addressing table keyed by span id.
//
// The tracer's open spans and the critical-path fold's pending children
// are looked up by span id on every open, close and fold.  Ids are dense
// from 1 and the live set is a small moving window (the spans of in-flight
// ops), so a linear-probing table over one vector serves every lookup in
// O(1) without a node allocation per entry.  Capacity doubles to keep the
// load at or below one half and never shrinks, so memory is bounded by the
// peak number of live entries, not by run length.  Deletion shifts later
// cluster members back (no tombstones), so long runs do not degrade.
//
// `for_each` visits entries in slot order, which depends only on the
// insert/erase history and is therefore deterministic; callers that emit
// anything in an observable order still sort what they collect.

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sio::obs {

template <class V>
class IdTable {
 public:
  /// The entry for `id`, or null.  Id 0 is never stored.
  V* find(std::uint32_t id) {
    const std::size_t i = index_of(id);
    return i == kAbsent ? nullptr : &slots_[i].value;
  }
  const V* find(std::uint32_t id) const {
    const std::size_t i = index_of(id);
    return i == kAbsent ? nullptr : &slots_[i].value;
  }

  /// Inserts `id`, which must be nonzero and not present.
  void insert(std::uint32_t id, V value) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    std::size_t i = home(id);
    while (slots_[i].id != 0) i = (i + 1) & mask();
    slots_[i] = Slot{id, std::move(value)};
    ++size_;
  }

  /// Removes `id` if present.
  void erase(std::uint32_t id) {
    std::size_t i = index_of(id);
    if (i == kAbsent) return;
    // Backward-shift deletion: pull each later cluster member whose home
    // does not lie in (hole, j] into the hole, so every probe run stays
    // unbroken.
    for (std::size_t j = (i + 1) & mask(); slots_[j].id != 0; j = (j + 1) & mask()) {
      const std::size_t h = home(slots_[j].id);
      const bool stays = i <= j ? (i < h && h <= j) : (i < h || h <= j);
      if (stays) continue;
      slots_[i] = std::move(slots_[j]);
      i = j;
    }
    slots_[i].id = 0;
    --size_;
  }

  /// Calls `f(id, value)` for every entry, in slot order.
  template <class F>
  void for_each(F&& f) const {
    for (const Slot& s : slots_) {
      if (s.id != 0) f(s.id, s.value);
    }
  }

  std::size_t size() const { return size_; }
  std::size_t bytes_retained() const { return slots_.capacity() * sizeof(Slot); }

 private:
  struct Slot {
    std::uint32_t id = 0;  ///< 0 = empty.
    V value{};
  };

  static constexpr std::size_t kAbsent = ~std::size_t{0};

  std::size_t mask() const { return slots_.size() - 1; }

  std::size_t index_of(std::uint32_t id) const {
    if (id == 0 || slots_.empty()) return kAbsent;
    for (std::size_t i = home(id);; i = (i + 1) & mask()) {
      if (slots_[i].id == id) return i;
      if (slots_[i].id == 0) return kAbsent;
    }
  }

  /// Fibonacci hashing: consecutive ids land far apart, so a window of
  /// recent ids and a few long-lived old ones do not share probe runs.
  std::size_t home(std::uint32_t id) const {
    return static_cast<std::size_t>((id * 2654435769u) >> (32 - bits_));
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    bits_ = old.empty() ? 4 : bits_ + 1;
    slots_.assign(std::size_t{1} << bits_, Slot{});
    size_ = 0;
    for (Slot& s : old) {
      if (s.id != 0) insert(s.id, std::move(s.value));
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  int bits_ = 0;
};

}  // namespace sio::obs
