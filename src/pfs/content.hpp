// Sparse byte-accurate file contents.
//
// The workload runs only need extents and sizes (storing the quadrature
// data's gigabytes would be pointless), but the correctness tests verify
// actual bytes written and read back through every access mode.  This store
// keeps contents in 4 KB chunks allocated on first write; reads of holes
// return zero bytes, like a POSIX sparse file.

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "pfs/unit_table.hpp"

namespace sio::pfs {

class SparseContent {
 public:
  static constexpr std::uint64_t kChunk = 4096;

  /// Writes `data` at `offset`, allocating chunks as needed.
  void write(std::uint64_t offset, std::span<const std::byte> data);

  /// Reads into `out` from `offset`; unwritten ranges read as zero.
  void read(std::uint64_t offset, std::span<std::byte> out) const;

  /// Bytes currently resident (allocated chunks * chunk size).
  std::uint64_t resident_bytes() const { return chunks_.size() * kChunk; }

  /// Highest offset ever written (0 if never written).
  std::uint64_t high_water() const { return high_water_; }

  void clear() {
    chunks_.clear();
    high_water_ = 0;
  }

 private:
  std::map<std::uint64_t, std::vector<std::byte>> chunks_;  // chunk index -> bytes
  std::uint64_t high_water_ = 0;
};

/// Per-stripe-unit integrity ledger: what the server *acknowledged* versus
/// what actually reached the RAID array.  Pure bookkeeping — it costs no
/// simulated time and survives crashes (it models the scrubber's omniscient
/// view, not any on-node state), so enabling it never perturbs a run.
///
/// Every acknowledged buffered write is recorded as an interval tagged with
/// its op id, in two places: the cumulative *acked* set (the clients' view,
/// never shrinks) and the *resident* set (what the server cache currently
/// holds for the unit).  A completed write-back merges the resident spans
/// into the *on-disk* set — a crash that dropped the cache first (clearing
/// residency) therefore leaves the pre-crash spans permanently undurable,
/// which is exactly the write-behind loss the scrub reports.  A torn
/// write-back merges only a prefix; a full-journal redo merges the whole
/// acked set (the log holds the payload).  The post-run scrub compares the
/// acked and on-disk sides per unit.
///
/// The per-unit spans live in the LedgerUnit of each unit's UnitTable slot;
/// the ledger owns no container of its own.
class UnitLedger {
 public:
  explicit UnitLedger(UnitTable& units) : units_(units) {}

  struct UnitStatus {
    std::uint64_t acked_bytes = 0;    ///< bytes ever acknowledged (coverage)
    std::uint64_t durable_bytes = 0;  ///< bytes covered by the durable snapshot
    std::uint64_t acked_csum = 0;     ///< FNV-1a over the acked interval set
    std::uint64_t durable_csum = 0;   ///< checksum snapshotted at last write-back
    bool torn = false;                ///< last write-back applied only a prefix
    std::uint64_t corrupt_bytes = 0;  ///< durable bytes holding wrong content
    bool stale = false;               ///< wrong-but-parity-consistent content
  };

  /// Records an acknowledged buffered write of [offset, offset+len) within
  /// the unit.  Idempotent: a crash-replayed duplicate with the same op id
  /// and range leaves the ledger byte-identical.
  void ack(std::uint32_t file, std::uint64_t unit, std::uint64_t offset, std::uint64_t len,
           std::uint64_t op_id);

  /// A write-back of the unit completed: its resident spans are on the array.
  void durable(std::uint32_t file, std::uint64_t unit);

  /// A crash interrupted the unit's write-back after `prefix` bytes: only
  /// resident spans inside [0, prefix) reached the array; the unit is torn.
  void torn(std::uint32_t file, std::uint64_t unit, std::uint64_t prefix);

  /// A full-journal redo rewrote the unit from the logged payload: the whole
  /// acked set is on the array (and a torn tail, if any, is repaired).
  void redone(std::uint32_t file, std::uint64_t unit);

  /// A read fetched [offset, offset+len) of the unit from the array: those
  /// bytes demonstrably exist durable (pre-existing input data the workload
  /// never wrote).  Creates the unit if needed and merges the span into the
  /// on-disk set without touching the acked/resident sides — this is how
  /// read-mostly workloads give bit-rot a durable population to target.
  void observe_durable(std::uint32_t file, std::uint64_t unit, std::uint64_t offset,
                       std::uint64_t len);

  /// The server crashed: every unit's cache copy is gone.  Spans not yet on
  /// the array become permanently undurable unless a redo restores them.
  void drop_residency();

  /// Acknowledged bytes not covered by the durable snapshot (what a crash
  /// would lose if the unit's dirty cache copy were dropped right now).
  std::uint64_t acked_undurable_bytes(std::uint32_t file, std::uint64_t unit) const;

  // --- silent-corruption bookkeeping (the integrity subsystem's substrate) ---

  /// Bit-rot flipped durable bytes: marks [offset, offset+len) of the unit's
  /// on-disk spans corrupt.  Returns the newly-corrupt byte count (0 if the
  /// range holds nothing durable or was already corrupt).  RAID-3 parity still
  /// covers the *original* bytes, so rot is parity-repairable.
  std::uint64_t rot(std::uint32_t file, std::uint64_t unit, std::uint64_t offset,
                    std::uint64_t len);

  /// The unit's whole durable copy holds wrong content (a phantom or
  /// misdirected write-back, or a redo from a rotted journal payload): every
  /// on-disk span becomes corrupt and the unit is *stale* — parity was
  /// computed over the wrong bytes, so it is NOT parity-repairable.  Returns
  /// the newly-corrupt byte count.
  std::uint64_t mark_stale(std::uint32_t file, std::uint64_t unit);

  /// A parity regeneration rewrote the unit: clears its corruption.  Stale
  /// units cannot be repaired this way (returns 0 and leaves them corrupt).
  std::uint64_t repair(std::uint32_t file, std::uint64_t unit);

  /// Corrupt bytes inside [offset, offset+len) of the unit's durable copy.
  std::uint64_t corrupt_overlap(std::uint32_t file, std::uint64_t unit, std::uint64_t offset,
                                std::uint64_t len) const;

  std::uint64_t unit_corrupt_bytes(std::uint32_t file, std::uint64_t unit) const;
  bool unit_stale(std::uint32_t file, std::uint64_t unit) const;

  /// Residual corruption across all tracked units (the acceptance metric:
  /// integrity=repair must end every run with both at zero).
  std::uint64_t total_corrupt_bytes() const;
  std::uint64_t corrupt_unit_count() const;
  std::uint64_t stale_unit_count() const;

  UnitStatus status(std::uint32_t file, std::uint64_t unit) const;

  /// Deterministic (key-ordered) iteration for the post-run scrub.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    units_.for_each([&](const UnitSlot& s) {
      if (s.ledger.live) fn(s.file, s.unit, status_of(s.ledger));
    });
  }

 private:
  using Unit = LedgerUnit;

  /// The unit's ledger entry, or nullptr if the ledger does not track it.
  Unit* find(std::uint32_t file, std::uint64_t unit) const;
  /// The unit's ledger entry, created on first use.
  Unit& get(std::uint32_t file, std::uint64_t unit);

  static void insert_span(SpanMap& spans, std::uint64_t begin, std::uint64_t end,
                          std::uint64_t op);
  /// Removes [begin, end) from `spans`; returns the byte count removed.
  static std::uint64_t remove_span(SpanMap& spans, std::uint64_t begin, std::uint64_t end);
  /// Bytes of `spans` falling inside [begin, end).
  static std::uint64_t overlap_bytes(const SpanMap& spans, std::uint64_t begin,
                                     std::uint64_t end);
  /// The `written` spans below `limit` reached the array: they join the
  /// on-disk set (an idealized sector-granular write: untouched ranges
  /// survive) and heal any corrupt span they cover (`stale` clears once
  /// nothing is left).  `torn` records whether the write stopped at `limit`.
  static void write_back(Unit& u, const SpanMap& written, std::uint64_t limit, bool torn);
  /// Coverage + checksum of a span set clipped to [0, limit).
  static std::pair<std::uint64_t, std::uint64_t> clipped(const SpanMap& spans,
                                                         std::uint64_t limit);
  static UnitStatus status_of(const Unit& u);

  UnitTable& units_;
};

}  // namespace sio::pfs
