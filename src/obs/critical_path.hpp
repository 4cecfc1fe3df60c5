// Critical-path latency attribution over span trees.
//
// For each closed root span, every tick of its interval is attributed to
// exactly one stage: walking children latest-end-first, the part of the
// parent interval not covered by the responsible child belongs to the
// parent's own stage, and each child recursively tiles the window it owns.
// Overlapping siblings (parallel stripe segments under one op) resolve to
// the later-ending one — the longest path — and the earlier sibling keeps
// only the window where it is the latest unfinished work.  The tiling is
// exact by construction: per op class, the per-stage sums add up to the
// summed root latency *to the tick*, which RunResult cross-checks.
//
// `CriticalPathFold` consumes spans in emission order.  Children close
// before their parent, so the fold files each non-root span under its
// parent's id; when a root closes, its whole tree is reachable by walking
// down those buckets, gets folded in O(tree), and is dropped.  Retained
// memory is the spans of in-flight ops (plus any orphan whose parent never
// closes), never run length.  Folds merge exactly (elementwise sums), so
// sharded runs reduce to the same report byte-for-byte.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/id_table.hpp"
#include "obs/span.hpp"

namespace sio::obs {

/// Rows are keyed by the root span's `info` field — the op class (pablo
/// IoOp value for PFS ops).  Eight slots cover the trace dialect's op set.
inline constexpr int kOpClassSlots = 8;

/// Per-(op class, stage) exclusive critical-path time.
struct CriticalPathReport {
  struct Row {
    std::uint64_t ops = 0;              ///< Root spans folded into this row.
    std::uint64_t abandoned = 0;        ///< Spans flagged abandoned (any stage).
    sim::Tick total_latency = 0;        ///< Sum of root durations.
    std::array<sim::Tick, kStageKindCount> exclusive{};   ///< Critical-path ticks.
    std::array<std::uint64_t, kStageKindCount> spans{};   ///< Span counts.

    sim::Tick exclusive_sum() const;
    bool operator==(const Row&) const = default;
  };

  std::array<Row, kOpClassSlots> rows{};
  std::uint64_t roots = 0;  ///< Total root spans folded.
  std::uint64_t spans = 0;  ///< Total spans folded (roots included).

  bool empty() const { return spans == 0; }

  /// Elementwise sum; exact and associative.
  void merge(const CriticalPathReport& o);

  /// FNV-1a over every counter, for determinism fingerprints.
  std::uint64_t fingerprint() const;

  bool operator==(const CriticalPathReport&) const = default;
};

/// Streaming fold: feed spans in emission order (children before their
/// parent); each tree is attributed and discarded when its root arrives.
/// A span whose parent never arrives stays pending and is never folded,
/// exactly as the batch `critical_path()` ignores it.
class CriticalPathFold {
 public:
  void on_span(const SpanEvent& ev);

  const CriticalPathReport& report() const { return report_; }
  std::size_t pending_spans() const { return pending_; }

  /// Capacity of the pending pool, the parent-id table and the tree
  /// scratch buffer.  Each follows a high-water mark of in-flight spans.
  std::size_t bytes_retained() const;

  /// Adds `o`'s report and takes copies of its pending spans.  Span ids
  /// must be unique across the two folds (two parts of one stream).
  void merge(const CriticalPathFold& o);

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// One pending span, linked into its parent's bucket or the free list.
  struct Pending {
    SpanEvent ev;
    std::uint32_t next = kNone;
  };

  void add_pending(const SpanEvent& ev);

  CriticalPathReport report_;
  std::vector<Pending> pool_;        ///< Slots recycled through `free_`.
  std::uint32_t free_ = kNone;       ///< Head of the free-slot list.
  IdTable<std::uint32_t> children_;  ///< Parent id -> first pending child.
  std::size_t pending_ = 0;
  std::vector<const SpanEvent*> tree_;  ///< Scratch: the tree being folded.
};

/// Batch attribution over a full span vector (any order, multiple trees).
/// Spans whose parent never closed are ignored, matching the streaming fold.
CriticalPathReport critical_path(const std::vector<SpanEvent>& spans);

/// Renders the report as an aligned text table.  `class_name(c)` maps an op
/// class index to its display name (pablo passes the SDDF op mnemonic).
std::string render_critical_path(const CriticalPathReport& report,
                                 std::string_view (*class_name)(int));

}  // namespace sio::obs
