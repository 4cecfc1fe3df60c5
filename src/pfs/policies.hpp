// File-system design-principle policies (paper §7).
//
// The paper closes with a set of design principles for parallel file
// systems: *request aggregation*, *prefetching* and *write-behind* should be
// done by the file system so applications stop hand-tuning request sizes to
// stripe boundaries.  This module implements them on top of the PFS model:
//
//   * prefetching    — ServerConfig::prefetch_units (sequential detector in
//                      IoServer); `with_prefetch()` builds the preset.
//   * write-behind   — the server write-back cache; `with_write_behind()`
//                      sizes it; setting dirty_limit to 0 degenerates to
//                      write-through (the ablation baseline).
//   * aggregation    — `RequestAggregator`, a client-side collector that
//                      coalesces an application's small sequential writes
//                      into stripe-aligned transfers (what the ESCAT
//                      developers did by hand, provided as a library).
//
// `bench_paper ablation` (bench/bench_paper.cpp) quantifies each against the
// paper's claim that they recover hand-tuned performance from naive request
// streams.

#pragma once

#include <cstdint>
#include <vector>

#include "machine/topology.hpp"
#include "pfs/pfs.hpp"

namespace sio::pfs {

/// Server preset with sequential prefetch of `units` extra stripe units.
ServerConfig with_prefetch(ServerConfig base, int units);

/// Server preset with a write-back cache of `dirty_units` (0 = write-through:
/// every buffered write goes synchronously to the array).
ServerConfig with_write_behind(ServerConfig base, std::size_t dirty_units);

/// Client-side request aggregation: collects small sequential writes and
/// forwards them to the file system as stripe-unit-sized transfers.  One
/// aggregator serves one (node, file) stream.
class RequestAggregator {
 public:
  RequestAggregator(Pfs& fs, FileState& file, hw::NodeId node)
      : fs_(fs), file_(file), node_(node), unit_(fs.layout().unit()) {}

  /// Adds [offset, offset+bytes).  Contiguous runs coalesce; a run is
  /// shipped as soon as it covers a full stripe unit.  Non-contiguous
  /// submissions flush the pending run first.
  sim::Task<void> submit(std::uint64_t offset, std::uint64_t bytes);

  /// Ships whatever is pending.
  sim::Task<void> drain();

  std::uint64_t flushes() const { return flushes_; }
  std::uint64_t submitted_bytes() const { return submitted_; }

 private:
  Pfs& fs_;
  FileState& file_;
  hw::NodeId node_;
  std::uint64_t unit_;
  std::uint64_t start_ = 0;
  std::uint64_t len_ = 0;
  std::uint64_t flushes_ = 0;
  std::uint64_t submitted_ = 0;
};

}  // namespace sio::pfs
