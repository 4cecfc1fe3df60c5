// PFS client file handle.
//
// A `FileHandle` is one process's view of an open PFS file: its private file
// pointer, its client buffer cache (when the mode allows caching), and the
// per-handle operation counter M_RECORD uses to map accesses to records.
// Every operation is traced through the Pablo collector with its full
// duration, including token waits, rendezvous waits and disk queueing —
// matching what instrumented I/O wrappers measured on the real machine.
//
// Mode semantics implemented here (see types.hpp for the catalog):
//   * M_UNIX on a *shared* file serializes every data operation on the
//     file's token and every seek on the metadata server; client caching is
//     disabled for coherence.  A file opened by a single process keeps full
//     client caching — which is why ESCAT's node-zero phases were cheap.
//   * M_RECORD computes offset = (k*N + rank) * record_size for the
//     process's k-th access and goes to the servers in parallel.
//   * M_ASYNC is M_UNIX minus sharing semantics: private pointers, no
//     token, client caching allowed.
//   * M_GLOBAL rendezvouses the group, performs ONE transfer (the leader's)
//     and broadcasts; M_SYNC rendezvouses, assigns node-ordered offsets
//     from the exchanged sizes, and serializes in rank order.
//   * M_LOG reserves space under the token FCFS and transfers.

#pragma once

#include <cstdint>
#include <span>

#include "machine/topology.hpp"
#include "obs/trace.hpp"
#include "pfs/file.hpp"
#include "pfs/group.hpp"
#include "pfs/types.hpp"
#include "sim/task.hpp"

namespace sio::pfs {

class Pfs;

class FileHandle {
 public:
  FileHandle() = default;

  FileHandle(FileHandle&&) = default;
  FileHandle& operator=(FileHandle&&) = default;
  FileHandle(const FileHandle&) = delete;
  FileHandle& operator=(const FileHandle&) = delete;

  bool is_open() const { return open_; }
  hw::NodeId node() const { return node_; }
  std::uint64_t tell() const { return pos_; }
  IoMode mode() const;
  FileState& state() {
    SIO_ASSERT(file_ != nullptr);
    return *file_;
  }

  /// Reads `bytes` at the mode-determined offset.  Returns the bytes
  /// actually read (clamped at end-of-file).  If `out` is non-empty and the
  /// file stores contents, the data is copied into it.
  sim::Task<std::uint64_t> read(std::uint64_t bytes, std::span<std::byte> out = {});

  /// Writes `bytes` at the mode-determined offset.  If `data` is non-empty
  /// it must be exactly `bytes` long and is stored when the file keeps
  /// contents.  Returns the bytes written.
  sim::Task<std::uint64_t> write(std::uint64_t bytes, std::span<const std::byte> data = {});

  /// Moves the private file pointer (modes with private pointers only).
  /// On a shared M_UNIX file this is a metadata-server operation — the very
  /// operation that dominated ESCAT version B's I/O time.
  sim::Task<void> seek(std::uint64_t offset);

  /// Sets the file's access mode.  Collective when `group()` is set (all
  /// members must call); `record_size` must be given when switching to
  /// M_RECORD.  Throws PfsError if the OS release lacks the mode.
  sim::Task<void> set_iomode(IoMode mode, std::uint64_t record_size = 0);

  /// Flushes the client write buffer and the handle's dirty server state.
  sim::Task<void> flush();

  /// Closes the handle (flushes first).
  sim::Task<void> close();

  /// Enables/disables buffering from now on (PRISM version C's fateful
  /// switch).  Disabling also flushes and drops the client cache.
  void set_buffering(bool on);
  bool buffering() const { return buffering_; }

  /// The collective group this handle participates in (set by gopen, or
  /// explicitly for handles that must do collective data ops after a plain
  /// open).  May be null for purely private handles.
  Group* group() const { return group_; }
  void set_group(Group* g);
  int rank() const { return rank_; }

 private:
  friend class Pfs;

  Pfs* fs_ = nullptr;
  FileState* file_ = nullptr;
  hw::NodeId node_ = 0;
  Group* group_ = nullptr;
  int rank_ = 0;
  bool open_ = false;
  bool buffering_ = true;

  std::uint64_t pos_ = 0;
  std::uint64_t op_index_ = 0;        // M_RECORD wave counter
  std::uint64_t last_op_offset_ = 0;  // offset of the last data op, for tracing

  /// Context of the in-progress operation's root span; mode helpers open
  /// their children (meta, sync, cache, segment...) under it.  Null tracer
  /// when causal tracing is off — the zero-cost disabled path.
  obs::SpanContext op_span_{};

  // One-unit client read cache.
  std::int64_t cached_unit_ = -1;

  // Client write-coalescing buffer (start, length), active when valid.
  std::uint64_t wb_start_ = 0;
  std::uint64_t wb_len_ = 0;

  bool client_cache_allowed() const;
  sim::Task<void> cached_read(std::uint64_t offset, std::uint64_t bytes);
  sim::Task<void> buffered_write(std::uint64_t offset, std::uint64_t bytes);
  sim::Task<void> flush_write_buffer();

  /// The current mode's body for one data op; returns its task unstarted,
  /// so read() and write() await it with no frame in between.
  sim::Task<std::uint64_t> access(std::uint64_t bytes, bool is_write);
  // One body per access mode, serving both directions.
  sim::Task<std::uint64_t> unix_or_async(std::uint64_t bytes, bool is_write);
  sim::Task<std::uint64_t> record(std::uint64_t bytes, bool is_write);
  sim::Task<std::uint64_t> global(std::uint64_t bytes, bool is_write);
  sim::Task<std::uint64_t> sync(std::uint64_t bytes, bool is_write);
  sim::Task<std::uint64_t> log(std::uint64_t bytes, bool is_write);

  void require_group(const char* what) const;
};

}  // namespace sio::pfs
