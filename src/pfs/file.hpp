// Per-file state shared by every handle of a PFS file.
//
// A file carries its access mode (set by gopen or setiomode and shared by
// all openers), its size, the shared file pointer used by the
// shared-pointer modes and the M_UNIX/M_LOG serialization token; the I/O
// servers place its stripe units (IoServer::place).  Optionally it stores
// actual bytes (ContentPolicy::kStoreBytes) so tests can verify data
// round-trips through every mode.

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "pablo/event.hpp"
#include "pfs/content.hpp"
#include "pfs/types.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace sio::pfs {

struct FileState {
  FileState(pablo::FileId id_, std::string path_, ContentPolicy policy)
      : id(id_), path(std::move(path_)) {
    if (policy == ContentPolicy::kStoreBytes) content = std::make_unique<SparseContent>();
  }

  pablo::FileId id;
  std::string path;

  IoMode mode = IoMode::kUnix;
  std::uint64_t size = 0;
  std::uint64_t record_size = 0;
  /// File pointer shared by M_GLOBAL/M_SYNC/M_LOG.
  std::uint64_t shared_offset = 0;
  int open_count = 0;

  /// Byte-accurate contents (only with ContentPolicy::kStoreBytes).
  std::unique_ptr<SparseContent> content;

  bool shared() const { return open_count > 1; }

  void truncate() {
    size = 0;
    shared_offset = 0;
    if (content) content->clear();
  }
};

}  // namespace sio::pfs
