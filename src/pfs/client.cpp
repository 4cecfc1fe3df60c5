#include "pfs/client.hpp"

#include <algorithm>

#include "pfs/pfs.hpp"

namespace sio::pfs {

namespace {

std::uint64_t clamp_read(const FileState& f, std::uint64_t offset, std::uint64_t bytes) {
  const std::uint64_t avail = f.size > offset ? f.size - offset : 0;
  return std::min(bytes, avail);
}

}  // namespace

IoMode FileHandle::mode() const {
  SIO_ASSERT(file_ != nullptr);
  return file_->mode;
}

void FileHandle::require_group(const char* what) const {
  if (group_ == nullptr) {
    throw PfsError(std::string(what) + " requires a collective group (gopen or set_group)");
  }
}

void FileHandle::set_group(Group* g) {
  SIO_ASSERT(g != nullptr);
  group_ = g;
  rank_ = g->rank_of(node_);
}

void FileHandle::set_buffering(bool on) {
  SIO_ASSERT(wb_len_ == 0);  // flush() before disabling buffering
  buffering_ = on;
  if (!on) cached_unit_ = -1;
}

bool FileHandle::client_cache_allowed() const {
  if (!buffering_) return false;
  // Client caching is only coherent while this process is the sole opener of
  // a private-pointer UNIX-semantics file (node zero's stdio-style streams).
  // M_ASYNC is PFS's *direct* parallel-I/O path: requests go to the I/O
  // nodes as issued, which is why its small writes cost a full transfer.
  return file_->mode == IoMode::kUnix && !file_->shared();
}

// ---------------------------------------------------------------- caching --

sim::Task<void> FileHandle::flush_write_buffer() {
  if (wb_len_ == 0) co_return;
  const std::uint64_t start = wb_start_;
  const std::uint64_t len = wb_len_;
  wb_len_ = 0;
  co_await fs_->transfer(node_, *file_, start, len, /*is_write=*/true, /*buffered=*/true,
                         op_span_);
}

sim::Task<void> FileHandle::cached_read(std::uint64_t offset, std::uint64_t bytes) {
  const auto& os = fs_->os();
  // Served from the coalescing write buffer?
  if (wb_len_ > 0 && offset >= wb_start_ && offset + bytes <= wb_start_ + wb_len_) {
    obs::SpanScope cache_span(op_span_, obs::StageKind::kCache, node_, -1, bytes);
    co_await fs_->machine().engine().delay(os.buffered_op);
    co_return;
  }
  const std::uint64_t unit_size = fs_->layout().unit();
  if (bytes >= unit_size) {
    // Big requests stream directly; caching them would only evict.
    co_await flush_write_buffer();
    co_await fs_->transfer(node_, *file_, offset, bytes, /*is_write=*/false, /*buffered=*/true,
                           op_span_);
    co_return;
  }
  const std::uint64_t first = fs_->layout().unit_of(offset);
  const std::uint64_t last = fs_->layout().unit_of(offset + bytes - 1);
  for (std::uint64_t u = first; u <= last; ++u) {
    if (static_cast<std::int64_t>(u) != cached_unit_) {
      co_await flush_write_buffer();
      co_await fs_->fetch_unit(node_, *file_, u, op_span_);
      cached_unit_ = static_cast<std::int64_t>(u);
    }
    obs::SpanScope cache_span(op_span_, obs::StageKind::kCache, node_, -1, bytes);
    co_await fs_->machine().engine().delay(os.buffered_op);
  }
}

sim::Task<void> FileHandle::buffered_write(std::uint64_t offset, std::uint64_t bytes) {
  const auto& os = fs_->os();
  const std::uint64_t unit_size = fs_->layout().unit();
  if (!client_cache_allowed() || bytes >= unit_size) {
    co_await flush_write_buffer();
    co_await fs_->transfer(node_, *file_, offset, bytes, /*is_write=*/true, buffering_,
                           op_span_);
    co_return;
  }
  if (wb_len_ > 0 && offset == wb_start_ + wb_len_) {
    wb_len_ += bytes;  // sequential append coalesces
  } else {
    co_await flush_write_buffer();
    wb_start_ = offset;
    wb_len_ = bytes;
  }
  if (cached_unit_ >= 0) {
    const auto u = static_cast<std::uint64_t>(cached_unit_);
    if (offset < (u + 1) * unit_size && offset + bytes > u * unit_size) cached_unit_ = -1;
  }
  {
    obs::SpanScope cache_span(op_span_, obs::StageKind::kCache, node_, -1, bytes);
    co_await fs_->machine().engine().delay(os.buffered_op);
  }
  if (wb_len_ >= unit_size) co_await flush_write_buffer();
}

// ------------------------------------------------------------- data ops --

sim::Task<std::uint64_t> FileHandle::read(std::uint64_t bytes, std::span<std::byte> out) {
  SIO_ASSERT(open_);
  pablo::OpTimer timer(fs_->collector(), node_, file_->id, pablo::IoOp::kRead);
  obs::SpanScope op_span(fs_->collector().span_origin(), obs::StageKind::kOp, node_, -1, bytes,
                         static_cast<std::uint64_t>(pablo::IoOp::kRead));
  op_span_ = op_span.ctx();
  const std::uint64_t n = co_await access(bytes, /*is_write=*/false);
  if (!out.empty() && file_->content && n > 0) {
    SIO_ASSERT(out.size() >= n);
    file_->content->read(last_op_offset_, out.subspan(0, static_cast<std::size_t>(n)));
  }
  op_span.set_bytes(n);
  op_span_ = {};
  timer.finish(last_op_offset_, n);
  op_span.close();
  co_return n;
}

sim::Task<std::uint64_t> FileHandle::write(std::uint64_t bytes, std::span<const std::byte> data) {
  SIO_ASSERT(open_);
  SIO_ASSERT(data.empty() || data.size() == bytes);
  pablo::OpTimer timer(fs_->collector(), node_, file_->id, pablo::IoOp::kWrite);
  obs::SpanScope op_span(fs_->collector().span_origin(), obs::StageKind::kOp, node_, -1, bytes,
                         static_cast<std::uint64_t>(pablo::IoOp::kWrite));
  op_span_ = op_span.ctx();
  const std::uint64_t n = co_await access(bytes, /*is_write=*/true);
  if (!data.empty() && file_->content && n > 0) {
    file_->content->write(last_op_offset_, data.subspan(0, static_cast<std::size_t>(n)));
  }
  op_span.set_bytes(n);
  op_span_ = {};
  timer.finish(last_op_offset_, n);
  op_span.close();
  co_return n;
}

// Each mode body below serves both directions.  A read is clamped at end of
// file and a write grows the file; everything else is the mode's own cost.

sim::Task<std::uint64_t> FileHandle::access(std::uint64_t bytes, bool is_write) {
  switch (file_->mode) {
    case IoMode::kRecord:
      return record(bytes, is_write);
    case IoMode::kGlobal:
      return global(bytes, is_write);
    case IoMode::kSync:
      return sync(bytes, is_write);
    case IoMode::kLog:
      return log(bytes, is_write);
    case IoMode::kUnix:
    case IoMode::kAsync:
      break;
  }
  return unix_or_async(bytes, is_write);
}

sim::Task<std::uint64_t> FileHandle::unix_or_async(std::uint64_t bytes, bool is_write) {
  const auto& os = fs_->os();
  const std::uint64_t offset = pos_;
  const std::uint64_t n = is_write ? bytes : clamp_read(*file_, offset, bytes);
  last_op_offset_ = offset;
  co_await fs_->machine().engine().delay(os.syscall_overhead);
  if (n > 0) {
    if (file_->mode == IoMode::kUnix && file_->shared()) {
      // Shared UNIX semantics: atomicity bookkeeping serializes at the
      // metadata/token server, and the consistency validation cost of a read
      // grows with the number of concurrent openers; no client caching.
      {
        obs::SpanScope meta_span(op_span_, obs::StageKind::kMeta, node_);
        co_await fs_->machine().engine().delay(fs_->meta_round_trip(node_));
        co_await fs_->metadata().token_op(file_->id, is_write, node_);
      }
      if (!is_write) {
        co_await fs_->machine().engine().delay(os.shared_read_per_opener *
                                               static_cast<sim::Tick>(file_->open_count));
      }
      co_await fs_->transfer(node_, *file_, offset, n, is_write, buffering_, op_span_);
    } else if (is_write) {
      co_await buffered_write(offset, n);
    } else if (client_cache_allowed()) {
      co_await cached_read(offset, n);
    } else {
      co_await fs_->transfer(node_, *file_, offset, n, /*is_write=*/false, buffering_,
                             op_span_);
    }
  }
  pos_ = offset + n;
  if (is_write) file_->size = std::max(file_->size, offset + n);
  co_return n;
}

sim::Task<std::uint64_t> FileHandle::record(std::uint64_t bytes, bool is_write) {
  require_group("M_RECORD access");
  if (file_->record_size == 0) throw PfsError("M_RECORD record size not set");
  if (bytes != file_->record_size) {
    throw PfsError("M_RECORD requires record-sized requests");
  }
  const auto& os = fs_->os();
  const std::uint64_t offset =
      (op_index_ * static_cast<std::uint64_t>(group_->size()) + static_cast<std::uint64_t>(rank_)) *
      file_->record_size;
  ++op_index_;
  last_op_offset_ = offset;
  const std::uint64_t n = is_write ? bytes : clamp_read(*file_, offset, bytes);
  co_await fs_->machine().engine().delay(os.syscall_overhead + os.sync_mode_overhead);
  if (n > 0) {
    co_await fs_->transfer(node_, *file_, offset, n, is_write, buffering_, op_span_);
  }
  pos_ = offset + n;
  if (is_write) file_->size = std::max(file_->size, offset + n);
  co_return n;
}

sim::Task<std::uint64_t> FileHandle::global(std::uint64_t bytes, bool is_write) {
  require_group("M_GLOBAL access");
  const auto& os = fs_->os();
  co_await fs_->machine().engine().delay(os.syscall_overhead);
  group_->scratch()[static_cast<std::size_t>(rank_)] = bytes;
  {
    obs::SpanScope sync_span(op_span_, obs::StageKind::kSync, node_);
    // The last arriver runs its own hook, so `this` is live while it does.
    co_await group_->arrive([this, is_write] {
      // All requests must be identical; advance the shared pointer once.
      const std::uint64_t req = group_->scratch()[0];
      for (const std::uint64_t s : group_->scratch()) {
        if (s != req) throw PfsError("M_GLOBAL requires identical requests");
      }
      const std::uint64_t base = file_->shared_offset;
      const std::uint64_t n = is_write ? req : clamp_read(*file_, base, req);
      for (auto& w : group_->wave_offsets()) w = base;
      file_->shared_offset = base + n;
      if (is_write) file_->size = std::max(file_->size, base + n);
    });
  }
  const std::uint64_t base = group_->wave_offsets()[static_cast<std::size_t>(rank_)];
  const std::uint64_t n = is_write ? bytes : clamp_read(*file_, base, bytes);
  last_op_offset_ = base;
  if (rank_ == 0 && n > 0) {
    co_await fs_->transfer(node_, *file_, base, n, is_write, /*buffered=*/true, op_span_);
  }
  {
    obs::SpanScope sync_span(op_span_, obs::StageKind::kSync, node_);
    co_await group_->arrive();  // the leader's transfer is done
  }
  // A read's broadcast of the leader's data rides the same single delay.
  const sim::Tick broadcast =
      is_write ? 0 : fs_->machine().network().broadcast_arrival(rank_, group_->size(), n);
  co_await fs_->machine().engine().delay(broadcast + os.sync_mode_overhead);
  co_return n;
}

sim::Task<std::uint64_t> FileHandle::sync(std::uint64_t bytes, bool is_write) {
  require_group("M_SYNC access");
  const auto& os = fs_->os();
  co_await fs_->machine().engine().delay(os.syscall_overhead);
  group_->scratch()[static_cast<std::size_t>(rank_)] = bytes;
  {
    obs::SpanScope sync_span(op_span_, obs::StageKind::kSync, node_);
    co_await group_->arrive([this, is_write] {
      const std::uint64_t base = file_->shared_offset;
      std::uint64_t acc = base;
      for (std::size_t r = 0; r < group_->wave_offsets().size(); ++r) {
        group_->wave_offsets()[r] = acc;
        acc += group_->scratch()[r];
      }
      // The pointer moves by the bytes the wave moves: a read clamped at end
      // of file stops it there.
      const std::uint64_t n = is_write ? acc - base : clamp_read(*file_, base, acc - base);
      file_->shared_offset = base + n;
      if (is_write) file_->size = std::max(file_->size, base + n);
    });
  }
  const std::uint64_t offset = group_->wave_offsets()[static_cast<std::size_t>(rank_)];
  const std::uint64_t n = is_write ? bytes : clamp_read(*file_, offset, bytes);
  last_op_offset_ = offset;
  // Requests are serviced in node order.
  co_await fs_->machine().engine().delay(static_cast<sim::Tick>(rank_) * os.token_read_service +
                                         os.sync_mode_overhead);
  if (n > 0) {
    co_await fs_->transfer(node_, *file_, offset, n, is_write, /*buffered=*/true, op_span_);
  }
  {
    obs::SpanScope sync_span(op_span_, obs::StageKind::kSync, node_);
    co_await group_->arrive();
  }
  co_return n;
}

sim::Task<std::uint64_t> FileHandle::log(std::uint64_t bytes, bool is_write) {
  const auto& os = fs_->os();
  {
    // The combined syscall+round-trip delay stays one engine event (splitting
    // it would perturb same-tick ordering); the meta span covers it whole.
    obs::SpanScope meta_span(op_span_, obs::StageKind::kMeta, node_);
    co_await fs_->machine().engine().delay(os.syscall_overhead + fs_->meta_round_trip(node_));
    co_await fs_->metadata().token_op(file_->id, is_write, node_);
  }
  const std::uint64_t offset = file_->shared_offset;
  const std::uint64_t n = is_write ? bytes : clamp_read(*file_, offset, bytes);
  file_->shared_offset = offset + n;
  if (is_write) file_->size = std::max(file_->size, offset + n);
  last_op_offset_ = offset;
  if (n > 0) {
    co_await fs_->transfer(node_, *file_, offset, n, is_write, buffering_, op_span_);
  }
  co_return n;
}

// ------------------------------------------------------------ control ops --

sim::Task<void> FileHandle::seek(std::uint64_t offset) {
  SIO_ASSERT(open_);
  if (shares_pointer(file_->mode) || file_->mode == IoMode::kRecord) {
    throw PfsError("seek is not meaningful in mode " + std::string(io_mode_name(file_->mode)));
  }
  pablo::OpTimer timer(fs_->collector(), node_, file_->id, pablo::IoOp::kSeek);
  obs::SpanScope op_span(fs_->collector().span_origin(), obs::StageKind::kOp, node_, -1, 0,
                         static_cast<std::uint64_t>(pablo::IoOp::kSeek));
  op_span_ = op_span.ctx();
  co_await flush_write_buffer();
  const auto& os = fs_->os();
  if (file_->mode == IoMode::kUnix && file_->shared()) {
    // Seeking a shared M_UNIX file registers the pointer move with the
    // metadata server — the cost that dominated ESCAT version B.
    obs::SpanScope meta_span(op_span_, obs::StageKind::kMeta, node_);
    co_await fs_->machine().engine().delay(os.syscall_overhead + fs_->meta_round_trip(node_));
    co_await fs_->metadata().seek_op(file_->id, node_);
  } else {
    co_await fs_->machine().engine().delay(os.local_seek);
  }
  pos_ = offset;
  op_span_ = {};
  timer.finish(offset, 0);
  op_span.close();
}

sim::Task<void> FileHandle::set_iomode(IoMode m, std::uint64_t record_size) {
  SIO_ASSERT(open_);
  const auto& os = fs_->os();
  if (m == IoMode::kAsync && !os.has_masync) {
    throw PfsError("M_ASYNC is not available under " + os.name);
  }
  if (m == IoMode::kRecord && record_size == 0 && file_->record_size == 0) {
    throw PfsError("M_RECORD requires a record size");
  }
  if ((is_collective(m) || m == IoMode::kRecord) && group_ == nullptr) {
    throw PfsError("collective modes require a group");
  }

  pablo::OpTimer timer(fs_->collector(), node_, file_->id, pablo::IoOp::kIomode);
  obs::SpanScope op_span(fs_->collector().span_origin(), obs::StageKind::kOp, node_, -1, 0,
                         static_cast<std::uint64_t>(pablo::IoOp::kIomode));
  op_span_ = op_span.ctx();
  co_await flush_write_buffer();
  co_await fs_->machine().engine().delay(os.syscall_overhead);
  FileState* f = file_;
  auto apply = [f, m, record_size] {
    f->mode = m;
    if (record_size != 0) f->record_size = record_size;
  };
  if (group_ != nullptr) {
    {
      obs::SpanScope sync_span(op_span_, obs::StageKind::kSync, node_);
      co_await group_->arrive();
    }
    if (rank_ == 0) {
      obs::SpanScope meta_span(op_span_, obs::StageKind::kMeta, node_);
      co_await fs_->machine().engine().delay(fs_->meta_round_trip(node_));
      co_await fs_->metadata().iomode_op(file_->id, node_);
      apply();
    }
    {
      obs::SpanScope sync_span(op_span_, obs::StageKind::kSync, node_);
      co_await group_->arrive();
    }
    co_await fs_->machine().engine().delay(os.iomode_client);
  } else {
    obs::SpanScope meta_span(op_span_, obs::StageKind::kMeta, node_);
    co_await fs_->machine().engine().delay(fs_->meta_round_trip(node_));
    co_await fs_->metadata().iomode_op(file_->id, node_);
    apply();
  }
  cached_unit_ = -1;
  op_index_ = 0;
  op_span_ = {};
  timer.finish();
  op_span.close();
}

sim::Task<void> FileHandle::flush() {
  SIO_ASSERT(open_);
  pablo::OpTimer timer(fs_->collector(), node_, file_->id, pablo::IoOp::kFlush);
  obs::SpanScope op_span(fs_->collector().span_origin(), obs::StageKind::kOp, node_, -1, 0,
                         static_cast<std::uint64_t>(pablo::IoOp::kFlush));
  op_span_ = op_span.ctx();
  co_await flush_write_buffer();
  const auto& os = fs_->os();
  co_await fs_->machine().engine().delay(os.syscall_overhead + os.flush_service);
  op_span_ = {};
  timer.finish();
  op_span.close();
}

sim::Task<void> FileHandle::close() {
  SIO_ASSERT(open_);
  pablo::OpTimer timer(fs_->collector(), node_, file_->id, pablo::IoOp::kClose);
  obs::SpanScope op_span(fs_->collector().span_origin(), obs::StageKind::kOp, node_, -1, 0,
                         static_cast<std::uint64_t>(pablo::IoOp::kClose));
  op_span_ = op_span.ctx();
  co_await flush_write_buffer();
  const auto& os = fs_->os();
  {
    obs::SpanScope meta_span(op_span_, obs::StageKind::kMeta, node_);
    co_await fs_->machine().engine().delay(os.syscall_overhead + fs_->meta_round_trip(node_));
    co_await fs_->metadata().close_op(file_->id, node_);
  }
  --file_->open_count;
  SIO_ASSERT(file_->open_count >= 0);
  open_ = false;
  cached_unit_ = -1;
  op_span_ = {};
  timer.finish();
  op_span.close();
}

}  // namespace sio::pfs
