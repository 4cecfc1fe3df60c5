// Deterministic span tracer: open-registry, RAII scopes, forced closes.
//
// The tracer is the single authority over span ids and open intervals.  The
// subtle part is `sim::with_timeout`: a timed-out task is *abandoned, not
// destroyed* — it keeps running detached and its side effects still happen.
// RAII destructors inside the abandoned frame therefore fire arbitrarily
// late (or never), which would emit children after their parent and break
// nesting.  The client instead force-closes the abandoned attempt's whole
// subtree at the abandon tick via `SpanScope::abandon()`; later closes from
// the detached frame find their id gone from the registry and no-op, and any
// span the detached frame opens *after* the force-close is born disabled
// because its parent id is no longer open.
//
// Tracing off is a true zero-cost path: a default `SpanContext` has a null
// tracer, every scope operation is one predictable null test, and no
// allocation or engine call happens.

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "obs/id_table.hpp"
#include "obs/span.hpp"

namespace sio::sim {
class Engine;
}  // namespace sio::sim

namespace sio::obs {

class Tracer;

/// A lightweight handle that rides `OpCtx` and coroutine arguments through
/// the request path.  Null tracer == tracing disabled; `span` is the
/// enclosing span id new children attach under (0 = open a root).
struct SpanContext {
  Tracer* tracer = nullptr;
  std::uint32_t span = 0;
  std::uint64_t op_id = 0;

  bool enabled() const { return tracer != nullptr; }
};

/// Emits closed spans to a sink, tracking open spans so abandoned subtrees
/// can be force-closed at the right simulated time.  All state is owned by
/// the run's collector; ids restart at 1 per run for byte-identical output.
class Tracer {
 public:
  Tracer(sim::Engine& engine, SpanSink& sink) : engine_(engine), sink_(sink) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span under `parent` (0 = root) and returns its id.  Returns 0
  /// — span disabled — when `parent` is nonzero but no longer open (a
  /// detached frame racing a force-close).
  std::uint32_t open(std::uint32_t parent, StageKind stage, std::uint64_t op_id,
                     std::int32_t node, std::int32_t target, std::uint64_t bytes,
                     std::uint64_t info);

  /// Closes `id` at the current simulated time.  No-op if `id` was already
  /// force-closed (or 0).
  void close(std::uint32_t id);

  /// Force-closes `id` and every open descendant at the current simulated
  /// time, deepest-first, flagging them abandoned.  Used when a
  /// `with_timeout` gives up on an attempt while the attempt keeps running.
  void abandon(std::uint32_t id);

  /// Force-closes everything still open (ops parked on crashed servers,
  /// work cut off by end of run) so every emitted tree is complete.  Call
  /// once after the engine drains, before the trace is finalized.
  void finish();

  /// Updates byte/op-id/info fields of an open span (no-op once closed).
  void set_bytes(std::uint32_t id, std::uint64_t bytes);
  void set_op_id(std::uint32_t id, std::uint64_t op_id);
  void set_info(std::uint32_t id, std::uint64_t info);

  bool is_open(std::uint32_t id) const { return open_.find(id) != nullptr; }
  std::size_t open_count() const { return open_.size(); }
  std::uint64_t spans_emitted() const { return emitted_; }

  /// Bytes held by the open-span table: its capacity, which follows the
  /// peak number of spans open at once.
  std::size_t bytes_retained() const { return open_.bytes_retained(); }

 private:
  struct OpenSpan {
    sim::Tick start = 0;
    std::uint64_t op_id = 0;
    std::uint32_t parent = 0;
    StageKind stage = StageKind::kOp;
    std::int32_t node = -1;
    std::int32_t target = -1;
    std::uint64_t bytes = 0;
    std::uint64_t info = 0;
  };

  void emit(std::uint32_t id, const OpenSpan& s, std::uint64_t flags);
  /// Force-closes `ids` (sorted ascending) deepest-first: descending id.
  void force_close(const std::vector<std::uint32_t>& ids);

  sim::Engine& engine_;
  SpanSink& sink_;
  // Open spans by id: O(1) open, close and set_*.  Force-close collects the
  // ids it needs and sorts them, so the table keeps no order of its own.
  IdTable<OpenSpan> open_;
  std::uint32_t next_id_ = 1;
  std::uint64_t emitted_ = 0;
};

/// RAII guard for one span.  Default-constructed or built from a disabled
/// context, every member is a no-op costing one null test.  Movable so
/// scopes can live across coroutine suspension points.
class SpanScope {
 public:
  SpanScope() = default;

  /// Opens a child of `parent` (a root when `parent.span == 0`).  The new
  /// span inherits the context's op id unless overridden later.
  SpanScope(const SpanContext& parent, StageKind stage, std::int32_t node,
            std::int32_t target = -1, std::uint64_t bytes = 0,
            std::uint64_t info = 0) {
    if (parent.tracer == nullptr) return;
    tracer_ = parent.tracer;
    op_id_ = parent.op_id;
    id_ = tracer_->open(parent.span, stage, op_id_, node, target, bytes, info);
    if (id_ == 0) tracer_ = nullptr;  // parent force-closed already
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  SpanScope(SpanScope&& o) noexcept
      : tracer_(std::exchange(o.tracer_, nullptr)),
        id_(std::exchange(o.id_, 0)),
        op_id_(std::exchange(o.op_id_, 0)) {}
  SpanScope& operator=(SpanScope&& o) noexcept {
    if (this != &o) {
      close();
      tracer_ = std::exchange(o.tracer_, nullptr);
      id_ = std::exchange(o.id_, 0);
      op_id_ = std::exchange(o.op_id_, 0);
    }
    return *this;
  }

  ~SpanScope() { close(); }

  /// Context for opening children under this span.
  SpanContext ctx() const { return {tracer_, id_, op_id_}; }

  bool enabled() const { return tracer_ != nullptr; }

  void set_bytes(std::uint64_t bytes) {
    if (tracer_ != nullptr) tracer_->set_bytes(id_, bytes);
  }
  void set_info(std::uint64_t info) {
    if (tracer_ != nullptr) tracer_->set_info(id_, info);
  }
  void set_op_id(std::uint64_t op_id) {
    if (tracer_ != nullptr) {
      op_id_ = op_id;
      tracer_->set_op_id(id_, op_id);
    }
  }

  /// Normal close at the current simulated time (idempotent).
  void close() {
    if (tracer_ != nullptr) {
      tracer_->close(id_);
      tracer_ = nullptr;
      id_ = 0;
    }
  }

  /// Force-close this span and its open descendants as abandoned.  The
  /// owning frame may keep running detached; its later closes no-op.
  void abandon() {
    if (tracer_ != nullptr) {
      tracer_->abandon(id_);
      tracer_ = nullptr;
      id_ = 0;
    }
  }

 private:
  Tracer* tracer_ = nullptr;
  std::uint32_t id_ = 0;
  std::uint64_t op_id_ = 0;
};

}  // namespace sio::obs
