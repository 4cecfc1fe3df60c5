// Trace collection (the Pablo data-capture library).
//
// The file system's client layer reports every I/O operation here.  The
// collector also owns the file-name registry and, once a run finishes, hands
// out the trace sorted by start time for analysis.  An RAII `OpTimer` makes
// the instrumentation in the client a one-liner per operation.
//
// Two capture modes coexist:
//   * retained (default) — every event lands in a vector, and the full
//     replay-based analysis suite (summary.hpp, cdf.hpp, aggregate.hpp)
//     works unchanged.  Memory is O(events).
//   * streaming — enable_streaming() folds each event into bounded
//     aggregates (streaming.hpp) the moment it is recorded, and
//     set_retain_events(false) drops the vectors entirely.  Memory is
//     O(sketch + files + windows), flat in run length.
// Independently, enable_binary_trace() tees every record into a compact
// binary-SDDF encoder (binsddf.hpp), optionally draining through a sink so
// live capture never holds more than the flush threshold.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/trace.hpp"
#include "pablo/binsddf.hpp"
#include "pablo/event.hpp"
#include "pablo/record_schema.hpp"
#include "pablo/streaming.hpp"
#include "sim/assert.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace sio::pablo {

/// Memory-accounting view of one collector (satellite of the trace-pipeline
/// work: proves the streaming path's bytes-retained stays flat).
struct TraceMemoryStats {
  std::size_t bytes_retained = 0;       ///< Current bytes held by trace state.
  std::size_t peak_bytes_retained = 0;  ///< High-water mark (sampled).
  std::uint64_t events_recorded = 0;    ///< Total events seen, retained or not.
};

class Collector : public obs::SpanSink {
 public:
  explicit Collector(sim::Engine& engine) : engine_(engine) {
    // Typical paper-scale runs record a few thousand events; reserving up
    // front keeps the hot record() path free of early regrowth.
    trace_.events.reserve(4096);
    trace_.faults.reserve(256);
    trace_.qos.reserve(1024);
    trace_.losses.reserve(64);
    trace_.integrity.reserve(128);
  }

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// Registers (or looks up) a file name, returning its trace id.
  FileId register_file(std::string_view path);

  /// Name of a registered file.
  const std::string& file_name(FileId id) const {
    SIO_ASSERT(id < trace_.file_names.size());
    return trace_.file_names[id];
  }

  std::size_t file_count() const { return trace_.file_names.size(); }

  /// Appends one finished operation to the trace.
  void record(const TraceEvent& ev) {
    if (!enabled_) return;
    if (streaming_) streaming_->on_event(ev);
    if (bin_writer_) bin_writer_->add_event(ev);
    if (retain_events_) {
      trace_.events.push_back(ev);  // siolint:allow(trace-vector-growth) gated by set_retain_events
      sorted_ = false;
    }
    ++events_recorded_;
    if ((events_recorded_ & 0x3ff) == 0) note_peak();
  }

  /// Appends one occurrence record: a fault/recovery occurrence, an
  /// overload-protection verdict or breaker transition, an acknowledged-data
  /// loss, or an end-to-end integrity occurrence.  Each is recorded at the
  /// simulated time it happens, so its list is chronological by construction
  /// (no lazy sort needed).
  template <Occurrence R>
  void record(const R& ev) {
    if (!enabled_) return;
    if constexpr (std::is_same_v<R, IntegrityEvent>) {
      if (streaming_) streaming_->on_integrity(ev);
    }
    if (bin_writer_) bin_writer_->add(ev);
    if (retain_events_) {
      // siolint:allow(trace-vector-growth) gated by set_retain_events
      (trace_.*kSchema<R>.trace).push_back(ev);
    }
  }

  const std::vector<FaultEvent>& fault_events() const { return trace_.faults; }
  const std::vector<QosEvent>& qos_events() const { return trace_.qos; }
  const std::vector<LossEvent>& loss_events() const { return trace_.losses; }
  const std::vector<IntegrityEvent>& integrity_events() const { return trace_.integrity; }

  /// Receives each closed causal-tracing span from the tracer (SpanSink).
  /// Spans close in end-time order, so the list is chronological by
  /// construction, children before their parent.
  void on_span(const SpanEvent& ev) override {
    if (!enabled_) return;
    if (streaming_) streaming_->on_span(ev);
    if (bin_writer_) bin_writer_->add_span(ev);
    if (retain_events_) {
      trace_.spans.push_back(ev);  // siolint:allow(trace-vector-growth) gated by set_retain_events
    }
  }

  const std::vector<SpanEvent>& span_events() const { return trace_.spans; }

  /// Turns causal tracing on: every client op opens a span tree through the
  /// layers, emitted into this collector on close.  Call before the run.
  void enable_spans() {
    SIO_ASSERT(!tracer_);
    tracer_.emplace(engine_, *this);
  }

  /// Null when tracing is off — the zero-cost disabled path rides a null
  /// `obs::SpanContext::tracer` everywhere downstream.
  obs::Tracer* tracer() { return tracer_ ? &*tracer_ : nullptr; }
  const obs::Tracer* tracer() const { return tracer_ ? &*tracer_ : nullptr; }

  /// Parent context for opening a root span (disabled when tracing is off).
  obs::SpanContext span_origin() { return obs::SpanContext{tracer(), 0, 0}; }

  /// Force-closes spans still open at end of run (ops parked on crashed
  /// servers, abandoned work) so every emitted tree is complete.  Call after
  /// the engine drains, before finishing the binary trace.
  void finish_spans() {
    if (tracer_) tracer_->finish();
  }

  /// Turns capture on/off (tests use this to scope the window of interest).
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Starts folding every recorded event into bounded streaming aggregates.
  /// Call before the run records events of interest (aggregates start empty).
  void enable_streaming(StreamingConfig cfg = {}) {
    SIO_ASSERT(!streaming_);
    streaming_.emplace(cfg);
    for (std::size_t i = 0; i < trace_.file_names.size(); ++i) {
      streaming_->ensure_file(static_cast<FileId>(i));
    }
  }

  StreamingAnalytics* streaming() { return streaming_ ? &*streaming_ : nullptr; }
  const StreamingAnalytics* streaming() const { return streaming_ ? &*streaming_ : nullptr; }

  /// When off, record() stops appending to the record vectors —
  /// the replay-based analyses see an empty trace, and only the streaming
  /// aggregates / binary writer observe the run.  Default on.
  void set_retain_events(bool on) { retain_events_ = on; }
  bool retain_events() const { return retain_events_; }

  /// Tees every subsequently recorded record into a binary-SDDF encoder.
  /// Files registered so far enter the stream immediately; call before
  /// recording events so every referenced file precedes its use.  With a
  /// sink, encoded bytes drain at `flush_threshold`; without one they
  /// accumulate until finish_binary_trace().
  void enable_binary_trace(BinarySddfWriter::Sink sink = {},
                           std::size_t flush_threshold = 64 * 1024) {
    SIO_ASSERT(!bin_writer_);
    SIO_ASSERT(events_recorded_ == 0);
    for_each_record_vector(trace_, [](const auto& v) { SIO_ASSERT(v.empty()); });
    bin_writer_.emplace(std::move(sink), flush_threshold);
    for (const std::string& name : trace_.file_names) bin_writer_->add_file(name);
  }

  BinarySddfWriter* binary_writer() { return bin_writer_ ? &*bin_writer_ : nullptr; }
  const BinarySddfWriter* binary_writer() const { return bin_writer_ ? &*bin_writer_ : nullptr; }

  /// Terminates the live binary stream and returns the buffered encoding
  /// (empty when a sink drained it).  Requires enable_binary_trace() first.
  std::string finish_binary_trace() {
    SIO_ASSERT(bin_writer_ && !bin_writer_->finished());
    return bin_writer_->finish();
  }

  /// All events, sorted by (start, node, op).  Sorting happens lazily and is
  /// cached; recording new events invalidates the cache.
  const std::vector<TraceEvent>& events() const;

  /// The file registry and every retained record, events sorted as events()
  /// returns them.
  const TraceFile& trace() const {
    events();
    return trace_;
  }

  std::size_t event_count() const { return trace_.events.size(); }

  /// Total events recorded, whether or not they were retained.
  std::uint64_t events_recorded() const { return events_recorded_; }

  /// Serializes this run's trace into a per-run SDDF text buffer.  Each
  /// collector belongs to exactly one run, so parallel experiments emit
  /// without sharing a stream (used by the determinism harness and tests).
  std::string sddf_text() const;

  /// Bytes currently held by trace state (vector capacities, file names,
  /// the tracer's open-span table, streaming aggregates, binary buffer).
  std::size_t bytes_retained() const;

  /// Current + peak memory accounting.  Peak is sampled every 1024 recorded
  /// events and on every explicit call, so it tracks the high-water mark
  /// without a per-event cost.
  TraceMemoryStats memory_stats() const {
    note_peak();
    return TraceMemoryStats{bytes_retained(), peak_bytes_retained_, events_recorded_};
  }

  /// Hands the file registry and every retained vector over at end of run
  /// (events sorted as events() returns them), leaving the collector empty.
  /// Take memory_stats() first: vectors moved out no longer count.
  TraceFile take_trace();

  /// Removes all recorded events (keeps the file registry).
  void clear() {
    for_each_record_vector(trace_, [](auto& v) { v.clear(); });
    sorted_ = false;
  }

  sim::Engine& engine() { return engine_; }

 private:
  void note_peak() const;

  sim::Engine& engine_;
  /// The file registry and every retained record.  Mutable so events() can
  /// sort the events lazily.
  mutable TraceFile trace_;
  std::optional<StreamingAnalytics> streaming_;
  std::optional<BinarySddfWriter> bin_writer_;
  std::optional<obs::Tracer> tracer_;
  std::uint64_t events_recorded_ = 0;
  mutable std::size_t peak_bytes_retained_ = 0;
  mutable bool sorted_ = false;
  bool enabled_ = true;
  bool retain_events_ = true;
};

/// RAII timing helper: captures the start time at construction and records
/// the completed event on `finish()`.
class OpTimer {
 public:
  OpTimer(Collector& c, std::int32_t node, FileId file, IoOp op)
      : collector_(c), start_(c.engine().now()), node_(node), file_(file), op_(op) {}

  /// Records the event with the given access parameters.
  void finish(std::uint64_t offset = 0, std::uint64_t bytes = 0) {
    TraceEvent ev;
    ev.start = start_;
    ev.duration = collector_.engine().now() - start_;
    ev.node = node_;
    ev.file = file_;
    ev.op = op_;
    ev.offset = offset;
    ev.bytes = bytes;
    collector_.record(ev);
  }

 private:
  Collector& collector_;
  sim::Tick start_;
  std::int32_t node_;
  FileId file_;
  IoOp op_;
};

}  // namespace sio::pablo
