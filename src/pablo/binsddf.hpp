// Compact binary SDDF trace encoding.
//
// The text dialect in sddf.hpp is the compatibility format; this is the
// production one.  A trace is a 6-byte magic ("SDDFB" + version 0x02; 0x02
// added the op_id column to fault/qos/loss records and the span record)
// followed by a sequence of independently-decodable frames, each
//
//   varint raw_len, varint enc_len, then enc_len bytes of blockcomp-
//   compressed record stream (enc_len == 0: raw_len bytes stored verbatim
//   because compression would not have paid)
//
// The concatenated frame payloads form a flat stream of tagged records:
//
//   tag 0x00          end-of-trace marker (required; detects truncation)
//   tag 0x01          file-table entry: varint name length + name bytes.
//                     Ids are implicit and dense in order of appearance, and
//                     an entry must precede any record referencing its id.
//   tag 0x02..0x05    occurrence record: fault, qos, loss, integrity
//   tag 0x06          span record (causal tracing)
//   tag 0x80|op<<4|F  I/O event; op in bits 4..6, presence flags F in 0..3.
//
// Every integer field is a base-128 varint; signed values and deltas ride
// zigzag.  Each record kind keeps its own predictor chain, so interleaving
// kinds (the live-capture order) and grouping them (the batch order) encode
// the same records identically within a kind:
//
//   event: d(start) and d(node) vs the previous event, always present;
//          duration, file, offset and bytes only when a presence flag says
//          they differ from the predictor:
//            DUR   duration != previous duration of the same op
//            FILE  file != previous event's file
//            OFF   offset != previous offset + previous bytes of the same
//                  (node, op) — each node's access stream is predicted
//                  independently, so interleaved sequential and strided
//                  patterns both predict for free
//            BYTES bytes != previous bytes of the same op
//   occurrence records: each field of the record's schema, in order, coded
//          as the schema says: d(field), a kind byte, a file-id delta or a
//          plain varint, each vs the previous record of that kind.  Their
//          fields and codings live only in record_schema.hpp.
//   span:  d(end), d(duration), d(op_id), d(span id), span-parent distance
//          (0 = root), stage byte, d(node), d(target), d(bytes), flags,
//          d(info), each vs the previous span record.  Spans close in end
//          order, so d(end) is small and non-negative; parent is encoded as
//          its distance below the span's own id, which is tiny for the
//          shallow PFS trees.
//
// The upshot: a sequential fixed-size read in a sorted trace costs ~4 bytes
// against ~35-40 for its text line before the frame compressor even runs.
// The encoding carries no floats and nothing platform-dependent, so
// identical input vectors yield identical bytes everywhere — the determinism
// harness compares these buffers directly.

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pablo/blockcomp.hpp"
#include "pablo/event.hpp"

namespace sio::pablo {

class Collector;
struct TraceFile;

inline constexpr std::string_view kBinarySddfMagic{"SDDFB\x02", 6};

/// True if `data` starts with the binary-SDDF magic (format sniffing for
/// tools that accept either dialect).
bool is_binary_sddf(std::string_view data);

/// Incremental binary-SDDF encoder with a per-run buffer.  Records append in
/// any order (subject to file-before-use); `finish()` terminates the stream.
/// With a sink installed the buffer drains whenever it crosses the flush
/// threshold, so live capture of an arbitrarily long run retains O(threshold)
/// bytes; without one the whole trace accumulates in the buffer.
class BinarySddfWriter {
 public:
  using Sink = std::function<void(std::string_view chunk)>;

  explicit BinarySddfWriter(Sink sink = {}, std::size_t flush_threshold = 64 * 1024);

  BinarySddfWriter(const BinarySddfWriter&) = delete;
  BinarySddfWriter& operator=(const BinarySddfWriter&) = delete;

  void add_file(std::string_view name);
  void add_event(const TraceEvent& ev);
  /// Adds one occurrence record (any type in `Occurrences`).
  template <class R>
  void add(const R& ev);
  void add_span(const SpanEvent& ev);

  /// Writes the end marker, closes the last frame and flushes.  Returns the
  /// buffered container when no sink is installed (sinked writers return an
  /// empty string: the bytes already went to the sink).  The writer is spent
  /// afterwards.
  std::string finish();

  /// Raw record bytes encoded so far, before frame compression (the
  /// throughput-accounting view; excludes the end marker until finish()).
  std::uint64_t bytes_encoded() const { return bytes_encoded_; }

  /// Container bytes produced so far (magic + closed frames, buffered or
  /// sunk).  Final once finish() ran.
  std::uint64_t container_bytes() const { return container_bytes_ + raw_.size(); }

  /// Bytes currently held in memory (open frame + not-yet-sunk container).
  std::size_t buffered_bytes() const { return raw_.size() + buf_.size(); }

  /// Capacity retained by the buffers and the frame compressor's scratch
  /// (the memory-accounting view).
  std::size_t buffered_capacity() const {
    return raw_.capacity() + buf_.capacity() + packed_.capacity() +
           hash_table_.capacity() * sizeof(std::int32_t);
  }

  std::uint64_t files_written() const { return files_written_; }
  std::uint64_t events_written() const { return events_written_; }
  bool finished() const { return finished_; }

 private:
  void close_frame();
  void maybe_flush();

  std::string raw_;  ///< Record stream of the open frame (pre-compression).
  std::string buf_;  ///< Container output not yet handed to the sink.
  std::string packed_;  ///< Compressed form of the frame being closed (reused).
  blockcomp::HashTable hash_table_;  ///< Compressor scratch (reused).
  Sink sink_;
  std::size_t flush_threshold_;
  std::uint64_t bytes_encoded_ = 0;
  std::uint64_t container_bytes_ = 0;
  std::uint64_t files_written_ = 0;
  std::uint64_t events_written_ = 0;
  bool finished_ = false;

  // Predictor chains (one per record kind; see the format comment).
  sim::Tick prev_start_ = 0;
  std::int64_t prev_node_ = 0;
  std::int64_t prev_file_ = -1;  // kNoFile maps to -1
  std::array<sim::Tick, kIoOpCount> prev_dur_{};
  std::array<std::uint64_t, kIoOpCount> prev_bytes_{};
  /// Last (offset, bytes) per (node, op) — the sequential-access predictor.
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> prev_no_off_;
  Occurrences prev_occurrence_{};
  SpanEvent prev_span_{};
};

/// Serializes a pre-extracted trace in batch order (files, faults, qos,
/// losses, integrity, spans, events) — the binary analog of write_sddf().
std::string to_binary_sddf(const std::vector<std::string>& file_names,
                           const std::vector<TraceEvent>& events,
                           const std::vector<FaultEvent>& faults = {},
                           const std::vector<QosEvent>& qos = {},
                           const std::vector<LossEvent>& losses = {},
                           const std::vector<IntegrityEvent>& integrity = {},
                           const std::vector<SpanEvent>& spans = {});

/// Serializes a collector's trace (events in canonical sorted order, exactly
/// as the text path exports them).
std::string to_binary_sddf(const Collector& collector);

/// Decodes a binary trace into the same TraceFile the text reader produces.
/// Events come back in stored order; callers that need the canonical text
/// order re-sort with sort_trace_events().  Throws std::runtime_error on bad
/// magic, unknown tags, out-of-range references, or truncation (missing end
/// marker).
TraceFile from_binary_sddf(std::string_view data);

/// Stream convenience: reads everything from `in` and decodes.
TraceFile read_binary_sddf(std::istream& in);

/// Stable-sorts events into the canonical (start, node, op) trace order.
void sort_trace_events(std::vector<TraceEvent>& events);

}  // namespace sio::pablo
