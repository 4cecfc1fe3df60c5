// Causal-tracing span model.
//
// The paper's instrumentation (and our reproduction of it) records *that* an
// I/O operation took some time; a span tree records *why*.  Every client
// operation opens a root span, and each mechanism the request passes through
// — metadata round trips, stripe-segment fan-out, per-attempt network hops,
// QoS admission parking, server CPU service, journal append, checksum
// verify, disk access, retry backoff, degraded reconstruction — opens a
// typed child span with simulated-time begin/end and byte counts.  Retries
// and `sim::with_timeout` abandons appear as *sibling attempts under one
// root*, so abandoned work is visible instead of silently lost.
//
// Spans are emitted on close (chronological in end time), ride the SDDF
// dialects as `#span` records, and fold into the per-(op class, stage)
// critical-path attribution in obs/critical_path.hpp, one tree at a time in
// O(tree) with memory bounded by the spans of in-flight ops.  The
// subsystem is fully deterministic: ids come from a per-tracer counter and
// times from the engine clock, so two runs emit byte-identical span streams.

#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "sim/time.hpp"

namespace sio::obs {

/// The mechanism a span attributes its time to.  One value per stage of the
/// request path; kOp is the root (whole client call) and everything else is
/// a child stage.
enum class StageKind : std::uint8_t {
  kOp = 0,    ///< root: one client I/O call, end to end
  kMeta,      ///< metadata/token-server round trip
  kSync,      ///< collective rendezvous / barrier wait
  kCache,     ///< client cache or write-buffer service
  kSegment,   ///< one stripe-segment transfer (fan-out unit)
  kAttempt,   ///< one delivery attempt of a segment (retries are siblings)
  kNetReq,    ///< request network hop toward the I/O node
  kAdmit,     ///< server front door: crash parking, replay/coalesce, QoS DRR
  kService,   ///< server CPU service block (cache/copy bookkeeping)
  kDisk,      ///< array access (RAID-3 service, degraded multipliers)
  kJournal,   ///< write-ahead journal append
  kVerify,    ///< integrity verify / read-repair work
  kNetResp,   ///< response network hop back to the client
  kBackoff,   ///< client-side retry backoff / credit wait / breaker hold
  kReroute,   ///< RAID-3 parity reconstruction bypassing a sick node
};

inline constexpr int kStageKindCount = 15;

/// Stable short name used in reports and the SDDF `#span` records.
constexpr std::string_view stage_name(StageKind k) {
  constexpr std::array<std::string_view, kStageKindCount> names = {
      "op",      "meta",    "sync",   "cache",  "segment",
      "attempt", "net-req", "admit",  "service", "disk",
      "journal", "verify",  "net-resp", "backoff", "reroute"};
  return names[static_cast<std::size_t>(k)];
}

/// Span flag bits.
inline constexpr std::uint64_t kSpanAbandoned = 1;  ///< force-closed (timeout/crash/run end)

/// One closed span.  `span` ids are per-tracer, dense from 1 in open order;
/// `parent == 0` marks a root.  Because ids are assigned at open and spans
/// are emitted at close, every tree is emitted children-before-parent and the
/// whole stream is sorted by end time.
struct SpanEvent {
  sim::Tick start = 0;       ///< Simulated open time.
  sim::Tick duration = 0;    ///< Close - open (force-closes clamp to the abandon tick).
  std::uint64_t op_id = 0;   ///< PFS op id (join key to #fault/#qos); 0 = none.
  std::uint32_t span = 0;    ///< This span's id (unique within the run).
  std::uint32_t parent = 0;  ///< Enclosing span id; 0 = root.
  StageKind stage = StageKind::kOp;
  std::int32_t node = -1;    ///< Compute node driving the work (-1 = none).
  std::int32_t target = -1;  ///< I/O node / server involved (-1 = none).
  std::uint64_t bytes = 0;   ///< Payload bytes the stage moved (0 if n/a).
  std::uint64_t flags = 0;   ///< kSpanAbandoned, ...
  std::uint64_t info = 0;    ///< Stage detail: root = op class, attempt = attempt #.

  sim::Tick end() const { return start + duration; }
  bool abandoned() const { return (flags & kSpanAbandoned) != 0; }

  bool operator==(const SpanEvent&) const = default;
};

/// Where closed spans go.  The pablo collector implements this to record,
/// stream-fold, and binary-encode spans without obs depending on pablo.
class SpanSink {
 public:
  virtual ~SpanSink() = default;
  virtual void on_span(const SpanEvent& span) = 0;
};

}  // namespace sio::obs
