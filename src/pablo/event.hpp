// I/O trace event model (the Pablo instrumentation record).
//
// The Pablo environment captured, for every I/O operation, the time, the
// duration, the size and the operation parameters.  `TraceEvent` is that
// record.  Durations are wall-clock as seen by the calling node — they
// include queueing and token waits, exactly as a wrapped I/O call would
// measure — because that is what the paper's Tables 2/3/5 aggregate.

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "obs/span.hpp"
#include "sim/time.hpp"

namespace sio::pablo {

/// Causal-tracing span record (see obs/span.hpp).  Spans share the trace
/// dialects with the records below and join them on `op_id`.
using SpanEvent = obs::SpanEvent;

/// Identifier of a traced file, assigned by the collector at registration.
using FileId = std::uint32_t;

inline constexpr FileId kNoFile = 0xffffffffu;

/// The I/O operation types the paper reports on (Tables 2, 3 and 5).
enum class IoOp : std::uint8_t {
  kOpen = 0,
  kGopen,
  kRead,
  kSeek,
  kWrite,
  kIomode,
  kFlush,
  kClose,
};

inline constexpr int kIoOpCount = 8;

/// Stable short name used in reports ("open", "gopen", ...).
constexpr std::string_view io_op_name(IoOp op) {
  constexpr std::array<std::string_view, kIoOpCount> names = {
      "open", "gopen", "read", "seek", "write", "iomode", "flush", "close"};
  return names[static_cast<std::size_t>(op)];
}

/// Fault and recovery occurrences recorded alongside the I/O trace.  The
/// first group marks hardware/server state transitions injected by the fault
/// subsystem; the kOp* group marks the client-visible consequences (an
/// operation timing out, being retried, or failing for good).
enum class FaultKind : std::uint8_t {
  kDiskDegraded = 0,
  kDiskRebuilt,
  kDiskSlow,
  kDiskStuck,
  kServerCrash,
  kServerRestart,
  kServerDegraded,
  kServerRecovered,
  kLinkDown,
  kLinkSlow,
  kLinkUp,
  kOpTimeout,
  kOpRetry,
  kOpFailed,
  kJournalRecovery,  ///< journal redo pass finished; info = records redone
  kJournalAbort,     ///< recovery interrupted by a second crash; info = redone so far
  kBitRot,           ///< silent bit-rot injected on durable units; info = units hit
  kWriteBackCorrupt, ///< phantom/misdirected write-back window opened
  kLinkCorrupt,      ///< link payload-corruption window opened; info = every-nth
};

inline constexpr int kFaultKindCount = 19;

/// Stable short name used in reports and the SDDF `#fault` records.
constexpr std::string_view fault_kind_name(FaultKind k) {
  constexpr std::array<std::string_view, kFaultKindCount> names = {
      "disk-degraded", "disk-rebuilt",    "disk-slow",        "disk-stuck",
      "server-crash",  "server-restart",  "server-degraded",  "server-recovered",
      "link-down",     "link-slow",       "link-up",          "op-timeout",
      "op-retry",      "op-failed",       "journal-recovery", "journal-abort",
      "bit-rot",       "wb-corrupt",      "link-corrupt"};
  return names[static_cast<std::size_t>(k)];
}

/// One fault/recovery occurrence.
struct FaultEvent {
  sim::Tick at = 0;          ///< Simulated time of the occurrence.
  std::uint64_t op_id = 0;   ///< PFS op involved (0 = none); joins #span/#qos.
  FaultKind kind = FaultKind::kOpRetry;
  std::int32_t node = -1;    ///< Compute node involved (-1 = none).
  std::int32_t target = -1;  ///< I/O node / server involved (-1 = none).
  std::uint64_t info = 0;    ///< Kind-specific detail (attempt #, bytes, ...).

  bool operator==(const FaultEvent&) const = default;
};

/// Overload-protection occurrences recorded alongside the I/O trace.  The
/// admission group marks per-server admission decisions (an op admitted,
/// rejected with a backpressure credit, or shed because its deadline budget
/// cannot cover the estimated service); the breaker group marks per-I/O-node
/// circuit-breaker transitions and the reads rerouted to degraded
/// reconstruction while a breaker is open.
enum class QosKind : std::uint8_t {
  kAdmit = 0,        ///< op admitted into a server's bounded service queue
  kReject,           ///< op rejected at admission (queue full); info = credit
  kShed,             ///< op shed (deadline budget < estimated service)
  kCredit,           ///< backpressure credit issued; info = retry-after ticks
  kBreakerOpen,      ///< breaker tripped closed -> open
  kBreakerHalfOpen,  ///< open window elapsed; probes allowed
  kBreakerClose,     ///< probe succeeded; breaker closed
  kBreakerProbe,     ///< one half-open probe dispatched to the real server
  kBreakerHold,      ///< write held back while its target's breaker is open
  kReroute,          ///< read served by RAID-3 degraded reconstruction
};

inline constexpr int kQosKindCount = 10;

/// Stable short name used in reports and the SDDF `#qos` records.
constexpr std::string_view qos_kind_name(QosKind k) {
  constexpr std::array<std::string_view, kQosKindCount> names = {
      "admit",         "reject",            "shed",          "credit",
      "breaker-open",  "breaker-half-open", "breaker-close", "breaker-probe",
      "breaker-hold",  "reroute"};
  return names[static_cast<std::size_t>(k)];
}

/// One overload-protection occurrence.
struct QosEvent {
  sim::Tick at = 0;          ///< Simulated time of the occurrence.
  std::uint64_t op_id = 0;   ///< PFS op involved (0 = none); joins #span/#fault.
  QosKind kind = QosKind::kAdmit;
  std::int32_t node = -1;    ///< Compute node involved (-1 = none).
  std::int32_t target = -1;  ///< Server involved (I/O node id, -1 = metadata).
  std::uint64_t info = 0;    ///< Kind-specific detail (credit ticks, bytes, ...).

  bool operator==(const QosEvent&) const = default;
};

/// One acknowledged-data-loss occurrence: a server crash dropped (or tore) a
/// dirty write-behind stripe unit whose writes had already been acknowledged
/// to clients.  Emitted per dropped unit so post-hoc analysis can attribute
/// losses to files and offsets even with the journal off.
struct LossEvent {
  sim::Tick at = 0;          ///< Simulated time of the crash that dropped it.
  std::uint64_t op_id = 0;   ///< Last op that dirtied the unit (0 = unknown).
  std::int32_t target = -1;  ///< I/O node that lost the unit.
  FileId file = kNoFile;     ///< File the unit belongs to.
  std::uint64_t offset = 0;  ///< Byte offset of the stripe unit within the file.
  std::uint64_t bytes = 0;   ///< Acknowledged bytes in the unit not yet durable.
  std::uint64_t torn = 0;    ///< 1 if a torn write applied only a prefix.

  bool operator==(const LossEvent&) const = default;
};

/// Data-integrity occurrences recorded alongside the I/O trace: silent
/// corruption landing on durable state (injection group), its detection and
/// repair by the verify-on-read / read-repair / scrubber machinery, and the
/// silent failures that slip through when the policy is off.  The byte counts
/// come from the omniscient `pfs::UnitLedger`, which tracks corruption even
/// when the simulated system itself cannot see it.
enum class IntegrityKind : std::uint8_t {
  kBitRot = 0,       ///< durable bytes flipped on a unit (bytes = rotted)
  kJournalRot,       ///< open journal record payload rotted
  kPhantomWrite,     ///< write-back acked but never reached the array
  kMisdirectedWrite, ///< write-back landed on the wrong unit (bytes = victim bytes)
  kLinkCorrupt,      ///< read payload corrupted in transit, caught by client csum
  kCorruptAck,       ///< corrupt bytes served to a client undetected (policy off)
  kVerifyFail,       ///< server checksum caught a corrupt unit on the read path
  kReadRepair,       ///< bad unit regenerated from RAID-3 parity and rewritten
  kRepairLost,       ///< repair impossible: array degraded (double fault)
  kStaleServed,      ///< detected stale/misdirected unit served (not repairable)
  kJournalCsumFail,  ///< recovery skipped a redo on a bad payload checksum
  kScrubSweep,       ///< scrubber finished one sweep (bytes = units checked)
  kScrubDetect,      ///< scrubber found a latent corrupt unit
  kScrubRepair,      ///< scrubber repaired a latent corrupt unit
};

inline constexpr int kIntegrityKindCount = 14;

/// Stable short name used in reports and the SDDF `#integrity` records.
constexpr std::string_view integrity_kind_name(IntegrityKind k) {
  constexpr std::array<std::string_view, kIntegrityKindCount> names = {
      "bit-rot",      "journal-rot",  "phantom-write", "misdirected-write",
      "link-corrupt", "corrupt-ack",  "verify-fail",   "read-repair",
      "repair-lost",  "stale-served", "journal-csum-fail",
      "scrub-sweep",  "scrub-detect", "scrub-repair"};
  return names[static_cast<std::size_t>(k)];
}

/// One data-integrity occurrence.
struct IntegrityEvent {
  sim::Tick at = 0;          ///< Simulated time of the occurrence.
  IntegrityKind kind = IntegrityKind::kBitRot;
  std::int32_t target = -1;  ///< I/O node involved (-1 = none).
  FileId file = kNoFile;     ///< File the unit belongs to (kNoFile for sweeps).
  std::uint64_t unit = 0;    ///< Stripe-unit index within the file.
  std::uint64_t bytes = 0;   ///< Kind-specific byte (or unit) count.

  bool operator==(const IntegrityEvent&) const = default;
};

/// One traced I/O operation.
struct TraceEvent {
  sim::Tick start = 0;     ///< Simulated time the call was issued.
  sim::Tick duration = 0;  ///< Call duration including all waits.
  std::int32_t node = 0;   ///< Issuing compute node.
  FileId file = kNoFile;   ///< Target file (kNoFile for non-file ops).
  IoOp op = IoOp::kRead;
  std::uint64_t offset = 0;  ///< File offset of the access (reads/writes/seeks).
  std::uint64_t bytes = 0;   ///< Payload size (reads/writes), else 0.

  sim::Tick end() const { return start + duration; }

  bool operator==(const TraceEvent&) const = default;
};

/// Canonical trace ordering: (start, node, op), with record order breaking
/// remaining ties (callers must use a stable sort).  The collector exports in
/// this order and the binary->text converter re-sorts loaded traces with the
/// same comparator, so both paths serialize byte-identical SDDF text.
constexpr bool trace_event_before(const TraceEvent& a, const TraceEvent& b) {
  if (a.start != b.start) return a.start < b.start;
  if (a.node != b.node) return a.node < b.node;
  return static_cast<int>(a.op) < static_cast<int>(b.op);
}

/// The four occurrence records, in the order both dialects write them.
/// Each one's fields and codings live in record_schema.hpp.
using Occurrences = std::tuple<FaultEvent, QosEvent, LossEvent, IntegrityEvent>;

/// A whole trace: the file-name table and every record family.  The
/// collector retains one and the SDDF readers (sddf.hpp, binsddf.hpp)
/// produce one.
struct TraceFile {
  std::vector<std::string> file_names;
  std::vector<TraceEvent> events;
  std::vector<FaultEvent> faults;
  std::vector<QosEvent> qos;
  std::vector<LossEvent> losses;
  std::vector<IntegrityEvent> integrity;
  std::vector<SpanEvent> spans;
};

/// Calls `f` on each record vector of `t` (a TraceFile, const or not):
/// the events, the four occurrence families and the spans.
template <class T, class F>
void for_each_record_vector(T& t, F&& f) {
  f(t.events);
  f(t.faults);
  f(t.qos);
  f(t.losses);
  f(t.integrity);
  f(t.spans);
}

}  // namespace sio::pablo
