// The parallel file system facade.
//
// `Pfs` ties together the metadata/token server, the per-I/O-node servers,
// the striping layout and the Pablo collector, and hands out `FileHandle`s
// via open (per-process, M_UNIX cost model) and gopen (collective: one
// metadata operation plus a broadcast — the cheap alternative both
// application teams converged on).
//
// Downstream users drive it from coroutine tasks:
//
//   sio::pfs::Pfs fs(machine, collector);
//   auto group = sio::pfs::Group::contiguous(machine.engine(), nodes);
//   // per node task:
//   auto fh = co_await fs.gopen(node, "/pfs/data", *group,
//                               {.mode = sio::pfs::IoMode::kRecord,
//                                .record_size = 128 * 1024});
//   co_await fh.read(128 * 1024);
//   co_await fh.close();

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "machine/machine.hpp"
#include "obs/trace.hpp"
#include "pablo/collector.hpp"
#include "pablo/resilience.hpp"
#include "pfs/client.hpp"
#include "pfs/file.hpp"
#include "pfs/group.hpp"
#include "pfs/metadata.hpp"
#include "pfs/server.hpp"
#include "pfs/stripe.hpp"
#include "pfs/types.hpp"
#include "qos/breaker.hpp"
#include "qos/qos.hpp"
#include "sim/random.hpp"

namespace sio::pfs {

struct PfsConfig {
  ServerConfig server{};
  ContentPolicy content = ContentPolicy::kExtentsOnly;
  /// Client resilience: per-operation deadlines + bounded retry.  Disabled
  /// by default; when disabled the data path is byte-identical with the
  /// pre-fault-layer model.
  RetryPolicy retry{};
  /// Overload protection: bounded admission, deadline shedding, DRR fair
  /// queueing and per-I/O-node circuit breakers.  Disabled by default;
  /// requires `retry.enabled` (rejections travel back through the retry
  /// loop).
  qos::QosConfig qos{};
};

class Pfs {
 public:
  Pfs(hw::Machine& machine, pablo::Collector& collector, PfsConfig cfg = {});

  Pfs(const Pfs&) = delete;
  Pfs& operator=(const Pfs&) = delete;

  /// Per-process open.  Does not change the file's access mode (use
  /// setiomode / gopen for that); a newly created file starts in M_UNIX.
  sim::Task<FileHandle> open(hw::NodeId node, std::string_view path, OpenOptions opts = {});

  /// Collective open: every member of `group` must call.  One metadata
  /// operation is performed and the result broadcast; the options (mode,
  /// record size, truncation) are applied by the leader.
  sim::Task<FileHandle> gopen(hw::NodeId node, std::string_view path, Group& group,
                              OpenOptions opts = {});

  /// Creates (or resizes) a file without timing cost — used to stage the
  /// input files that exist before a run begins.
  FileState& stage_file(std::string_view path, std::uint64_t size);

  /// Pre-populates a staged file's contents (requires kStoreBytes).
  void stage_contents(std::string_view path, std::uint64_t offset,
                      std::span<const std::byte> data);

  bool exists(std::string_view path) const;
  FileState& lookup(std::string_view path);
  std::uint64_t file_size(std::string_view path);

  // ---- internals used by FileHandle (and by tests) ----
  hw::Machine& machine() { return machine_; }
  pablo::Collector& collector() { return collector_; }
  MetadataServer& metadata() { return meta_; }
  const StripeLayout& layout() const { return layout_; }
  const hw::OsProfile& os() const { return machine_.config().os; }
  IoServer& server(int i) { return *servers_[static_cast<std::size_t>(i)]; }
  int server_count() const { return static_cast<int>(servers_.size()); }

  /// Round-trip time of a small control message between a compute node and
  /// the metadata server (placed mid-mesh).
  sim::Tick meta_round_trip(hw::NodeId node) const;

  /// Performs the data movement of one request: splits [offset, offset +
  /// bytes) into stripe segments and runs them against their I/O-node
  /// servers in parallel, including the request/response network time.
  /// `span` is the caller's enclosing span (default: tracing disabled).
  sim::Task<void> transfer(hw::NodeId node, FileState& file, std::uint64_t offset,
                           std::uint64_t bytes, bool is_write, bool buffered,
                           obs::SpanContext span = {});

  /// Fetches one whole stripe unit into the server cache and charges the
  /// network round trip (client read-cache fill).
  sim::Task<void> fetch_unit(hw::NodeId node, FileState& file, std::uint64_t unit_index,
                             obs::SpanContext span = {});

  /// Flushes every server's dirty units to the arrays (end-of-run barrier
  /// in tests; not part of the traced workload).
  sim::Task<void> flush_servers();

  /// Disk location of a stripe unit, placed by its I/O server on first touch.
  std::uint64_t disk_offset_of(const FileState& file, std::uint64_t unit_index);

  // ---- aggregate statistics ----
  std::uint64_t bytes_read() const { return bytes_read_; }
  std::uint64_t bytes_written() const { return bytes_written_; }
  std::uint64_t data_ops() const { return data_ops_; }

  // ---- resilience ----
  /// Whether the retry/timeout machinery is active for this instance.
  bool robust() const { return cfg_.retry.enabled; }
  const RetryPolicy& retry_policy() const { return cfg_.retry; }
  std::uint64_t op_retries() const { return retries_; }
  std::uint64_t op_timeouts() const { return timeouts_; }
  std::uint64_t failed_ops() const { return failed_ops_; }

  // ---- crash consistency ----
  /// End-of-run integrity scrub: walks every server's unit ledger and
  /// classifies each acknowledged stripe unit as durable, still pending in
  /// a live cache, torn, or lost, then folds in the journal counters.  Pure
  /// bookkeeping — costs no simulated time and never perturbs the run.
  pablo::ScrubReport scrub() const;

  // ---- overload protection ----
  bool qos_enabled() const { return cfg_.qos.enabled; }
  const qos::QosConfig& qos_config() const { return cfg_.qos; }
  /// The admission queue fronting I/O server `i` (nullptr when QoS is off).
  qos::ServerQos* server_qos(int i) {
    return cfg_.qos.enabled ? qos_servers_[static_cast<std::size_t>(i)].get() : nullptr;
  }
  /// The admission queue fronting the metadata server (nullptr when off).
  qos::ServerQos* metadata_qos() { return meta_qos_.get(); }
  /// The circuit breaker watching I/O node `i` (nullptr when QoS is off).
  qos::CircuitBreaker* breaker(int i) {
    return cfg_.qos.enabled ? breakers_[static_cast<std::size_t>(i)].get() : nullptr;
  }
  /// Attempts turned away at admission (rejected or shed) seen by clients.
  std::uint64_t backpressure_rejects() const { return backpressure_rejects_; }
  /// Writes held back while an I/O node's breaker was open.
  std::uint64_t breaker_holds() const { return breaker_holds_; }
  /// Reads served via RAID-3 degraded reconstruction while a breaker was
  /// open.
  std::uint64_t rerouted_reads() const { return reroutes_; }

  // ---- end-to-end integrity ----
  /// While [t0, t1) is open, every `every_n`-th read response from I/O node
  /// `io_node` arrives with a corrupt payload.  With integrity on, the
  /// client-side transfer checksum detects it and the segment is re-driven
  /// (requires retry); with integrity off the corrupt payload is accepted.
  void add_link_corrupt_window(int io_node, sim::Tick t0, sim::Tick t1, int every_n);

  /// Turns on read-unit integrity bookkeeping on every server (see
  /// IoServer::set_integrity_tracking); armed by the fault clock for plans
  /// that inject corruption with verification off.
  void enable_integrity_tracking();

  /// Aggregated integrity posture of the instance: per-server detection and
  /// repair counters, link-corruption counters, and the residual corruption
  /// still sitting on the arrays per the omniscient ledger.
  pablo::IntegrityReport integrity_report() const;

  /// Read payloads whose link corruption the transfer checksum caught.
  std::uint64_t link_corrupt_detected() const { return link_corrupt_detected_; }
  /// Corrupt read payloads accepted because no checksum covered the link.
  std::uint64_t link_corrupt_acks() const { return link_corrupt_acks_; }

 private:
  hw::Machine& machine_;
  pablo::Collector& collector_;
  PfsConfig cfg_;
  MetadataServer meta_;
  StripeLayout layout_;
  std::vector<std::unique_ptr<IoServer>> servers_;
  // Ordered by path so any future iteration (listing, whole-FS flush, dump)
  // is deterministic; std::less<> enables string_view lookups without a copy.
  std::map<std::string, std::unique_ptr<FileState>, std::less<>> files_;

  std::uint64_t bytes_read_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t data_ops_ = 0;

  // Client retry stream: forked off the machine seed but independent of the
  // machine's own Rng, so enabling faults never perturbs workload draws.
  sim::Rng retry_rng_;
  std::uint64_t next_op_id_ = 1;
  std::uint64_t retries_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t failed_ops_ = 0;

  // ---- overload protection (populated only when cfg_.qos.enabled) ----
  std::vector<std::unique_ptr<qos::ServerQos>> qos_servers_;
  std::unique_ptr<qos::ServerQos> meta_qos_;
  std::vector<std::unique_ptr<qos::CircuitBreaker>> breakers_;
  /// Per-sick-node bound on concurrent degraded reconstructions.  A rerouted
  /// read fans share-reads onto *every* surviving array, so unbounded
  /// rerouting under load turns one sick node into fleet-wide disk
  /// contention, times out healthy reads, and opens every breaker — the
  /// amplification spiral this semaphore (sized like a server's service
  /// slots) breaks.
  std::vector<std::unique_ptr<sim::Semaphore>> rebuild_slots_;
  std::uint64_t backpressure_rejects_ = 0;
  std::uint64_t breaker_holds_ = 0;
  std::uint64_t reroutes_ = 0;

  // ---- end-to-end integrity ----
  /// One armed link-corruption window; `seen` counts matching responses so
  /// every `every_n`-th one is corrupted deterministically.
  struct LinkCorrupt {
    int io_node = -1;
    sim::Tick t0 = 0;
    sim::Tick t1 = 0;
    int every_n = 1;
    std::uint64_t seen = 0;
  };
  std::vector<LinkCorrupt> link_corrupt_;
  std::uint64_t link_corrupt_detected_ = 0;
  std::uint64_t link_corrupt_acks_ = 0;
  std::uint64_t link_corrupt_bytes_acked_ = 0;

  friend class FileHandle;

  /// Outcome of one segment attempt.  `ok` = reply arrived and the op was
  /// served; `turned_away` = the server answered with a rejection/shed nack
  /// whose `retry_after` credit the backoff must honor; neither = silence
  /// (message dropped), indistinguishable from a timeout for the client.
  struct Attempt {
    bool ok = false;
    bool turned_away = false;
    sim::Tick retry_after = 0;
    /// The read payload arrived but its transfer checksum failed (link
    /// corruption caught end-to-end): re-drive immediately, no deadline wait.
    bool corrupt = false;
  };

  FileState& get_or_create(std::string_view path);
  sim::Task<void> transfer_segment(hw::NodeId node, FileState* file, StripeSegment seg,
                                   bool is_write, bool buffered, sim::WaitGroup* wg,
                                   obs::SpanContext span);
  /// One attempt of a segment transfer.  `op_id` = 0 means untracked
  /// (non-robust); `deadline_left` rides to the server for deadline-aware
  /// shedding; `span` is the enclosing attempt span (net hops and server
  /// stages open under it).
  sim::Task<Attempt> segment_attempt(hw::NodeId node, FileState* file, StripeSegment seg,
                                     bool is_write, bool buffered, std::uint64_t op_id,
                                     sim::Tick deadline_left, obs::SpanContext span);
  /// Serves a read segment by RAID-3 degraded reconstruction: the stripe's
  /// surviving shares are pulled from the other I/O nodes' arrays and the
  /// missing share is recomputed from parity client-side.
  sim::Task<void> reconstruct_segment(hw::NodeId node, FileState* file, StripeSegment seg,
                                      obs::SpanContext span);
  /// Deterministic exponential backoff (with seeded jitter) before retry
  /// number `attempt` (0-based).
  sim::Tick backoff_for(int attempt);
};

}  // namespace sio::pfs
