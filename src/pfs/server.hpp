// I/O-node server: one per I/O node, fronting one RAID-3 array.
//
// The server owns a stripe-unit cache (read cache + write-back buffer) and a
// CPU service queue.  Buffered reads fetch whole stripe units so subsequent
// small sequential reads hit; buffered writes are absorbed into the cache
// and flushed to the array when the dirty backlog crosses a threshold (or on
// explicit flush).  *Unbuffered* operations bypass the cache entirely and
// pay a full array access rounded up to the RAID-3 granule — the behavior
// PRISM version C bought itself by disabling buffering.
//
// An optional sequential-prefetch policy (one of the paper's §7 design
// principles) widens cache-miss fetches when the per-file access stream
// looks sequential; the ablation bench quantifies its effect.
//
// Fault/recovery model (driven by the fault-injection subsystem):
//
//   * crash/restart — a crashed server loses its volatile state (read cache
//     and *unflushed write-back data*) and parks incoming operations until
//     `restart()`; clients with retry enabled re-drive operations that timed
//     out across the outage.
//   * degraded mode — the server keeps serving but its CPU services are
//     stretched by `degraded_multiplier` (thrashing daemon, failing NIC).
//   * idempotent replay — when replay tracking is on, every client operation
//     carries an id; a re-driven operation whose original attempt already
//     completed is acknowledged from the completed-id set instead of being
//     applied twice.
//   * duplicate coalescing — a re-driven operation whose original attempt is
//     *still executing* (the client timed out, the server did not) joins the
//     in-flight twin instead of queueing a second disk access.  Without this
//     a timed-out burst re-feeds its own queue and the array never drains —
//     the classic retry-storm collapse.
//   * write-ahead journaling (ServerConfig::journal) — with the journal on,
//     every buffered write is forced to a sequential-log region on the
//     node's array *before* its ack; `restart()` then runs a recovery phase
//     that redoes unapplied journal records (full mode) or flags them as
//     detected losses (meta mode) before unparking clients.  A crash during
//     recovery aborts the redo pass; the next restart resumes it — each
//     record is redone exactly once because only a *completed* redo retires
//     it.
//   * torn writes — `crash(torn=true)` models the array applying only a
//     deterministic prefix of an in-flight write-back (half the stripe unit,
//     rounded down to the RAID-3 granule); the unit ledger records the torn
//     unit for the post-run scrub.

#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "machine/disk.hpp"
#include "obs/trace.hpp"
#include "pablo/event.hpp"
#include "pfs/content.hpp"
#include "pfs/integrity.hpp"
#include "pfs/journal.hpp"
#include "pfs/types.hpp"
#include "pfs/unit_table.hpp"
#include "qos/qos.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace sio::pablo {
class Collector;
}

namespace sio::pfs {

/// Per-operation client context threaded to the server: originating compute
/// node (for fair queueing), replay id (0 = untracked), remaining deadline
/// budget (0 = none; enables deadline-aware shedding), and the causal-span
/// context server-side stages (admit/service/disk/journal/verify) open
/// children under (null tracer = tracing off).
struct OpCtx {
  std::int32_t node = -1;
  std::uint64_t op_id = 0;
  sim::Tick deadline_left = 0;
  obs::SpanContext span{};
};

struct ServerConfig {
  /// CPU service for an operation satisfied from cache.
  sim::Tick hit_service = sim::microseconds(12);
  /// CPU service to absorb a buffered write into the cache: a fixed setup
  /// cost plus a copy cost proportional to the payload.
  sim::Tick write_absorb = sim::microseconds(50);
  /// Copy-in bandwidth of the server cache (bytes per tick; 0.05 = 50 MB/s).
  double absorb_bytes_per_tick = 0.05;
  /// CPU service to set up any disk transfer.
  sim::Tick miss_setup = sim::microseconds(120);
  /// Read-cache capacity in stripe units.
  std::size_t cache_units = 192;
  /// Dirty units above which a write triggers an inline flush of the oldest
  /// dirty unit (keeps the model free of perpetual background tasks).
  std::size_t dirty_limit = 96;
  /// Sequential prefetch: number of *extra* units fetched on a miss that
  /// extends a sequential per-file run (0 = off, the PFS baseline).
  int prefetch_units = 0;
  /// CPU-service multiplier while the server runs in degraded mode.
  double degraded_multiplier = 4.0;
  /// Write-ahead journaling policy (off = the pre-journal durability model:
  /// a crash silently drops dirty write-behind units).
  JournalMode journal = JournalMode::kOff;
  /// Setup cost of one journal append (charged before the write's ack).
  sim::Tick journal_append_setup = sim::microseconds(25);
  /// Sequential-log bandwidth of the journal region (bytes per tick;
  /// 0.2 = 200 MB/s — streaming appends beat the array's random writes).
  double journal_bytes_per_tick = 0.2;
  /// Per-record scan/validate cost during the recovery redo pass.
  sim::Tick journal_replay_setup = sim::microseconds(40);
  /// End-to-end integrity policy (off = the pre-integrity model: silent
  /// corruption is served to clients and only the omniscient ledger knows).
  IntegrityConfig integrity{};
};

/// A stripe unit: (file id, global stripe-unit index).
struct UnitKey {
  std::uint32_t file = 0;
  std::uint64_t unit = 0;
};

class IoServer {
 public:
  /// `stripe_factor` is the total number of I/O nodes: server `id` holds the
  /// global stripe units with `unit % stripe_factor == id`, so consecutive
  /// units of one file seen by *this* server differ by the stripe factor.
  IoServer(sim::Engine& engine, int id, const hw::DiskConfig& disk_cfg, std::uint64_t stripe_unit,
           int stripe_factor, const ServerConfig& cfg)
      : engine_(engine),
        id_(id),
        cfg_(cfg),
        stripe_unit_(stripe_unit),
        stripe_factor_(static_cast<std::uint64_t>(stripe_factor)),
        disk_(engine, disk_cfg),
        cpu_(engine),
        units_(stripe_factor_, static_cast<std::uint64_t>(id)),
        ledger_(units_),
        journal_(units_, cfg.journal) {}

  IoServer(const IoServer&) = delete;
  IoServer& operator=(const IoServer&) = delete;

  int id() const { return id_; }
  hw::Raid3Disk& disk() { return disk_; }
  const ServerConfig& config() const { return cfg_; }

  /// Where the unit starts on this node's array.  The first call places it
  /// at the array's bump pointer; a unit keeps its place for good.  The
  /// client places each unit when it first issues a request for it, so the
  /// layout follows request order, not arrival order.
  std::uint64_t place(std::uint32_t file, std::uint64_t unit) {
    return placed(file, unit).disk_offset;
  }

  /// Read of [offset_in_unit, +len) of a stripe unit (placed on first use).
  /// Buffered misses fetch the whole unit; unbuffered reads bypass the cache
  /// and pay a raw array access at the exact position.  `prefetch_cap`
  /// bounds how many units beyond this one may be prefetched (the client
  /// derives it from the file's remaining extent on this node, so prefetch
  /// never overshoots).
  /// `ctx` carries the client's node/op-id/deadline; with QoS attached the
  /// returned Admission reports whether the op was served or turned away
  /// (rejected/shed) with a retry-after credit.  Without QoS every op is
  /// served and the returned Admission is the default (admitted).
  sim::Task<qos::Admission> read(UnitKey key, std::uint64_t offset_in_unit, std::uint64_t len,
                                 bool buffered, int prefetch_cap = 1 << 20, OpCtx ctx = {}) {
    return serve(key, offset_in_unit, len, buffered, /*write=*/false, prefetch_cap, ctx);
  }

  /// Write into a stripe unit; buffered writes are absorbed into the
  /// write-back cache, unbuffered writes go straight to the array.  A tracked
  /// replay of an already-completed write is acknowledged without being
  /// applied twice.
  sim::Task<qos::Admission> write(UnitKey key, std::uint64_t offset_in_unit, std::uint64_t len,
                                  bool buffered, OpCtx ctx = {}) {
    return serve(key, offset_in_unit, len, buffered, /*write=*/true, 0, ctx);
  }

  /// Drains every dirty unit to the array.
  sim::Task<void> flush_all();

  // ---- fault injection (driven by fault::FaultClock) ----

  /// Crashes the server now: volatile state (read cache, write-back buffer,
  /// completed-op ids) is lost and incoming operations park until restart.
  /// With `torn` set, an in-flight write-back applies only a deterministic
  /// prefix of its unit (a partial-stripe "torn write").  One #loss record
  /// is emitted per dropped dirty unit when a collector is attached.
  /// Crashing an already-crashed (recovering) server aborts the recovery
  /// pass in flight; parked clients keep waiting on the same restart event.
  void crash(bool torn = false);

  /// Restarts a crashed server cold.  With the journal off (or nothing to
  /// redo) parked operations resume immediately in FIFO order; otherwise a
  /// recovery phase redoes unapplied journal records first and clients
  /// unpark when it completes.
  void restart();

  bool crashed() const { return crashed_; }

  /// True while a restart's journal-recovery pass is redoing records.
  bool recovering() const { return recovering_; }

  /// Enters/leaves degraded mode (CPU services stretched, still serving).
  void set_degraded(bool on) { degraded_ = on; }
  bool degraded_mode() const { return degraded_; }

  /// Enables server-side tracking of client operation ids for idempotent
  /// replay.  Off by default so fault-free runs carry no tracking state.
  void set_replay_tracking(bool on) { replay_tracking_ = on; }

  // ---- overload protection ----

  /// Attaches the bounded admission queue fronting this server (owned by the
  /// Pfs instance; nullptr = unprotected, the pre-QoS behavior).
  void set_qos(qos::ServerQos* q) { qos_ = q; }
  qos::ServerQos* qos_queue() const { return qos_; }

  // ---- crash consistency ----

  /// Attaches the run's collector so crashes can emit #loss records and
  /// recovery passes #fault records (nullptr = silent, for unit tests).
  void set_collector(pablo::Collector* c) { collector_ = c; }

  /// The acked-vs-durable unit ledger (scrubbed post-run by Pfs::scrub()).
  const UnitLedger& ledger() const { return ledger_; }

  /// The write-ahead journal (off-mode instance when journaling is off).
  const Journal& journal() const { return journal_; }

  /// Whether the unit is currently dirty in the write-back cache (a scrub
  /// classifies such units as pending, not lost).
  bool unit_dirty(std::uint32_t file, std::uint64_t unit) const {
    const UnitSlot* s = units_.find(file, unit);
    return s != nullptr && s->dirty;
  }

  // ---- end-to-end integrity (implemented in integrity.cpp) ----

  /// Silent bit-rot lands now: a seeded draw over this node's durable units
  /// flips bytes on up to `units` of them (clipped to what exists).  With
  /// `journal` set, the rot additionally hits open full-mode journal
  /// payloads.  Pure state mutation — costs no simulated time.
  void inject_bit_rot(std::uint64_t seed, int units, bool journal);

  /// While [t0, t1) is open, every completed write-back misbehaves: phantom
  /// (acked + trimmed but the array never saw it) or misdirected (the bytes
  /// land on the previously written-back unit instead).
  void add_write_back_corrupt_window(sim::Tick t0, sim::Tick t1, bool phantom);

  /// The online background scrubber: `scrub_sweeps` bounded sweeps on a
  /// `scrub_interval` cadence, each verifying a batch of units under the QoS
  /// background class and repairing latent errors (mode=repair) before a
  /// spindle failure would make them unrecoverable.  Spawned by Pfs when
  /// `cfg.integrity.scrubbing()`.
  sim::Task<void> scrubber();

  /// Bounds concurrent parity repairs (shared with degraded reconstruction).
  void set_rebuild_slot(sim::Semaphore* s) { rebuild_slot_ = s; }

  /// Makes reads register fetched input units with the ledger (and the
  /// scrubber/injector population) even when verification is off — how an
  /// integrity=off corruption run keeps its omniscient bookkeeping.  Armed
  /// by the fault clock for plans that inject corruption; always on when
  /// `cfg.integrity.enabled()`.  Pure bookkeeping, costs no simulated time.
  void set_integrity_tracking(bool on) { track_read_units_ = on; }

  const IntegrityStats& integrity_stats() const { return integ_; }

  // ---- statistics ----
  std::uint64_t cache_hits() const { return hits_; }
  std::uint64_t cache_misses() const { return misses_; }
  std::uint64_t unbuffered_ops() const { return unbuffered_; }
  std::uint64_t prefetched_units() const { return prefetched_; }
  std::size_t dirty_units() const { return dirty_.size(); }
  std::size_t cached_units() const { return lru_.size(); }
  /// Replayed (already-completed) operations acknowledged from the id set.
  std::uint64_t replayed_ops() const { return replayed_; }
  /// Re-driven operations that joined a still-executing twin.
  std::uint64_t coalesced_ops() const { return coalesced_; }
  std::uint64_t crash_count() const { return crashes_; }
  /// Dirty write-back units lost across crashes (data clients must re-drive).
  std::uint64_t lost_dirty_units() const { return lost_dirty_; }
  /// Units left torn by a crash mid write-back.
  std::uint64_t torn_unit_count() const { return torn_units_; }
  /// Whether a unit write-back is in flight to the array right now — the
  /// window a torn crash can clip.
  bool write_back_in_flight() const { return wb_.slot != nullptr; }
  /// Peak depth of the CPU service queue (holder + waiters) — with QoS
  /// attached this is bounded by the admission `service_slots`.
  std::size_t peak_cpu_queue() const { return peak_cpu_queue_; }

 private:
  sim::Engine& engine_;
  int id_;
  ServerConfig cfg_;
  std::uint64_t stripe_unit_;
  std::uint64_t stripe_factor_;
  hw::Raid3Disk disk_;
  sim::Mutex cpu_;
  qos::ServerQos* qos_ = nullptr;
  std::size_t peak_cpu_queue_ = 0;

  /// Every unit this server ever placed or tracked, in (file, unit) order.
  UnitTable units_;
  std::uint64_t next_offset_ = 0;  ///< bump pointer of this node's array
  UnitList<&UnitSlot::lru> lru_;      ///< resident units, front = least recent
  UnitList<&UnitSlot::flush> dirty_;  ///< dirty units, FIFO flush order

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t unbuffered_ = 0;
  std::uint64_t prefetched_ = 0;

  // ---- fault state ----
  bool crashed_ = false;
  bool degraded_ = false;
  bool replay_tracking_ = false;
  /// Signaled on restart; recreated at each crash so late waiters of an old
  /// outage never confuse a new one.
  std::unique_ptr<sim::Event> restart_ev_;
  /// Completed operation ids (only populated when replay tracking is on;
  /// never iterated, so its unordered layout can't leak into event order).
  std::unordered_set<std::uint64_t> completed_;
  /// Ops currently executing, keyed by id, with the event a duplicate joins
  /// (never iterated; lookup/erase by key only).
  std::unordered_map<std::uint64_t, std::shared_ptr<sim::Event>> in_flight_;
  std::uint64_t replayed_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t lost_dirty_ = 0;
  std::uint64_t torn_units_ = 0;

  // ---- crash consistency ----
  pablo::Collector* collector_ = nullptr;
  /// Acked-vs-durable bookkeeping.  Survives crashes by design: it models
  /// the scrubber's omniscient view and costs no simulated time.
  UnitLedger ledger_;
  /// The write-ahead journal: a sequential-log region on this node's array,
  /// so its state also survives crashes.
  Journal journal_;
  bool recovering_ = false;
  /// The single in-flight write-back (all write-backs serialize under the
  /// CPU mutex, so one slot suffices).  `crash(torn=true)` consumes it to
  /// tear the unit; the write-back coroutine checks `torn` after its array
  /// access to decide whether the unit became durable.
  struct WriteBack {
    UnitSlot* slot = nullptr;  ///< the unit in flight (nullptr = none)
    bool torn = false;
  };
  WriteBack wb_;

  // ---- end-to-end integrity ----
  IntegrityStats integ_;
  sim::Semaphore* rebuild_slot_ = nullptr;
  struct WbCorruptWindow {
    sim::Tick t0 = 0;
    sim::Tick t1 = 0;
    bool phantom = false;
  };
  std::vector<WbCorruptWindow> wb_corrupt_;
  /// The last unit that completed a clean write-back — the victim a
  /// misdirected write-back overwrites (nullptr = none yet).
  UnitSlot* last_wb_ = nullptr;
  /// Scrub sweep cursor: the last unit visited (nullptr = start of table).
  UnitSlot* scrub_cursor_ = nullptr;
  /// Reads register fetched input units with the ledger and the scrub
  /// population (see set_integrity_tracking).
  bool track_read_units_ = false;

  /// The unit's slot, placed at the array's bump pointer on first use.
  UnitSlot& placed(std::uint32_t file, std::uint64_t unit);
  /// One client read or write: admission, then service under the CPU mutex.
  sim::Task<qos::Admission> serve(UnitKey key, std::uint64_t offset_in_unit, std::uint64_t len,
                                  bool buffered, bool write, int prefetch_cap, OpCtx ctx);

  /// Whether fetched units should be registered for integrity bookkeeping.
  bool integrity_tracking() const { return track_read_units_ || cfg_.integrity.enabled(); }
  /// Registers a fetched unit: its bytes exist durable on the array.
  void observe_fetched(UnitSlot& s, std::uint64_t offset_in_unit, std::uint64_t len);

  /// Checksum verification cost for `bytes` (setup + scan bandwidth).
  sim::Tick verify_cost(std::uint64_t bytes) const;
  /// The write-back corruption window covering `now`, if any.
  const WbCorruptWindow* wb_corrupt_active() const;
  void emit_integrity(pablo::IntegrityKind kind, std::uint32_t file, std::uint64_t unit,
                      std::uint64_t bytes);
  /// Verify-on-read of [offset_in_unit, +len) of a unit just read from the
  /// array: `cached` = the whole unit was fetched into the cache (buffered
  /// path), an unbuffered range access otherwise.  Handles detection,
  /// on-the-fly regeneration, read-repair and the silent-taint bookkeeping
  /// per the configured mode.
  sim::Task<void> verify(UnitSlot& s, std::uint64_t offset_in_unit, std::uint64_t len,
                         bool cached);
  /// Accounts corrupt bytes served to a client with no checksum to catch
  /// them (integrity=off): the silent failure mode.
  void note_corrupt_served(const UnitSlot& s, std::uint64_t offset_in_unit, std::uint64_t len);
  /// Regenerates a corrupt unit from RAID-3 parity and rewrites it, bounded
  /// by the rebuild semaphore.  `scrub` selects the counter/event flavor.
  sim::Task<void> repair_unit(const UnitSlot& s, bool scrub);

  /// CPU service stretched by the degraded multiplier when in effect.
  sim::Tick svc(sim::Tick t) const;
  /// Parks the caller while the server is down.
  sim::Task<void> wait_if_crashed();

  /// Makes the unit resident and most recently used and, with `dirty`,
  /// queues it for write-back unless it already is.
  void insert(UnitSlot& s, bool dirty);
  sim::Task<void> evict_if_needed();
  sim::Task<void> flush_oldest_dirty();
  /// One unit write-back to the array, tracked in `wb_` so a torn crash can
  /// clip it.  Returns whether the unit became durable (false when a torn
  /// crash consumed the transfer); on success snapshots the ledger.
  sim::Task<bool> write_back(UnitSlot& s);
  /// Journal-recovery pass spawned by restart(): redoes unapplied records in
  /// log order under the CPU mutex, then unparks clients.  `epoch` is the
  /// crash count at restart; a second crash changes it and aborts the pass.
  sim::Task<void> recover(std::uint64_t epoch);
  /// Emits one #loss record for a dropped dirty unit (no-op without a
  /// collector).
  void emit_loss(const UnitSlot& s, bool torn);

  /// Front-end duplicate handling for a tracked op, run before the CPU
  /// queue: acks an already-completed id (replay) or joins a still-executing
  /// twin (coalesce).  Sets `handled` and returns; otherwise registers the
  /// op as in flight and leaves `done` set for `finish_op`.
  sim::Task<void> begin_op(std::uint64_t op_id, bool* handled,
                           std::shared_ptr<sim::Event>* done);
  /// Marks a tracked op completed: records the id, unregisters the
  /// in-flight entry (if still ours) and wakes joined duplicates.
  void finish_op(std::uint64_t op_id, const std::shared_ptr<sim::Event>& done);
  /// Unregisters a tracked op turned away at admission *without* marking it
  /// completed, and wakes joined duplicates so they re-drive it themselves.
  void abort_op(std::uint64_t op_id, const std::shared_ptr<sim::Event>& done);

  /// Deterministic service-time estimates for admission decisions (current
  /// cache state + analytic array service; never touches the cache).
  sim::Tick estimate(const UnitSlot& s, std::uint64_t offset_in_unit, std::uint64_t len,
                     bool buffered, bool write) const;
  /// Records the CPU queue depth this op is about to join.
  void note_cpu_queue();
};

}  // namespace sio::pfs
