#include "mc/scenarios.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "machine/machine.hpp"
#include "machine/os_profile.hpp"
#include "mc/fingerprint.hpp"
#include "pablo/collector.hpp"
#include "pfs/metadata.hpp"
#include "pfs/pfs.hpp"
#include "qos/breaker.hpp"
#include "qos/qos.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace sio::mc {
namespace {

// --------------------------------------------------------- bare engine -----
// Base of the scenarios that drive one protocol object on a bare engine:
// `tasks` workers of `rounds` rounds each.  finish() demands that every
// worker completed; mix_tasks() folds progress and phase into a fingerprint.
class TaskScenario : public Scenario {
 public:
  sim::Engine& engine() override { return engine_; }

  void finish() override {
    for (std::size_t i = 0; i < progress_.size(); ++i) {
      if (progress_[i] != rounds_) fail("worker " + std::to_string(i) + " incomplete");
    }
  }

 protected:
  TaskScenario(const char* name, int tasks, int rounds)
      : name_(name), rounds_(rounds), progress_(static_cast<std::size_t>(tasks)),
        phase_(progress_) {}

  [[noreturn]] void fail(const std::string& what) const {
    throw InvariantViolation(name_ + ": " + what);
  }

  void mix_tasks(Fingerprint& fp) const {
    for (std::size_t i = 0; i < progress_.size(); ++i) {
      fp.mix(static_cast<std::uint64_t>(progress_[i]));
      fp.mix(static_cast<std::uint64_t>(phase_[i]));
    }
  }

  std::string name_;
  int rounds_;
  sim::Engine engine_;
  Controller* ctl_ = nullptr;
  std::vector<int> progress_, phase_;
};

// ---------------------------------------------------------- token.meta -----
// The real metadata/token server under concurrent grant traffic on one
// shared file; a MetaServiceProbe watches every grant-held window for the
// paper's M_UNIX contract: at most one holder per (file, service class).
class TokenMetaScenario final : public TaskScenario, public pfs::MetaServiceProbe {
 public:
  TokenMetaScenario(int clients, int ops) : TaskScenario("token.meta", clients, ops) {}

  void start(Controller& ctl) override {
    ctl_ = &ctl;
    meta_ = std::make_unique<pfs::MetadataServer>(engine_, os_);
    meta_->set_probe(this);
    for (std::size_t i = 0; i < progress_.size(); ++i) engine_.spawn(worker(static_cast<int>(i)));
  }

  void on_service_begin(pablo::FileId file, pfs::MetaClass cls) override {
    int& n = in_service_[{file, static_cast<int>(cls)}];
    if (++n > 1) {
      fail(std::to_string(n) + " simultaneous grant holders on file " + std::to_string(file) +
           " class " + std::to_string(static_cast<int>(cls)));
    }
  }

  void on_service_end(pablo::FileId file, pfs::MetaClass cls) override {
    --in_service_[{file, static_cast<int>(cls)}];
  }

  void finish() override {
    for (const auto& [key, n] : in_service_) {
      if (n != 0) fail("grant still held on file " + std::to_string(key.first) + " at end of run");
    }
    TaskScenario::finish();
  }

  std::uint64_t fingerprint() const override {
    Fingerprint fp;
    fp.mix(0x6d657461ULL);  // "meta"
    fp.mix(meta_->requests_served());
    for (const auto& [key, n] : in_service_) {  // std::map: deterministic order
      fp.mix(static_cast<std::uint64_t>(key.first));
      fp.mix(static_cast<std::uint64_t>(key.second));
      fp.mix(static_cast<std::uint64_t>(n));
    }
    mix_tasks(fp);
    return fp.value();
  }

 private:
  sim::Task<void> worker(int id) {
    const auto slot = static_cast<std::size_t>(id);
    constexpr pablo::FileId kSharedFile = 1;
    for (int op = 0; op < rounds_; ++op) {
      co_await engine_.delay(0);
      const std::uint32_t which = ctl_->choose(3);
      phase_[slot] = 1 + static_cast<int>(which);
      switch (which) {
        case 0: co_await meta_->token_op(kSharedFile, /*is_write=*/false, id); break;
        case 1: co_await meta_->token_op(kSharedFile, /*is_write=*/true, id); break;
        default: co_await meta_->seek_op(kSharedFile, id); break;
      }
      phase_[slot] = 0;
      ++progress_[slot];
    }
  }

  hw::OsProfile os_ = hw::osf_r12();
  std::unique_ptr<pfs::MetadataServer> meta_;
  std::map<std::pair<pablo::FileId, int>, int> in_service_;
};

// ------------------------------------------------------------- breaker -----
// The real per-I/O-node circuit breaker (window of 2 outcomes) fed by two
// drivers whose attempt outcomes are choose() points.  After every dispatch
// the observable state may only have moved along legal paths: half-open only
// through an open, a close needs a half-open probe, counters never run
// backwards, and the outcome window stays bounded.
class BreakerScenario final : public TaskScenario {
 public:
  explicit BreakerScenario(int rounds) : TaskScenario("breaker", 2, rounds) {}

  void start(Controller& ctl) override {
    ctl_ = &ctl;
    cfg_.enabled = true;
    cfg_.breaker_window = 2;
    cfg_.breaker_min_samples = 2;
    cfg_.breaker_trip_ratio = 0.5;
    cfg_.breaker_open_for = 2;
    cfg_.breaker_halfopen_probes = 1;
    br_ = std::make_unique<qos::CircuitBreaker>(engine_, /*io_node=*/0, cfg_, nullptr);
    last_ = snapshot();
    for (int i = 0; i < 2; ++i) engine_.spawn(stream(i));
  }

  void check() override {
    const Snap cur = snapshot();
    const Snap p = last_;
    last_ = cur;
    if (cur.opens < p.opens || cur.closes < p.closes || cur.probes < p.probes) {
      fail("transition counter ran backwards");
    }
    if (cur.closes > cur.opens) fail("more closes than opens");
    if (cur.closes > cur.probes) fail("close without a half-open probe");
    if (cur.win > static_cast<std::size_t>(cfg_.breaker_window)) fail("outcome window overflow");
    if (cur.winf < 0 || static_cast<std::size_t>(cur.winf) > cur.win) {
      fail("window failure count out of range");
    }
    if (cur.probes_left < 0 || cur.probes_left > cfg_.breaker_halfopen_probes) {
      fail("half-open probe budget out of range");
    }
    if (cur.state == qos::BreakerState::kOpen && cur.opens == 0) {
      fail("open state with no recorded open");
    }
    if (cur.state != p.state) {
      using S = qos::BreakerState;
      const std::uint64_t d_open = cur.opens - p.opens;
      const std::uint64_t d_close = cur.closes - p.closes;
      // One dispatch can fire several transitions (the lazy open -> half-open
      // advance composes with the consultation's), so judge by counter deltas.
      if (p.state == S::kClosed && cur.state == S::kHalfOpen && d_open == 0) {
        fail("closed -> half-open without passing through open");
      }
      if (p.state == S::kClosed && cur.state == S::kOpen && d_open == 0) {
        fail("closed -> open without counting the open");
      }
      if (cur.state == S::kClosed && p.state != S::kClosed && d_close == 0) {
        fail("re-closed without counting the close");
      }
      if (p.state == S::kHalfOpen && cur.state == S::kOpen && d_open == 0) {
        fail("half-open -> open without counting the open");
      }
    }
  }

  std::uint64_t fingerprint() const override {
    Fingerprint fp;
    fp.mix(0x62726b72ULL);  // "brkr"
    fp.mix(static_cast<std::uint64_t>(br_->state()));
    fp.mix(br_->opens());
    fp.mix(br_->closes());
    fp.mix(br_->probes());
    fp.mix(br_->window_size());
    fp.mix(static_cast<std::uint64_t>(br_->window_failures()));
    fp.mix(static_cast<std::uint64_t>(br_->probes_left()));
    fp.mix_signed(std::max<sim::Tick>(br_->open_until() - engine_.now(), 0));
    mix_tasks(fp);
    return fp.value();
  }

 private:
  struct Snap {
    qos::BreakerState state = qos::BreakerState::kClosed;
    std::uint64_t opens = 0, closes = 0, probes = 0;
    std::size_t win = 0;
    int winf = 0, probes_left = 0;
  };

  Snap snapshot() const {
    return Snap{br_->state(), br_->opens(),           br_->closes(),    br_->probes(),
                br_->window_size(), br_->window_failures(), br_->probes_left()};
  }

  sim::Task<void> stream(int id) {
    const auto slot = static_cast<std::size_t>(id);
    for (int r = 0; r < rounds_; ++r) {
      co_await engine_.delay(0);
      if (br_->allow_attempt(id)) {
        co_await engine_.delay(1);  // the attempt itself takes a tick
        if (ctl_->choose(2) == 1) {
          br_->on_failure(id);
        } else {
          br_->on_success(id);
        }
      } else {
        // Held back: re-consult after one tick or past the open interval.
        co_await engine_.delay(1 + static_cast<sim::Tick>(ctl_->choose(2)));
      }
      ++progress_[slot];
    }
  }

  qos::QosConfig cfg_;
  std::unique_ptr<qos::CircuitBreaker> br_;
  Snap last_;
};

// ----------------------------------------------------------------- qos -----
// The real bounded admission queue at its tightest: one service slot, one
// waiter per (class, node) queue.  Invariants are the design bounds —
// occupancy <= slots, waiting <= limit x queues, peak pending <= slots +
// limit x queues — plus starvation-freedom for the credit-paced retries.
class QosScenario final : public TaskScenario {
 public:
  QosScenario(int nodes, int ops) : TaskScenario("qos", nodes, ops) {}

  void start(Controller& ctl) override {
    ctl_ = &ctl;
    cfg_.enabled = true;
    cfg_.service_slots = 1;
    cfg_.queue_limit = 1;
    cfg_.shed_enabled = false;
    cfg_.drr_quantum = 4;
    qos_ = std::make_unique<qos::ServerQos>(engine_, /*server_id=*/-1, cfg_, nullptr);
    for (std::size_t n = 0; n < progress_.size(); ++n) engine_.spawn(worker(static_cast<int>(n)));
  }

  void check() override {
    const std::size_t wait_bound = cfg_.queue_limit * progress_.size();
    if (qos_->occupancy() > cfg_.service_slots) {
      fail("occupancy " + std::to_string(qos_->occupancy()) + " exceeds " +
           std::to_string(cfg_.service_slots) + " service slots");
    }
    if (qos_->waiting() > wait_bound) {
      fail(std::to_string(qos_->waiting()) + " waiting ops exceed the bound " +
           std::to_string(wait_bound));
    }
    if (qos_->max_pending() > cfg_.service_slots + wait_bound) {
      fail("peak pending " + std::to_string(qos_->max_pending()) +
           " exceeds slots + queue bound " + std::to_string(cfg_.service_slots + wait_bound));
    }
  }

  void finish() override {
    if (qos_->occupancy() != 0 || qos_->waiting() != 0) fail("queue not drained at end of run");
    TaskScenario::finish();
  }

  std::uint64_t fingerprint() const override {
    Fingerprint fp;
    fp.mix(0x716f73ULL);  // "qos"
    fp.mix(qos_->occupancy());
    fp.mix(qos_->waiting());
    fp.mix(qos_->admitted());
    fp.mix(qos_->rejected());
    fp.mix(qos_->credits_issued());
    fp.mix(qos_->max_pending());
    mix_tasks(fp);
    return fp.value();
  }

 private:
  sim::Task<void> worker(int node) {
    const auto slot = static_cast<std::size_t>(node);
    constexpr sim::Tick kCost = 2;
    for (int op = 0; op < rounds_; ++op) {
      co_await engine_.delay(0);
      phase_[slot] = 1;  // seeking admission
      int tries = 0;
      for (;;) {
        const qos::Admission adm =
            co_await qos_->admit(node, qos::OpClass::kData, kCost, /*deadline_left=*/0);
        if (adm.verdict == qos::Verdict::kAdmitted) {
          phase_[slot] = 2;  // in service
          co_await engine_.delay(1 + static_cast<sim::Tick>(ctl_->choose(2)));
          qos_->release(kCost, adm.granted_at);
          break;
        }
        if (++tries > 32) fail("node " + std::to_string(node) + " starved after 32 rejections");
        co_await engine_.delay(std::max<sim::Tick>(adm.retry_after, 1));
      }
      phase_[slot] = 0;
      ++progress_[slot];
    }
  }

  qos::QosConfig cfg_;
  std::unique_ptr<qos::ServerQos> qos_;
};

// ------------------------------------------------------------- pfs rig -----
// One compute node on a 2x2 mesh driving a real pfs::Pfs (one I/O node)
// through Pfs::transfer, spans on.  Subclasses arm faults "right after the
// k-th dispatch from now" (k from choose()); check() runs after every
// dispatch, checks the invariants of scenarios.hpp, then fires the faults
// due.  fingerprint() stays 0 (parked frames are unobservable): no pruning.
class PfsRig : public Scenario {
 public:
  sim::Engine& engine() override { return machine_.engine(); }
  pfs::IoServer& server() { return fs_.server(0); }

  void check() override {
    ++dispatches_;
    check_state();
    for (auto& [at, fire] : armed_) {
      if (at == dispatches_) fire();
    }
  }

  void finish() override {
    collector_.finish_spans();
    check_state();
    if (engine().live_tasks() != 0) fail("a task never finished");
    if (const std::uint64_t lost = fs_.scrub().acked_bytes_lost; lost != 0) {
      fail(std::to_string(lost) + " acked bytes lost at end of run");
    }
    if (fs_.integrity_report().residual_corrupt_units != 0) {
      fail("latent corruption survived repair and scrubbing");
    }
  }

 protected:
  static constexpr std::uint64_t kUnit = 64 * 1024;

  PfsRig(const char* name, std::uint64_t units, const pfs::PfsConfig& cfg)
      : name_(name), machine_({.mesh_rows = 2, .mesh_cols = 2, .compute_nodes = 1, .io_nodes = 1}),
        collector_(machine_.engine()), fs_(machine_, collector_, cfg),
        file_(fs_.stage_file("/pfs/mc", units * kUnit)) {
    collector_.enable_spans();
  }

  /// Fires `fn` right after the k-th dispatch from now (k = 0: never).
  void after(std::uint32_t k, std::function<void()> fn) {
    if (k != 0) armed_.emplace_back(dispatches_ + k, std::move(fn));
  }

  /// Torn crash of the I/O node, restarted `down` later.  A node that is
  /// down and not recovering has nothing left to hit.
  void crash(sim::Tick down) {
    if (server().crashed() && !server().recovering()) return;
    server().crash(/*torn=*/true);
    engine().schedule_in(down, [this] { server().restart(); });
  }

  /// One 64 KB access per unit in [0, n), each under its own root op span:
  /// buffered writes closed by a server flush, or unbuffered reads.
  sim::Task<void> burst(std::uint64_t n, bool is_write) {
    for (std::uint64_t u = 0; u < n; ++u) {
      obs::SpanScope op(collector_.span_origin(), obs::StageKind::kOp, 0);
      if (is_write) ++writes_;
      co_await fs_.transfer(0, file_, u * kUnit, kUnit, is_write, is_write, op.ctx());
    }
    if (is_write) co_await fs_.flush_servers();
  }

 private:
  struct UnitView {
    std::uint64_t rots = 0, repairs = 0;
    std::vector<std::uint64_t> detections;  // dispatch of each unrepaired detection
  };

  [[noreturn]] void fail(const std::string& what) const {
    throw InvariantViolation(name_ + ": " + what);
  }

  void check_state() {
    const std::vector<obs::SpanEvent>& spans = collector_.span_events();
    for (; spans_seen_ < spans.size(); ++spans_seen_) {
      const obs::SpanEvent& sp = spans[spans_seen_];
      if (sp.stage != obs::StageKind::kService || sp.op_id == 0) continue;
      if (const int n = ++served_[sp.op_id]; n > 1) {
        fail("op_id " + std::to_string(sp.op_id) + " applied more than once (" +
             std::to_string(n) + " service spans)");
      }
    }
    if (server().disk().degraded()) degraded_at_ = dispatches_;
    const std::vector<pablo::IntegrityEvent>& integ = collector_.integrity_events();
    for (; integ_seen_ < integ.size(); ++integ_seen_) on_integrity(integ[integ_seen_]);

    const pfs::Journal& journal = server().journal();
    const pfs::Journal::Counters& c = journal.counters();
    if (c.appends > writes_) {
      fail("an op applied more than once (" + std::to_string(c.appends) + " journal appends for " +
           std::to_string(writes_) + " writes)");
    }
    // Records retire one at a time: a retirement count that grows by more
    // than the open set shrank means a retired record was redone again.
    const std::vector<pfs::Journal::Record> open = journal.unapplied();
    std::set<std::uint64_t> lsns;
    for (const pfs::Journal::Record& r : open) lsns.insert(r.lsn);
    std::uint64_t vanished = 0;
    for (const std::uint64_t lsn : open_lsns_) vanished += lsns.contains(lsn) ? 0 : 1;
    const std::uint64_t retired = c.trimmed + c.redone + c.detected_lost;
    if (retired - retired_ > vanished) fail("a journal record was redone twice");
    open_lsns_ = std::move(lsns);
    retired_ = retired;

    if (server().write_back_in_flight()) return;
    server().ledger().for_each([&](std::uint32_t file, std::uint64_t unit,
                                   const pfs::UnitLedger::UnitStatus& s) {
      if (s.durable_bytes >= s.acked_bytes || server().unit_dirty(file, unit)) return;
      for (const pfs::Journal::Record& r : open) {
        if (r.file == file && r.unit == unit) return;
      }
      fail("acked write to unit " + std::to_string(unit) +
           " is unrecoverable (not durable, cached or journaled)");
    });
  }

  void on_integrity(const pablo::IntegrityEvent& ev) {
    using K = pablo::IntegrityKind;
    UnitView& u = units_[ev.unit];
    const std::string unit = "unit " + std::to_string(ev.unit);
    switch (ev.kind) {
      case K::kCorruptAck:
        fail(std::to_string(ev.bytes) + " corrupt bytes of " + unit + " acknowledged");
      case K::kBitRot: ++u.rots; break;
      case K::kVerifyFail:
      case K::kScrubDetect: u.detections.push_back(dispatches_); break;
      case K::kRepairLost: if (!u.detections.empty()) u.detections.pop_back(); break;
      case K::kReadRepair:
      case K::kScrubRepair:
        // A repair answers its unit's newest detection (the node's CPU mutex
        // is held from detection through repair) and settles older deferred
        // ones; the array must not be degraded at any dispatch in between.
        if (u.detections.empty()) fail(unit + " repaired with no detection");
        if (degraded_at_ >= u.detections.back()) {
          const char* how = ev.kind == K::kReadRepair ? " read-repaired" : " scrub-repaired";
          fail(unit + how + " while its array rebuilds");
        }
        u.detections.clear();
        if (++u.repairs > u.rots) {
          fail(unit + " regenerated " + std::to_string(u.repairs) + " times for " +
               std::to_string(u.rots) + " rot(s)");
        }
        break;
      default: break;
    }
  }

  std::string name_;
  hw::Machine machine_;
  pablo::Collector collector_;
  pfs::Pfs fs_;
  pfs::FileState& file_;
  std::uint64_t dispatches_ = 0, degraded_at_ = 0;  // latest dispatch with the array degraded
  std::vector<std::pair<std::uint64_t, std::function<void()>>> armed_;
  std::uint64_t writes_ = 0;
  std::size_t spans_seen_ = 0, integ_seen_ = 0;
  std::map<std::uint64_t, int> served_;  // op_id -> service spans
  std::set<std::uint64_t> open_lsns_;
  std::uint64_t retired_ = 0;
  std::map<std::uint64_t, UnitView> units_;
};

// ----------------------------------------------------------- wal/retry -----
// `writes` buffered writes; a torn crash lands after any of the first 12
// dispatches and keeps the node down for `down`.  A second crash may land
// where `second` says (see SecondCrash), counted in dispatches.
class CrashScenario final : public PfsRig {
 public:
  CrashScenario(const char* name, std::uint64_t writes, const pfs::PfsConfig& cfg, sim::Tick down,
                SecondCrash second)
      : PfsRig(name, writes, cfg), burst_(writes), down_(down), second_(second) {}

  void start(Controller& ctl) override {
    after(1 + ctl.choose(12), [this] { crash(down_); });
    constexpr std::uint32_t kSlots[] = {0, 4, 16};  // by SecondCrash
    recrash_at_ = ctl.choose(kSlots[static_cast<int>(second_)] + 1);
    engine().spawn(burst(burst_, /*is_write=*/true));
  }

  void check() override {
    PfsRig::check();
    const bool back = server().recovering() || (second_ == SecondCrash::kAfterRestart &&
                                                server().crash_count() > 0 && !server().crashed());
    if (recrash_at_ != 0 && back && ++steps_back_ == recrash_at_) crash(down_);
  }

 private:
  std::uint64_t burst_;
  sim::Tick down_;
  SecondCrash second_;
  std::uint32_t recrash_at_ = 0, steps_back_ = 0;
};

// ----------------------------------------------------------- integrity -----
// Two units written and flushed, then read back unbuffered while the node
// scrubs.  Bit-rot (one of two seeds: either unit) lands after any of the
// first 8 dispatches of the read phase; a spindle failure may too.
class RotScenario final : public PfsRig {
 public:
  explicit RotScenario(const pfs::PfsConfig& cfg) : PfsRig("integrity", 2, cfg) {}

  void start(Controller& ctl) override {
    seed_ = 1 + ctl.choose(2);
    rot_ = 1 + ctl.choose(8);
    fail_ = ctl.choose(9);
    engine().spawn(run());
  }

 private:
  sim::Task<void> run() {
    co_await burst(2, /*is_write=*/true);
    after(rot_, [this] { server().inject_bit_rot(seed_, /*units=*/1, /*journal=*/false); });
    after(fail_, [this] { server().disk().fail_spindle(256 * 1024); });
    co_await burst(2, /*is_write=*/false);
  }

  std::uint64_t seed_ = 0;
  std::uint32_t rot_ = 0, fail_ = 0;
};

}  // namespace

ScenarioFactory make_token_meta_scenario(int clients, int ops_per_client) {
  return [=] { return std::make_unique<TokenMetaScenario>(clients, ops_per_client); };
}

ScenarioFactory make_breaker_scenario(int rounds) {
  return [=] { return std::make_unique<BreakerScenario>(rounds); };
}

ScenarioFactory make_qos_scenario(int nodes, int ops_per_node) {
  return [=] { return std::make_unique<QosScenario>(nodes, ops_per_node); };
}

ScenarioFactory make_retry_scenario(bool replay_tracking, SecondCrash second) {
  // A 5 ms op deadline against a 10 ms outage: timed-out attempts are
  // re-driven across it and wake together at restart.
  pfs::PfsConfig cfg;
  cfg.server.journal = pfs::JournalMode::kFull;
  cfg.retry.enabled = true;
  cfg.retry.op_deadline = sim::milliseconds(5);
  const std::uint64_t writes = second == SecondCrash::kNone ? 2 : 1;
  return [=] {
    auto d = std::make_unique<CrashScenario>("retry", writes, cfg, sim::milliseconds(10), second);
    d->server().set_replay_tracking(replay_tracking);
    return d;
  };
}

ScenarioFactory make_wal_scenario(bool journal) {
  // dirty_limit = 1: each write flushes its predecessor inline.
  pfs::PfsConfig cfg;
  cfg.server.dirty_limit = 1;
  cfg.server.journal = journal ? pfs::JournalMode::kFull : pfs::JournalMode::kOff;
  return [=] {
    return std::make_unique<CrashScenario>("wal", 3, cfg, sim::milliseconds(5),
                                           SecondCrash::kInRecovery);
  };
}

ScenarioFactory make_integrity_scenario(bool integrity) {
  pfs::PfsConfig cfg;
  pfs::IntegrityConfig& ic = cfg.server.integrity;
  ic.mode = integrity ? pfs::IntegrityMode::kRepair : pfs::IntegrityMode::kOff;
  ic.scrub_interval = sim::milliseconds(100);
  ic.scrub_sweeps = 6;  // the last sweeps trail the spindle rebuild
  ic.scrub_units_per_sweep = 2;
  return [=] { return std::make_unique<RotScenario>(cfg); };
}

const std::vector<NamedScenario>& scenario_registry() {
  static const std::vector<NamedScenario> kScenarios = {
      {"token.meta", "2 clients x 2 grant ops on the real MetadataServer (one holder)", true,
       make_token_meta_scenario(2, 2)},
      {"retry.safe", "Pfs: 2 writes, 5 ms deadline, one crash mid-burst (each op applied once)",
       true, make_retry_scenario(true, SecondCrash::kNone)},
      {"retry.unsafe", "the same with replay tracking off (re-driven op applied again)", false,
       make_retry_scenario(false, SecondCrash::kNone)},
      {"retry.recovery", "Pfs: 1 write, crash mid-burst + crash mid-recovery (applied once)",
       true, make_retry_scenario(true, SecondCrash::kInRecovery)},
      {"retry.recrash", "1 write, crash after the restart (completed op applied again)", false,
       make_retry_scenario(true, SecondCrash::kAfterRestart), "applied more than once", 2000},
      {"breaker", "2 outcome streams against a window-2 circuit breaker (FSM legality)", true,
       make_breaker_scenario(2)},
      {"qos", "2 nodes x 2 ops through a 1-slot bounded admission queue (queue bounds)", true,
       make_qos_scenario(2, 2)},
      {"wal.full", "Pfs: 3 writes, torn crash + crash mid-recovery (no acked loss; redo once)",
       true, make_wal_scenario(true)},
      {"wal.off", "the same with the journal off (write-behind loss)", false,
       make_wal_scenario(false)},
      {"integrity.repair", "Pfs: bit-rot + spindle failure vs verify, repair and scrub", false,
       make_integrity_scenario(true), "read-repaired while its array rebuilds"},
      {"integrity.off", "the same with integrity off (silent corrupt ack)", false,
       make_integrity_scenario(false)},
  };
  return kScenarios;
}

const NamedScenario* find_scenario(const std::string& name) {
  for (const NamedScenario& s : scenario_registry()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace sio::mc
