#include "pfs/pfs.hpp"

#include <algorithm>
#include <cmath>

#include "sim/timeout.hpp"

namespace sio::pfs {

namespace {
/// One survivor's raw share read during RAID-3 degraded reconstruction.
sim::Task<void> read_share(hw::Raid3Disk& disk, std::uint64_t offset, std::uint64_t bytes,
                           sim::WaitGroup* wg) {
  co_await disk.access(offset, bytes, /*write=*/false);
  wg->done();
}
}  // namespace

Pfs::Pfs(hw::Machine& machine, pablo::Collector& collector, PfsConfig cfg)
    : machine_(machine),
      collector_(collector),
      cfg_(cfg),
      meta_(machine.engine(), machine.config().os),
      layout_(machine.config().stripe_unit, machine.config().io_nodes),
      retry_rng_(machine.config().seed ^ 0x5EEDFA017ULL) {
  servers_.reserve(static_cast<std::size_t>(machine.config().io_nodes));
  for (int i = 0; i < machine.config().io_nodes; ++i) {
    servers_.push_back(std::make_unique<IoServer>(machine.engine(), i, machine.config().disk,
                                                  machine.config().stripe_unit,
                                                  machine.config().io_nodes, cfg_.server));
    servers_.back()->set_collector(&collector_);
    if (cfg_.retry.enabled) servers_.back()->set_replay_tracking(true);
  }
  if (cfg_.qos.enabled) {
    // Rejections and shed verdicts surface to the application through the
    // client retry loop; without it a turned-away op would have nowhere to
    // go.
    if (!cfg_.retry.enabled) {
      throw PfsError("overload protection (qos.enabled) requires retry.enabled");
    }
    qos_servers_.reserve(servers_.size());
    breakers_.reserve(servers_.size());
    for (int i = 0; i < machine.config().io_nodes; ++i) {
      qos_servers_.push_back(
          std::make_unique<qos::ServerQos>(machine.engine(), i, cfg_.qos, &collector_));
      breakers_.push_back(
          std::make_unique<qos::CircuitBreaker>(machine.engine(), i, cfg_.qos, &collector_));
      servers_[static_cast<std::size_t>(i)]->set_qos(qos_servers_.back().get());
    }
    meta_qos_ = std::make_unique<qos::ServerQos>(machine.engine(), /*server_id=*/-1, cfg_.qos,
                                                 &collector_);
    meta_.set_qos(meta_qos_.get());
  }
  if (cfg_.qos.enabled || cfg_.server.integrity.enabled()) {
    // Reconstruction/repair slots: rerouted degraded reads and integrity
    // read-repairs draw from the same per-node bound, so a latent-error storm
    // and a breaker-reroute storm cannot jointly over-commit an array.
    rebuild_slots_.reserve(servers_.size());
    for (int i = 0; i < machine.config().io_nodes; ++i) {
      rebuild_slots_.push_back(std::make_unique<sim::Semaphore>(
          machine.engine(), static_cast<std::int64_t>(cfg_.qos.service_slots), "pfs-rebuild"));
      servers_[static_cast<std::size_t>(i)]->set_rebuild_slot(rebuild_slots_.back().get());
    }
  }
  if (cfg_.server.integrity.scrubbing()) {
    for (auto& srv : servers_) {
      machine.engine().spawn(srv->scrubber());
    }
  }
}

pablo::IntegrityReport Pfs::integrity_report() const {
  pablo::IntegrityReport rep;
  rep.mode = std::string(integrity_mode_name(cfg_.server.integrity.mode));
  for (const auto& srv : servers_) {
    const IntegrityStats& s = srv->integrity_stats();
    rep.rotted_units += s.rotted_units;
    rep.rotted_bytes += s.rotted_bytes;
    rep.journal_rotted += s.journal_rotted;
    rep.phantom_write_backs += s.phantom_write_backs;
    rep.misdirected_write_backs += s.misdirected_write_backs;
    rep.verify_fails += s.verify_fails;
    rep.read_repairs += s.read_repairs;
    rep.repairs_lost += s.repairs_lost;
    rep.repairs_deferred += s.repairs_deferred;
    rep.stale_served += s.stale_served;
    rep.journal_csum_fails += s.journal_csum_fails;
    rep.scrub_sweeps += s.scrub_sweeps;
    rep.scrub_units_checked += s.scrub_units_checked;
    rep.scrub_detects += s.scrub_detects;
    rep.scrub_repairs += s.scrub_repairs;
    rep.corrupt_reads_acked += s.corrupt_reads_acked;
    rep.corrupt_bytes_acked += s.corrupt_bytes_acked;
    const UnitLedger& led = srv->ledger();
    rep.residual_corrupt_bytes += led.total_corrupt_bytes();
    rep.residual_corrupt_units += led.corrupt_unit_count();
    rep.stale_units += led.stale_unit_count();
  }
  rep.link_corrupt_detected = link_corrupt_detected_;
  rep.link_corrupt_acks = link_corrupt_acks_;
  rep.link_corrupt_bytes_acked = link_corrupt_bytes_acked_;
  return rep;
}

void Pfs::add_link_corrupt_window(int io_node, sim::Tick t0, sim::Tick t1, int every_n) {
  link_corrupt_.push_back(LinkCorrupt{io_node, t0, t1, std::max(every_n, 1), 0});
}

void Pfs::enable_integrity_tracking() {
  for (auto& srv : servers_) srv->set_integrity_tracking(true);
}

pablo::ScrubReport Pfs::scrub() const {
  pablo::ScrubReport rep;
  rep.journal_mode = std::string(journal_mode_name(cfg_.server.journal));
  for (const auto& srv : servers_) {
    srv->ledger().for_each([&](std::uint32_t file, std::uint64_t unit,
                               const UnitLedger::UnitStatus& s) {
      ++rep.units_checked;
      rep.acked_bytes += s.acked_bytes;
      rep.durable_bytes += s.durable_bytes;
      const bool covered = s.durable_bytes == s.acked_bytes;
      if (covered && s.durable_csum == s.acked_csum) return;  // fully durable
      if (srv->unit_dirty(file, unit)) {
        // The unit's latest bytes still sit dirty in a live cache: an
        // end-of-run flush would make it durable, so it is pending, not lost.
        ++rep.pending_units;
        return;
      }
      if (covered) {
        // Same coverage, different interval/op history — a stale overwrite
        // survived on the array.
        ++rep.checksum_mismatches;
        return;
      }
      if (s.durable_bytes > s.acked_bytes) {
        // Integrity tracking registers read-fetched input data as durable
        // without any matching ack, so the on-disk set can exceed the acked
        // set; nothing acknowledged is missing from such a unit.
        return;
      }
      rep.acked_bytes_lost += s.acked_bytes - s.durable_bytes;
      ++rep.lost_units;
      if (s.torn) ++rep.torn_units;
    });
    const Journal::Counters& jc = srv->journal().counters();
    rep.journal_appends += jc.appends;
    rep.journal_bytes += jc.bytes_logged;
    rep.journal_redone += jc.redone;
    rep.journal_trimmed += jc.trimmed;
    rep.journal_detected_lost += jc.detected_lost;
    rep.recoveries += jc.recoveries;
  }
  return rep;
}

FileState& Pfs::get_or_create(std::string_view path) {
  auto it = files_.find(path);
  if (it != files_.end()) return *it->second;
  const pablo::FileId id = collector_.register_file(path);
  auto state = std::make_unique<FileState>(id, std::string(path), cfg_.content);
  FileState& ref = *state;
  files_.emplace(std::string(path), std::move(state));
  return ref;
}

bool Pfs::exists(std::string_view path) const { return files_.find(path) != files_.end(); }

FileState& Pfs::lookup(std::string_view path) {
  auto it = files_.find(path);
  if (it == files_.end()) throw PfsError("no such file: " + std::string(path));
  return *it->second;
}

std::uint64_t Pfs::file_size(std::string_view path) { return lookup(path).size; }

FileState& Pfs::stage_file(std::string_view path, std::uint64_t size) {
  FileState& f = get_or_create(path);
  f.size = size;
  // A file that exists before the run occupies contiguous extents on each
  // array (it was written out sequentially at some point in the past), so
  // allocate all of its stripe units now, in order.
  const std::uint64_t units = size == 0 ? 0 : (size + layout_.unit() - 1) / layout_.unit();
  for (std::uint64_t u = 0; u < units; ++u) {
    disk_offset_of(f, u);
  }
  return f;
}

void Pfs::stage_contents(std::string_view path, std::uint64_t offset,
                         std::span<const std::byte> data) {
  FileState& f = lookup(path);
  if (!f.content) throw PfsError("stage_contents requires ContentPolicy::kStoreBytes");
  f.content->write(offset, data);
  f.size = std::max(f.size, offset + data.size());
}

sim::Tick Pfs::meta_round_trip(hw::NodeId node) const {
  (void)node;  // the server sits mid-mesh; per-node variation is sub-mic
  const auto& net = machine_.config().net;
  return 2 * net.sw_overhead + machine_.mesh().diameter() * net.per_hop;
}

std::uint64_t Pfs::disk_offset_of(const FileState& file, std::uint64_t unit_index) {
  return server(layout_.io_node_of(unit_index)).place(file.id, unit_index);
}

sim::Task<Pfs::Attempt> Pfs::segment_attempt(hw::NodeId node, FileState* file, StripeSegment seg,
                                             bool is_write, bool buffered, std::uint64_t op_id,
                                             sim::Tick deadline_left, obs::SpanContext span) {
  auto& engine = machine_.engine();
  auto& net = machine_.network();
  // Placed when the client issues the request, so each array's layout
  // follows request order even when requests arrive out of order.
  disk_offset_of(*file, seg.unit_index);
  const UnitKey key{file->id, seg.unit_index};
  constexpr std::uint64_t kHeader = 64;  // request/ack control message size

  // In robust mode the messages go through the fault-aware path (they can be
  // delayed or dropped); otherwise the original analytic delay is used, so a
  // fault-free run keeps the exact event stream of the pre-fault model.
  const std::uint64_t req_bytes = is_write ? seg.length + kHeader : kHeader;
  {
    obs::SpanScope req_span(span, obs::StageKind::kNetReq, node, seg.io_node, req_bytes);
    if (robust()) {
      if (!co_await net.send_to_io(node, seg.io_node, req_bytes)) co_return Attempt{};
    } else {
      co_await engine.delay(net.message_time_to_io(node, seg.io_node, req_bytes));
    }
  }

  const OpCtx ctx{node, op_id, deadline_left, span};
  qos::Admission adm;
  if (is_write) {
    adm = co_await server(seg.io_node).write(key, seg.offset_in_unit, seg.length, buffered, ctx);
  } else {
    // How many further units of this file live on the same I/O node —
    // bounds server-side prefetch so it never runs past the file.
    const std::uint64_t unit = layout_.unit();
    const std::uint64_t file_units = file->size == 0 ? 0 : (file->size + unit - 1) / unit;
    int cap = 0;
    if (file_units > seg.unit_index + 1) {
      cap = static_cast<int>((file_units - 1 - seg.unit_index) /
                             static_cast<std::uint64_t>(layout_.io_nodes()));
    }
    adm = co_await server(seg.io_node)
              .read(key, seg.offset_in_unit, seg.length, buffered, cap, ctx);
  }

  if (adm.verdict != qos::Verdict::kAdmitted) {
    // Turned away at the server's front door: a small nack carries the
    // verdict and the retry-after credit back.  A dropped nack collapses to
    // silence — the client times out as if the server never answered.
    obs::SpanScope nack_span(span, obs::StageKind::kNetResp, node, seg.io_node, kHeader);
    if (!co_await net.send_to_io(node, seg.io_node, kHeader)) co_return Attempt{};
    co_return Attempt{false, true, adm.retry_after};
  }

  const std::uint64_t rsp_bytes = is_write ? kHeader : seg.length + kHeader;
  {
    obs::SpanScope rsp_span(span, obs::StageKind::kNetResp, node, seg.io_node, rsp_bytes);
    if (robust()) {
      if (!co_await net.send_to_io(node, seg.io_node, rsp_bytes)) co_return Attempt{};
    } else {
      co_await engine.delay(net.message_time_to_io(node, seg.io_node, rsp_bytes));
    }
  }

  // Link corruption: the payload arrived, but its bytes were damaged on the
  // wire.  The end-to-end transfer checksum (integrity on) catches it and
  // the attempt reports `corrupt` so the client re-drives immediately; with
  // integrity off the damaged payload is delivered as if nothing happened.
  if (!is_write && !link_corrupt_.empty()) {
    const sim::Tick now = engine.now();
    for (auto& w : link_corrupt_) {
      if (w.io_node != seg.io_node || now < w.t0 || now >= w.t1) continue;
      ++w.seen;
      if (w.seen % static_cast<std::uint64_t>(w.every_n) == 0) {
        if (cfg_.server.integrity.enabled()) {
          ++link_corrupt_detected_;
          collector_.record(pablo::IntegrityEvent{now, pablo::IntegrityKind::kLinkCorrupt,
                                                  seg.io_node, file->id, seg.unit_index,
                                                  seg.length});
          co_return Attempt{false, false, 0, true};
        }
        ++link_corrupt_acks_;
        link_corrupt_bytes_acked_ += seg.length;
        collector_.record(pablo::IntegrityEvent{now, pablo::IntegrityKind::kCorruptAck,
                                                seg.io_node, file->id, seg.unit_index,
                                                seg.length});
      }
      break;
    }
  }
  co_return Attempt{true, false, 0};
}

sim::Tick Pfs::backoff_for(int attempt) {
  const RetryPolicy& rp = cfg_.retry;
  // Iterative growth instead of pow(): bit-stable across libm versions.
  sim::Tick b = rp.backoff_base;
  for (int i = 0; i < attempt && b < rp.backoff_cap; ++i) {
    b = std::min<sim::Tick>(
        rp.backoff_cap,
        static_cast<sim::Tick>(std::llround(static_cast<double>(b) * rp.backoff_factor)));
  }
  return retry_rng_.jitter(b, rp.backoff_jitter);
}

sim::Task<void> Pfs::reconstruct_segment(hw::NodeId node, FileState* file, StripeSegment seg,
                                         obs::SpanContext span) {
  // RAID-3 degraded read: the sick I/O node's share is recomputed from the
  // surviving nodes' data + parity.  Model: a control fanout to the
  // survivors, a parallel raw-array read of each survivor's share (the
  // recovery path reads shares below the server CPU queues — it must make
  // progress precisely when those queues are the problem), a binomial gather
  // of the shares to the client, and a client-side XOR pass.
  auto& engine = machine_.engine();
  auto& net = machine_.network();
  const int n = server_count();
  SIO_ASSERT(n >= 2);
  const std::uint64_t unit_off = disk_offset_of(*file, seg.unit_index);
  constexpr std::uint64_t kHeader = 64;
  const auto survivors = static_cast<std::uint64_t>(n - 1);
  const std::uint64_t share = (seg.length + survivors - 1) / survivors;

  co_await engine.delay(net.broadcast_time(n - 1, kHeader));
  {
    obs::SpanScope disk_span(span, obs::StageKind::kDisk, node, seg.io_node, share * survivors);
    sim::WaitGroup reads(engine);
    for (int i = 0; i < n; ++i) {
      if (i == seg.io_node) continue;
      reads.add();
      engine.spawn(read_share(server(i).disk(), unit_off + seg.offset_in_unit, share, &reads));
    }
    co_await reads.wait();
  }
  co_await engine.delay(net.io_gather_time(node, n - 1, share + kHeader));
  co_await engine.delay(static_cast<sim::Tick>(static_cast<double>(seg.length) /
                                               cfg_.qos.xor_bytes_per_tick));
}

sim::Task<void> Pfs::transfer_segment(hw::NodeId node, FileState* file, StripeSegment seg,
                                      bool is_write, bool buffered, sim::WaitGroup* wg,
                                      obs::SpanContext parent) {
  if (!robust()) {
    // Direct await: symmetric transfer, no extra engine events, so the
    // attempt split leaves fault-free timing untouched.
    obs::SpanScope seg_span(parent, obs::StageKind::kSegment, node, seg.io_node, seg.length);
    co_await segment_attempt(node, file, seg, is_write, buffered, /*op_id=*/0,
                             /*deadline_left=*/0, seg_span.ctx());
    seg_span.close();
    if (wg != nullptr) wg->done();
    co_return;
  }

  auto& engine = machine_.engine();
  const RetryPolicy& rp = cfg_.retry;
  const std::uint64_t op_id = next_op_id_++;
  obs::SpanScope seg_span(parent, obs::StageKind::kSegment, node, seg.io_node, seg.length);
  seg_span.set_op_id(op_id);
  qos::CircuitBreaker* br =
      cfg_.qos.enabled ? breakers_[static_cast<std::size_t>(seg.io_node)].get() : nullptr;
  // Satellite fix: cumulative backoff across the whole retry sequence is
  // capped at one op deadline, so the backoff schedule can never push an
  // op's completion further out than a full extra deadline of waiting.
  sim::Tick backoff_spent = 0;
  const auto backoff = [&](sim::Tick want) {
    const sim::Tick budget = rp.op_deadline > backoff_spent ? rp.op_deadline - backoff_spent : 0;
    const sim::Tick b = std::min(want, budget);
    backoff_spent += b;
    return b;
  };
  // Every failed attempt ends in one of these: give up on the last attempt,
  // else count a retry.  `what` names the failure in the error text.
  const auto fail_if_last = [&](int attempt, const char* what) {
    if (attempt < rp.max_retries) return;
    ++failed_ops_;
    collector_.record(
        pablo::FaultEvent{engine.now(), op_id, pablo::FaultKind::kOpFailed, node, seg.io_node, 0});
    throw PfsError(std::string("segment transfer ") + what + " after retries (io node " +
                   std::to_string(seg.io_node) + ")");
  };
  const auto retry = [&](int attempt, const char* what) {
    fail_if_last(attempt, what);
    ++retries_;
    collector_.record(pablo::FaultEvent{engine.now(), op_id, pablo::FaultKind::kOpRetry, node,
                                        seg.io_node, static_cast<std::uint64_t>(attempt + 1)});
  };
  for (int attempt = 0;; ++attempt) {
    if (br != nullptr && !br->allow_attempt(node)) {
      // The node's breaker is open: don't feed the sick node more attempts.
      if (!is_write && server_count() >= 2) {
        // Reads don't need it — serve from the surviving shares + parity.
        ++reroutes_;
        collector_.record(
            pablo::QosEvent{engine.now(), op_id, pablo::QosKind::kReroute, node, seg.io_node, 0});
        obs::SpanScope rr_span(seg_span.ctx(), obs::StageKind::kReroute, node, seg.io_node,
                               seg.length);
        auto& slot = *rebuild_slots_[static_cast<std::size_t>(seg.io_node)];
        co_await slot.acquire();
        co_await reconstruct_segment(node, file, seg, rr_span.ctx());
        slot.release();
        break;
      }
      // Writes (and single-node layouts) must land on that node; hold them
      // back until the breaker is willing to probe again.
      ++breaker_holds_;
      collector_.record(
          pablo::QosEvent{engine.now(), op_id, pablo::QosKind::kBreakerHold, node, seg.io_node, 0});
      fail_if_last(attempt, "failed");
      {
        obs::SpanScope hold_span(seg_span.ctx(), obs::StageKind::kBackoff, node, seg.io_node);
        co_await engine.delay(std::max<sim::Tick>(br->wait_hint(), 1));
      }
      continue;
    }

    const sim::Tick t0 = engine.now();
    // The deadline the server sheds against is the op's total remaining
    // patience — deadline × attempts left — not one attempt's budget: an
    // attempt abandoned by timeout keeps working server-side and the retry
    // coalesces onto it, so serving is wasted only if the queue cannot get
    // to the op before the whole retry sequence gives up.
    const sim::Tick patience =
        static_cast<sim::Tick>(rp.max_retries - attempt + 1) * rp.op_deadline;
    // One attempt = one sibling span under the segment: retries and
    // abandoned attempts stay visible side by side in the tree.
    obs::SpanScope att_span(seg_span.ctx(), obs::StageKind::kAttempt, node, seg.io_node,
                            seg.length, static_cast<std::uint64_t>(attempt + 1));
    auto res = co_await sim::with_timeout(
        engine,
        segment_attempt(node, file, seg, is_write, buffered, op_id, patience, att_span.ctx()),
        rp.op_deadline, "pfs-op");
    if (res.status == sim::WaitStatus::kCompleted && res.value && res.value->ok) {
      att_span.close();
      if (br != nullptr) br->on_success(node);
      break;
    }
    if (res.status == sim::WaitStatus::kCompleted && res.value && res.value->corrupt) {
      // The payload arrived but failed the transfer checksum.  The node is
      // alive (it answered), so the breaker sees a success; the client
      // re-drives immediately — no deadline wait, no backoff — because the
      // failure was detected the instant the payload landed.
      att_span.close();
      if (br != nullptr) br->on_success(node);
      retry(attempt, "corrupt");
      continue;
    }
    if (res.status == sim::WaitStatus::kCompleted && res.value && res.value->turned_away) {
      // Explicit backpressure, not a failure: the server answered, so the
      // breaker is not fed, and the backoff honors the server's retry-after
      // credit (satellite fix) instead of blindly re-arriving early.
      att_span.close();
      ++backpressure_rejects_;
      retry(attempt, "rejected");
      // The credit is honored in full — it names the tick a slot is actually
      // expected to free, so arriving earlier only buys another rejection.
      // The cumulative cap applies to the client's own exponential schedule.
      const sim::Tick b = std::max(backoff(backoff_for(attempt)), res.value->retry_after);
      if (b > 0) {
        obs::SpanScope back_span(seg_span.ctx(), obs::StageKind::kBackoff, node, seg.io_node);
        co_await engine.delay(b);
      }
      continue;
    }
    if (res.status == sim::WaitStatus::kCompleted) {
      // The request or reply was dropped in flight.  The client can't see
      // that — it learns only from silence — so it waits out the remainder
      // of the deadline before acting, exactly like a genuine timeout.
      const sim::Tick elapsed = engine.now() - t0;
      if (elapsed < rp.op_deadline) co_await engine.delay(rp.op_deadline - elapsed);
      att_span.close();
    } else {
      // Timed out: the attempt keeps running *detached* (with_timeout
      // abandons, it does not destroy).  Force-close its whole subtree now,
      // at the tick the client gave up, so abandoned work is visible in the
      // tree instead of lost; the detached frame's own later closes no-op.
      att_span.abandon();
    }
    ++timeouts_;
    // Early timeouts are ambiguous (congestion resolves them via the
    // retry/replay coalescing within an attempt or two); only a persistent
    // per-op timeout streak is evidence the node is unreachable.
    if (br != nullptr && attempt >= cfg_.qos.breaker_attempt_threshold) br->on_failure(node);
    collector_.record(pablo::FaultEvent{engine.now(), op_id, pablo::FaultKind::kOpTimeout, node,
                                        seg.io_node, static_cast<std::uint64_t>(attempt)});
    retry(attempt, "failed");
    const sim::Tick b = backoff(backoff_for(attempt));
    if (b > 0) {
      obs::SpanScope back_span(seg_span.ctx(), obs::StageKind::kBackoff, node, seg.io_node);
      co_await engine.delay(b);
    }
  }
  seg_span.close();
  if (wg != nullptr) wg->done();
}

sim::Task<void> Pfs::transfer(hw::NodeId node, FileState& file, std::uint64_t offset,
                              std::uint64_t bytes, bool is_write, bool buffered,
                              obs::SpanContext span) {
  if (bytes == 0) co_return;
  ++data_ops_;
  if (is_write) {
    bytes_written_ += bytes;
  } else {
    bytes_read_ += bytes;
  }

  auto segs = layout_.map(offset, bytes);
  if (segs.size() == 1) {
    co_await transfer_segment(node, &file, segs.front(), is_write, buffered, nullptr, span);
    co_return;
  }
  // Striped parallelism: all segments proceed concurrently; segments that
  // land on the same I/O node serialize in its CPU/disk queues.
  sim::WaitGroup wg(machine_.engine());
  for (const auto& seg : segs) {
    wg.add();
    machine_.engine().spawn(transfer_segment(node, &file, seg, is_write, buffered, &wg, span));
  }
  co_await wg.wait();
}

sim::Task<void> Pfs::fetch_unit(hw::NodeId node, FileState& file, std::uint64_t unit_index,
                                obs::SpanContext span) {
  StripeSegment seg;
  seg.io_node = layout_.io_node_of(unit_index);
  seg.unit_index = unit_index;
  seg.offset_in_unit = 0;
  seg.length = layout_.unit();
  seg.file_offset = unit_index * layout_.unit();
  bytes_read_ += seg.length;
  ++data_ops_;
  co_await transfer_segment(node, &file, seg, /*is_write=*/false, /*buffered=*/true, nullptr,
                            span);
}

sim::Task<void> Pfs::flush_servers() {
  for (auto& srv : servers_) {
    co_await srv->flush_all();
  }
}

sim::Task<FileHandle> Pfs::open(hw::NodeId node, std::string_view path, OpenOptions opts) {
  FileState& f = get_or_create(path);
  if (opts.mode != f.mode && opts.mode != IoMode::kUnix) {
    throw PfsError("open() does not set the access mode; use gopen() or set_iomode()");
  }

  pablo::OpTimer timer(collector_, node, f.id, pablo::IoOp::kOpen);
  obs::SpanScope op_span(collector_.span_origin(), obs::StageKind::kOp, node, -1, 0,
                         static_cast<std::uint64_t>(pablo::IoOp::kOpen));
  {
    // One delay covering syscall + round trip, exactly as before tracing:
    // never split an existing delay (extra engine events would perturb
    // same-tick ordering of fault-free golden runs).
    obs::SpanScope meta_span(op_span.ctx(), obs::StageKind::kMeta, node);
    co_await machine_.engine().delay(os().syscall_overhead + meta_round_trip(node));
    co_await meta_.open_op(f.id, node);
  }
  if (opts.truncate && f.open_count == 0) f.truncate();
  ++f.open_count;

  FileHandle h;
  h.fs_ = this;
  h.file_ = &f;
  h.node_ = node;
  h.open_ = true;
  h.buffering_ = opts.buffering;
  timer.finish();
  co_return h;
}

sim::Task<FileHandle> Pfs::gopen(hw::NodeId node, std::string_view path, Group& group,
                                 OpenOptions opts) {
  if (opts.mode == IoMode::kAsync && !os().has_masync) {
    throw PfsError("M_ASYNC is not available under " + os().name);
  }
  if (opts.mode == IoMode::kRecord && opts.record_size == 0) {
    throw PfsError("M_RECORD requires a record size");
  }

  FileState& f = get_or_create(path);
  const int rank = group.rank_of(node);

  pablo::OpTimer timer(collector_, node, f.id, pablo::IoOp::kGopen);
  obs::SpanScope op_span(collector_.span_origin(), obs::StageKind::kOp, node, -1, 0,
                         static_cast<std::uint64_t>(pablo::IoOp::kGopen));
  co_await machine_.engine().delay(os().syscall_overhead);
  {
    obs::SpanScope sync_span(op_span.ctx(), obs::StageKind::kSync, node);
    co_await group.arrive();  // all members enter the collective
  }
  if (rank == 0) {
    obs::SpanScope meta_span(op_span.ctx(), obs::StageKind::kMeta, node);
    co_await machine_.engine().delay(meta_round_trip(node));
    co_await meta_.gopen_op(f.id, node);
    if (opts.truncate && f.open_count == 0) f.truncate();
    f.mode = opts.mode;
    if (opts.record_size != 0) f.record_size = opts.record_size;
  }
  {
    obs::SpanScope sync_span(op_span.ctx(), obs::StageKind::kSync, node);
    co_await group.arrive();  // leader's metadata op is done
  }
  co_await machine_.engine().delay(
      os().gopen_client + machine_.network().broadcast_arrival(rank, group.size(), 128));
  ++f.open_count;

  FileHandle h;
  h.fs_ = this;
  h.file_ = &f;
  h.node_ = node;
  h.group_ = &group;
  h.rank_ = rank;
  h.open_ = true;
  h.buffering_ = opts.buffering;
  timer.finish();
  co_return h;
}

}  // namespace sio::pfs
