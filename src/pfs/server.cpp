#include "pfs/server.hpp"

#include <algorithm>
#include <cmath>

#include "pablo/collector.hpp"
#include "sim/assert.hpp"

namespace sio::pfs {

sim::Tick IoServer::svc(sim::Tick t) const {
  if (!degraded_) return t;
  return static_cast<sim::Tick>(std::llround(static_cast<double>(t) * cfg_.degraded_multiplier));
}

sim::Task<void> IoServer::wait_if_crashed() {
  // Loop: a server may crash again between our wake-up and our service.
  while (crashed_) {
    co_await restart_ev_->wait();
  }
}

UnitSlot& IoServer::placed(std::uint32_t file, std::uint64_t unit) {
  UnitSlot& s = units_.slot(file, unit);
  if (s.disk_offset == UnitSlot::kUnplaced) {
    s.disk_offset = next_offset_;
    next_offset_ += stripe_unit_;
    SIO_ASSERT(next_offset_ <= disk_.config().capacity);
  }
  return s;
}

void IoServer::emit_loss(const UnitSlot& s, bool torn) {
  if (collector_ == nullptr) return;
  pablo::LossEvent ev;
  ev.at = engine_.now();
  ev.target = id_;
  ev.file = s.file;
  ev.offset = s.unit * stripe_unit_;
  ev.bytes = ledger_.acked_undurable_bytes(s.file, s.unit);
  ev.torn = torn ? 1 : 0;
  collector_->record(ev);
}

void IoServer::crash(bool torn) {
  const bool was_crashed = crashed_;
  crashed_ = true;
  ++crashes_;
  // Torn write: the crash caught an in-flight write-back and the array
  // applied only a deterministic prefix of the unit (half the stripe unit,
  // rounded down to the RAID-3 granule).  The write-back coroutine sees
  // `wb_.torn` when its access returns and skips the durability marking.
  if (torn && wb_.slot != nullptr && !wb_.torn) {
    const std::uint64_t granule = disk_.config().granule;
    const std::uint64_t half = stripe_unit_ / 2;
    const std::uint64_t prefix = granule > 0 ? half / granule * granule : half;
    ledger_.torn(wb_.slot->file, wb_.slot->unit, prefix);
    ++torn_units_;
    wb_.torn = true;
    emit_loss(*wb_.slot, /*torn=*/true);
  }
  lost_dirty_ += dirty_.size();
  // One #loss record per dropped dirty unit, in FIFO (oldest-dirty) order.
  for (const UnitSlot* d = dirty_.front(); d != nullptr; d = dirty_.next(*d)) {
    emit_loss(*d, /*torn=*/false);
  }
  // A crash while a recovery pass is redoing records aborts the pass; the
  // next restart resumes from whatever is still unapplied.
  if (was_crashed && recovering_) {
    recovering_ = false;
    if (collector_ != nullptr) {
      pablo::FaultEvent f;
      f.at = engine_.now();
      f.kind = pablo::FaultKind::kJournalAbort;
      f.target = id_;
      f.info = journal_.unapplied().size();
      collector_->record(f);
    }
  }
  for (UnitSlot* s = lru_.front(); s != nullptr; s = lru_.next(*s)) {
    s->resident = s->dirty = s->tainted = false;
  }
  lru_.clear();
  dirty_.clear();
  units_.forget_runs();
  completed_.clear();
  // The cache copies are gone: spans not yet on the array stay undurable
  // unless a full-journal redo restores them.
  ledger_.drop_residency();
  // Forget in-flight registrations: pre-crash attempts still hold their own
  // event handles and will wake their joined duplicates when they finish;
  // post-restart retries must re-execute, not join a doomed twin.
  in_flight_.clear();
  // Only a *fresh* crash re-arms the restart event.  A double fault during
  // recovery keeps the parked clients waiting on the same event — swapping
  // it here would orphan them forever (nothing would ever set the old one).
  if (!was_crashed) {
    restart_ev_ = std::make_unique<sim::Event>(engine_, "IoServer::restart");
  }
}

sim::Task<void> IoServer::begin_op(std::uint64_t op_id, bool* handled,
                                   std::shared_ptr<sim::Event>* done) {
  *handled = false;
  if (op_id == 0 || !replay_tracking_) co_return;
  bool joined = false;
  for (;;) {
    // Replay: the original attempt completed but its reply was lost in a
    // timeout/drop.  Acknowledge from the id set — for a write this avoids
    // applying it twice; for a read the produced unit is (at worst) one
    // cache probe away, so the front-end ack stands in for a hit.
    if (completed_.contains(op_id)) {
      if (!joined) ++replayed_;
      co_await engine_.delay(svc(cfg_.hit_service));
      *handled = true;
      co_return;
    }
    // Coalesce: the original attempt is still queued or on the array.
    // Joining it (instead of enqueueing a duplicate access) is what stops a
    // timed-out burst from re-feeding the very queue that made it time out.
    // After the twin wakes us we loop and re-check: a twin that *finished*
    // left the id in the completed set and we ack above, but a twin turned
    // away at QoS admission never completed — the work is still undone and
    // this attempt must register and drive it itself.
    auto it = in_flight_.find(op_id);
    if (it == in_flight_.end()) break;
    if (!joined) {
      joined = true;
      ++coalesced_;
    }
    const std::shared_ptr<sim::Event> twin = it->second;
    co_await twin->wait();
    co_await wait_if_crashed();
  }
  *done = std::make_shared<sim::Event>(engine_, "IoServer::op");
  in_flight_.emplace(op_id, *done);
}

void IoServer::finish_op(std::uint64_t op_id, const std::shared_ptr<sim::Event>& done) {
  if (done == nullptr) return;
  completed_.insert(op_id);
  // A crash may have wiped our registration — or a post-restart retry may
  // have re-registered the id.  Only erase the entry if it is still ours.
  auto it = in_flight_.find(op_id);
  if (it != in_flight_.end() && it->second == done) in_flight_.erase(it);
  done->set();
}

void IoServer::abort_op(std::uint64_t op_id, const std::shared_ptr<sim::Event>& done) {
  if (done == nullptr) return;
  // No completed_ insertion: the op was never applied, so a joined duplicate
  // waking here must re-drive it rather than treat the id as acknowledged.
  auto it = in_flight_.find(op_id);
  if (it != in_flight_.end() && it->second == done) in_flight_.erase(it);
  done->set();
}

sim::Tick IoServer::estimate(const UnitSlot& s, std::uint64_t offset_in_unit, std::uint64_t len,
                             bool buffered, bool write) const {
  if (!buffered) {
    return svc(cfg_.miss_setup) + disk_.service_time(s.disk_offset + offset_in_unit, len);
  }
  if (write) {
    return svc(cfg_.write_absorb +
               static_cast<sim::Tick>(static_cast<double>(len) / cfg_.absorb_bytes_per_tick));
  }
  if (s.resident) return svc(cfg_.hit_service);
  return svc(cfg_.miss_setup) + disk_.service_time(s.disk_offset, stripe_unit_);
}

void IoServer::note_cpu_queue() {
  peak_cpu_queue_ = std::max(peak_cpu_queue_, cpu_.queue_length() + 1);
}

void IoServer::restart() {
  SIO_ASSERT(crashed_);
  if (!journal_.enabled() || !journal_.has_unapplied()) {
    // Pre-journal path (and the journal-on path with nothing to redo):
    // byte-identical with the original cold restart.
    crashed_ = false;
    restart_ev_->set();
    return;
  }
  recovering_ = true;
  engine_.spawn(recover(crashes_));
}

sim::Task<void> IoServer::recover(std::uint64_t epoch) {
  // Serialize behind any pre-crash operation still holding the CPU; new
  // arrivals stay parked (crashed_ is still true) until recovery finishes.
  auto guard = co_await cpu_.scoped();
  if (crashes_ != epoch) co_return;  // a second crash superseded this pass
  std::uint64_t redone = 0;
  std::uint64_t detected = 0;
  for (const auto& rec : journal_.unapplied()) {
    co_await engine_.delay(svc(cfg_.journal_replay_setup));
    if (crashes_ != epoch) co_return;
    if (journal_.mode() == JournalMode::kFull) {
      if (rec.payload_corrupt && cfg_.integrity.enabled()) {
        // The logged payload's checksum does not verify: redoing it would
        // write garbage over good data.  Skip the redo as a *detected* loss
        // (the clients must re-drive; the scrub attributes the bytes).
        journal_.note_detected_lost(rec.file, rec.unit);
        ++integ_.journal_csum_fails;
        emit_integrity(pablo::IntegrityKind::kJournalCsumFail, rec.file, rec.unit, rec.bytes);
        ++detected;
        continue;
      }
      // Redo the whole unit from the logged payload.  Only a *completed*
      // redo retires the record, so an interrupted pass re-redoes it —
      // exactly once per record across however many attempts it takes.
      const bool applied = co_await write_back(units_.slot(rec.file, rec.unit));
      if (applied) {
        // The log holds the payload of every acked write folded into the
        // record, so the redo restores the unit's entire acked set — not
        // just whatever happens to be resident (the crash dropped that).
        ledger_.redone(rec.file, rec.unit);
        if (rec.payload_corrupt) {
          // Integrity off: the rotted payload was faithfully written back.
          // The unit now holds wrong-but-parity-consistent bytes — silent
          // corruption only the omniscient ledger can see.
          ledger_.mark_stale(rec.file, rec.unit);
        }
        journal_.note_redone(rec.file, rec.unit);
        ++redone;
      }
      if (crashes_ != epoch) co_return;
    } else {
      // Meta mode logged only the intent: the payload is gone.  Flag the
      // loss so the scrub can attribute it, but there is nothing to redo.
      journal_.note_detected_lost(rec.file, rec.unit);
      ++detected;
    }
  }
  journal_.note_recovery_done();
  recovering_ = false;
  if (collector_ != nullptr) {
    pablo::FaultEvent f;
    f.at = engine_.now();
    f.kind = pablo::FaultKind::kJournalRecovery;
    f.target = id_;
    f.info = journal_.mode() == JournalMode::kFull ? redone : detected;
    collector_->record(f);
  }
  crashed_ = false;
  restart_ev_->set();
}

void IoServer::insert(UnitSlot& s, bool dirty) {
  if (s.resident) lru_.erase(s);
  s.resident = true;
  lru_.push_back(s);
  if (dirty && !s.dirty) {
    s.dirty = true;
    dirty_.push_back(s);
  }
}

sim::Task<bool> IoServer::write_back(UnitSlot& s) {
  // All write-backs run under the CPU mutex and complete their array access
  // before releasing it, so the single slot can never be overwritten while
  // a transfer is in flight.
  wb_ = WriteBack{&s, false};
  co_await disk_.access(s.disk_offset, stripe_unit_, /*write=*/true);
  // Unless a torn crash clipped the transfer, the DMA completed and the
  // unit's acked contents are on the array — even if a plain crash wiped
  // the cache meanwhile.
  const bool applied = !wb_.torn;
  if (applied) {
    const WbCorruptWindow* w = wb_corrupt_active();
    if (w == nullptr) {
      ledger_.durable(s.file, s.unit);
      last_wb_ = &s;
    } else if (w->phantom || last_wb_ == nullptr || last_wb_ == &s) {
      // Phantom write-back: the server believes the DMA completed (it will
      // trim the journal record below), but the array never saw the bytes.
      // Old durable content is now wrong against the acked set — and the
      // stored checksum was updated to the *new* content, so verify-on-read
      // detects the mismatch, but parity matches the old bytes: stale.
      const std::uint64_t stale = ledger_.mark_stale(s.file, s.unit);
      ++integ_.phantom_write_backs;
      emit_integrity(pablo::IntegrityKind::kPhantomWrite, s.file, s.unit,
                     stale != 0 ? stale : ledger_.acked_undurable_bytes(s.file, s.unit));
    } else {
      // Misdirected write-back: the bytes land on the previously written
      // unit's location, clobbering it, while the target keeps its old
      // content.  Both are wrong-but-parity-consistent.
      const std::uint64_t victim = ledger_.mark_stale(last_wb_->file, last_wb_->unit);
      ledger_.mark_stale(s.file, s.unit);
      ++integ_.misdirected_write_backs;
      emit_integrity(pablo::IntegrityKind::kMisdirectedWrite, last_wb_->file, last_wb_->unit,
                     victim);
    }
  }
  wb_ = WriteBack{};
  co_return applied;
}

sim::Task<void> IoServer::evict_if_needed() {
  while (lru_.size() > cfg_.cache_units) {
    UnitSlot& victim = *lru_.front();
    if (victim.dirty) {
      // Write the victim back before dropping it.
      dirty_.erase(victim);
      victim.dirty = false;
      const bool applied = co_await write_back(victim);
      if (applied) journal_.mark_applied(victim.file, victim.unit);
      // A crash during the write-back wipes the whole cache; nothing left
      // for this pass to evict.
      if (!victim.resident) continue;
    }
    lru_.erase(victim);
    victim.resident = false;
    victim.tainted = false;
  }
}

sim::Task<void> IoServer::flush_oldest_dirty() {
  if (dirty_.size() == 0) co_return;
  UnitSlot& s = *dirty_.front();
  dirty_.erase(s);
  s.dirty = false;
  const bool applied = co_await write_back(s);
  if (applied) journal_.mark_applied(s.file, s.unit);
}

sim::Task<qos::Admission> IoServer::serve(UnitKey key, std::uint64_t offset_in_unit,
                                          std::uint64_t len, bool buffered, bool write,
                                          int prefetch_cap, OpCtx ctx) {
  UnitSlot& slot = placed(key.file, key.unit);
  // Admission stage: crash parking, replay/coalescing lookup, and the QoS
  // front door — everything between arrival and the grant of server work.
  obs::SpanScope admit_span(ctx.span, obs::StageKind::kAdmit, ctx.node, id_);
  co_await wait_if_crashed();
  bool handled = false;
  std::shared_ptr<sim::Event> done;
  co_await begin_op(ctx.op_id, &handled, &done);
  if (handled) {
    admit_span.close();
    co_return qos::Admission{};
  }

  // Bounded admission (when a QoS front door is attached).  An op turned
  // away holds no server resources: its in-flight registration is withdrawn
  // and the verdict travels back to the client with the retry-after credit.
  sim::Tick est = 0;
  sim::Tick granted_at = 0;
  if (qos_ != nullptr) {
    est = estimate(slot, offset_in_unit, len, buffered, write);
    const qos::Admission adm =
        co_await qos_->admit(ctx.node, qos::OpClass::kData, est, ctx.deadline_left, ctx.op_id);
    if (adm.verdict != qos::Verdict::kAdmitted) {
      abort_op(ctx.op_id, done);
      admit_span.close();
      co_return adm;
    }
    granted_at = adm.granted_at;
  }
  admit_span.close();
  note_cpu_queue();
  obs::SpanScope svc_span(ctx.span, obs::StageKind::kService, ctx.node, id_, len);
  {
    auto guard = co_await cpu_.scoped();

    if (!buffered) {
      ++unbuffered_;
      co_await engine_.delay(svc(cfg_.miss_setup));
      {
        // Unbuffered access bypasses the cache and pays a raw array access;
        // RAID-3 rounds the transfer up to its granule internally.
        obs::SpanScope disk_span(svc_span.ctx(), obs::StageKind::kDisk, ctx.node, id_, len);
        co_await disk_.access(slot.disk_offset + offset_in_unit, len, write);
      }
      if (!write) {
        observe_fetched(slot, offset_in_unit, len);
        if (cfg_.integrity.enabled()) {
          obs::SpanScope verify_span(svc_span.ctx(), obs::StageKind::kVerify, ctx.node, id_, len);
          co_await verify(slot, offset_in_unit, len, /*cached=*/false);
        } else {
          note_corrupt_served(slot, offset_in_unit, len);
        }
      }
    } else if (write) {
      co_await engine_.delay(svc(cfg_.write_absorb +
                                 static_cast<sim::Tick>(static_cast<double>(len) /
                                                        cfg_.absorb_bytes_per_tick)));
      // Write-ahead ordering: the journal record is forced to the log
      // region before the write is applied to the cache (and long before
      // the ack below).  With the journal off this adds neither state nor
      // time and the path is byte-identical with the pre-journal model.
      if (journal_.enabled()) {
        const std::uint64_t logged = journal_.append(key.file, key.unit, len);
        obs::SpanScope journal_span(svc_span.ctx(), obs::StageKind::kJournal, ctx.node, id_,
                                    logged);
        co_await engine_.delay(
            svc(cfg_.journal_append_setup +
                static_cast<sim::Tick>(static_cast<double>(logged) /
                                       cfg_.journal_bytes_per_tick)));
      }
      insert(slot, /*dirty=*/true);
      ledger_.ack(key.file, key.unit, offset_in_unit, len, ctx.op_id);
      // A client write refreshes the cache copy: whatever taint the entry
      // carried is superseded for serving purposes once this unit flushes,
      // and the unit joins the scrubber/injector population here.
      slot.tracked = true;
      if (dirty_.size() > cfg_.dirty_limit) {
        co_await flush_oldest_dirty();
      }
      co_await evict_if_needed();
    } else if (slot.resident) {
      ++hits_;
      insert(slot, /*dirty=*/false);
      // Hits advance the sequential detector too, so a run that alternates
      // between prefetched hits and misses keeps prefetching.
      units_.next_in_run(key.file) = key.unit + stripe_factor_;
      co_await engine_.delay(svc(cfg_.hit_service));
      // A tainted entry serves the corrupt bytes its fetch copied in: with a
      // checksum it is a *detected* stale serve, without one a silent ack.
      if (slot.tainted) {
        if (cfg_.integrity.enabled()) {
          const std::uint64_t bad = ledger_.corrupt_overlap(key.file, key.unit, 0, stripe_unit_);
          ++integ_.stale_served;
          emit_integrity(pablo::IntegrityKind::kStaleServed, key.file, key.unit, bad);
        } else {
          note_corrupt_served(slot, offset_in_unit, len);
        }
      }
    } else {
      ++misses_;
      co_await engine_.delay(svc(cfg_.miss_setup));

      // Sequential prefetch (policy extension): if this miss extends a
      // sequential run for the file, fetch extra units in the same array
      // access.  On this server, consecutive units of one file differ by the
      // stripe factor in global index but are contiguous on the local array.
      std::uint64_t& run = units_.next_in_run(key.file);
      const int extra =
          cfg_.prefetch_units > 0 && key.unit == run ? std::min(cfg_.prefetch_units, prefetch_cap)
                                                     : 0;
      run = key.unit + stripe_factor_;
      const auto fetched = [&](int i) -> UnitSlot& {
        return placed(key.file, key.unit + static_cast<std::uint64_t>(i) * stripe_factor_);
      };

      const std::uint64_t fetch_bytes = stripe_unit_ * static_cast<std::uint64_t>(1 + extra);
      {
        obs::SpanScope disk_span(svc_span.ctx(), obs::StageKind::kDisk, ctx.node, id_,
                                 fetch_bytes);
        co_await disk_.access(slot.disk_offset, fetch_bytes, /*write=*/false);
      }
      insert(slot, /*dirty=*/false);
      for (int i = 1; i <= extra; ++i) {
        insert(fetched(i), /*dirty=*/false);
        ++prefetched_;
      }
      // Every unit the fetch brought in is checksummed (or, with integrity
      // off, silently copies whatever the array held — including rot).
      for (int i = 0; i <= extra; ++i) {
        UnitSlot& f = fetched(i);
        observe_fetched(f, 0, stripe_unit_);
        if (cfg_.integrity.enabled()) {
          obs::SpanScope verify_span(svc_span.ctx(), obs::StageKind::kVerify, ctx.node, id_,
                                     stripe_unit_);
          co_await verify(f, 0, stripe_unit_, /*cached=*/true);
        } else if (f.resident && ledger_.unit_corrupt_bytes(f.file, f.unit) > 0) {
          f.tainted = true;
        }
      }
      if (!cfg_.integrity.enabled()) note_corrupt_served(slot, offset_in_unit, len);
      co_await evict_if_needed();
    }
    finish_op(ctx.op_id, done);
  }
  svc_span.close();
  if (qos_ != nullptr) qos_->release(est, granted_at);
  co_return qos::Admission{};
}

sim::Task<void> IoServer::flush_all() {
  co_await wait_if_crashed();
  auto guard = co_await cpu_.scoped();
  while (dirty_.size() != 0) {
    co_await flush_oldest_dirty();
  }
}

}  // namespace sio::pfs
