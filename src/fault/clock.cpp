#include "fault/clock.hpp"

namespace sio::fault {

void FaultClock::record(pablo::FaultKind kind, int target, std::uint64_t info) {
  pablo::FaultEvent ev;
  ev.at = machine_.engine().now();
  ev.kind = kind;
  ev.target = target;
  ev.info = info;
  collector_.record(ev);
}

void FaultClock::arm() {
  plan_.validate(machine_.config().io_nodes);
  auto& engine = machine_.engine();

  // Link faults: the drop stream is seeded from the plan, windows are
  // registered up front, and the edges get trace records.
  if (!plan_.link_faults.empty()) {
    machine_.network().seed_faults(plan_.seed ^ 0x11AC5EEDull);
    for (const auto& f : plan_.link_faults) {
      machine_.network().add_io_link_fault(
          {f.io_node, f.t0, f.t1, f.down, f.extra_delay, f.drop_p});
      const auto open_kind = f.down ? pablo::FaultKind::kLinkDown : pablo::FaultKind::kLinkSlow;
      engine.schedule_at(f.t0, [this, f, open_kind] {
        record(open_kind, f.io_node, static_cast<std::uint64_t>(f.t1 - f.t0));
      });
      engine.schedule_at(f.t1, [this, f] { record(pablo::FaultKind::kLinkUp, f.io_node); });
    }
  }

  for (const auto& f : plan_.disk_failures) {
    engine.schedule_at(f.at, [this, f] {
      record(pablo::FaultKind::kDiskDegraded, f.io_node, f.rebuild_bytes);
      fs_.server(f.io_node).disk().fail_spindle(f.rebuild_bytes, [this, f] {
        record(pablo::FaultKind::kDiskRebuilt, f.io_node, f.rebuild_bytes);
      });
    });
  }

  for (const auto& f : plan_.disk_slow) {
    // Passive window, registered now; the record marks its opening edge.
    fs_.server(f.io_node).disk().add_slow_window(f.t0, f.t1, f.multiplier);
    engine.schedule_at(f.t0, [this, f] {
      record(pablo::FaultKind::kDiskSlow, f.io_node, static_cast<std::uint64_t>(f.t1 - f.t0));
    });
  }

  for (const auto& f : plan_.disk_stuck) {
    fs_.server(f.io_node).disk().inject_stuck(f.at, f.extra);
    engine.schedule_at(f.at, [this, f] {
      record(pablo::FaultKind::kDiskStuck, f.io_node, static_cast<std::uint64_t>(f.extra));
    });
  }

  for (const auto& f : plan_.server_crashes) {
    engine.schedule_at(f.at, [this, f] {
      record(pablo::FaultKind::kServerCrash, f.io_node,
             static_cast<std::uint64_t>(f.restart_at - f.at));
      fs_.server(f.io_node).crash(f.torn);
    });
    engine.schedule_at(f.restart_at, [this, f] {
      fs_.server(f.io_node).restart();
      record(pablo::FaultKind::kServerRestart, f.io_node);
    });
  }

  // Corruption plans need the omniscient bookkeeping even when the run's
  // verification mode is off — that is the silent-corruption arm's whole
  // point: only the ledger knows.
  if (!plan_.bit_rot.empty() || !plan_.write_back_corrupt.empty() ||
      !plan_.link_corrupt.empty() || plan_.integrity.enabled()) {
    fs_.enable_integrity_tracking();
  }

  for (const auto& f : plan_.bit_rot) {
    engine.schedule_at(f.at, [this, f] {
      record(pablo::FaultKind::kBitRot, f.io_node, static_cast<std::uint64_t>(f.units));
      fs_.server(f.io_node).inject_bit_rot(f.seed ^ plan_.seed, f.units, f.journal);
    });
  }

  for (const auto& f : plan_.write_back_corrupt) {
    // Passive window, registered now; the record marks its opening edge.
    fs_.server(f.io_node).add_write_back_corrupt_window(f.t0, f.t1, f.phantom);
    engine.schedule_at(f.t0, [this, f] {
      record(pablo::FaultKind::kWriteBackCorrupt, f.io_node,
             static_cast<std::uint64_t>(f.t1 - f.t0));
    });
  }

  for (const auto& f : plan_.link_corrupt) {
    fs_.add_link_corrupt_window(f.io_node, f.t0, f.t1, f.every_n);
    engine.schedule_at(f.t0, [this, f] {
      record(pablo::FaultKind::kLinkCorrupt, f.io_node,
             static_cast<std::uint64_t>(f.t1 - f.t0));
    });
  }

  for (const auto& f : plan_.server_degraded) {
    engine.schedule_at(f.t0, [this, f] {
      record(pablo::FaultKind::kServerDegraded, f.io_node,
             static_cast<std::uint64_t>(f.t1 - f.t0));
      fs_.server(f.io_node).set_degraded(true);
    });
    engine.schedule_at(f.t1, [this, f] {
      fs_.server(f.io_node).set_degraded(false);
      record(pablo::FaultKind::kServerRecovered, f.io_node);
    });
  }
}

}  // namespace sio::fault
