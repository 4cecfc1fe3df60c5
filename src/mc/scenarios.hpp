// Bundled model-checking scenarios: small, closed configurations of the
// shipped protocol code, each with the invariants the explorer checks on
// every dispatched event of every interleaving.  Three drive one real
// protocol object on a bare engine (metadata token grants, the circuit
// breaker, the bounded QoS front door); the retry, wal and integrity
// configurations run the real pfs::Pfs on a real hw::Machine.
//
// Three kinds of configuration live in the registry: "proof" configs, where
// every interleaving is expected to pass (exhausting the choice tree is a
// bounded proof of the invariant); "bug" configs that flip one shipped
// switch — replay tracking, the journal, integrity — so the explorer can
// find, minimize, and byte-identically replay a counterexample; and
// "known defect" configs, shipped defaults on which the explorer finds an
// open defect of the shipped code, and must find nothing else.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mc/scenario.hpp"

namespace sio::mc {

/// Real pfs::MetadataServer driven by `clients` workers issuing grant
/// operations on one shared file; the MetaServiceProbe observes every
/// grant-held window and checks at most one holder per (file, class).
ScenarioFactory make_token_meta_scenario(int clients, int ops_per_client);

/// Real qos::CircuitBreaker fed by two interleaved outcome streams, with the
/// open interval and a tiny trip window exercised; invariant: the observed
/// state machine only takes legal transitions and its counters stay
/// consistent (closes need probes, opens are counted, window is bounded).
ScenarioFactory make_breaker_scenario(int rounds);

/// Real qos::ServerQos front door with one service slot and a depth-1 bound
/// per (class, node) queue; invariants: occupancy and waiting never exceed
/// their configured bounds and every paced client is eventually admitted.
ScenarioFactory make_qos_scenario(int nodes, int ops_per_node);

// The three configurations below run the shipped pfs::Pfs on a real hw::Machine
// (one compute node, one I/O node, a 2x2 mesh) and place faults through the
// shipped calls after choose()-drawn dispatches.  Each checks every
// invariant, on real state, after every dispatch:
//   * an op is applied at most once: at most one server `service` span per
//     op_id in the #span records, and no more journal appends than writes;
//   * an acked write is never unrecoverable: each UnitLedger unit with
//     acked-but-undurable bytes is dirty in the cache or has an open
//     Journal record (a write-back in flight counts until its array access
//     returns), and Pfs::scrub() finds no acked byte lost at the end;
//   * each journal record is redone at most once: the retirement counters
//     never grow faster than the set of open records shrinks, across
//     aborted recovery passes;
//   * no corrupt byte is acked: no #integrity corrupt-ack record;
//   * each unit is regenerated at most once per bit-rot record;
//   * no repair runs while the array rebuilds: every repair record follows
//     a detection of its unit, and the array is not degraded at any
//     dispatch from that detection to the repair;
//   * Pfs::integrity_report() shows no residual corruption at the end.

/// Where the retry configurations may place a second torn crash.
enum class SecondCrash {
  kNone,          ///< one crash only; two writes
  kInRecovery,    ///< at 1 of the first 4 dispatches of the recovery pass
  kAfterRestart,  ///< at 1 of the first 16 dispatches after the restart
};

/// Buffered writes under a 5 ms op deadline with the full journal and a
/// torn crash anywhere in the burst, so timed-out attempts are re-driven
/// across the outage.  With `replay_tracking` the server dedupes them by
/// op id; without it (IoServer::set_replay_tracking(false)) a re-driven
/// attempt is applied again — the counterexample configuration.  The two
/// second-crash placements drive one write: with two, the tree is too
/// large to enumerate.  A second crash after the restart re-applies a
/// completed op even with tracking on (completed ids do not survive a
/// crash) — an open defect.
ScenarioFactory make_retry_scenario(bool replay_tracking, SecondCrash second);

/// Three buffered writes through write-behind with dirty_limit = 1, a torn
/// crash anywhere in the burst and a second one that can land mid recovery.
/// With `journal` (JournalMode::kFull) no acked write is lost and each
/// record is redone once; with JournalMode::kOff the explorer finds the
/// crash that drops an acked dirty unit.
ScenarioFactory make_wal_scenario(bool journal);

/// Two units written, flushed and read back unbuffered while the node
/// scrubs, against a bit-rot burst and a spindle failure placed anywhere in
/// the read phase.  With `integrity` (IntegrityMode::kRepair) verify-on-read,
/// read-repair and the scrubber leave nothing corrupt acked or latent, but
/// a read-repair can still start after the spindle failed (an open defect);
/// with IntegrityMode::kOff the explorer finds the silent corrupt ack.
ScenarioFactory make_integrity_scenario(bool integrity);

struct NamedScenario {
  std::string name;
  std::string description;
  /// True when every interleaving is expected to pass (a proof config);
  /// false when exploration is expected to find a violation.
  bool expect_clean = true;
  ScenarioFactory factory;
  /// Set on a shipped-default config that exposes an open defect of the
  /// shipped code: every violation found must contain this text, so any
  /// other invariant the config breaks still fails the sweep.
  std::string known_defect = {};
  /// 0: the sweep enumerates the whole tree.  Otherwise it samples this
  /// many seeded schedules, for a tree too large to enumerate.
  std::uint64_t sample_runs = 0;
};

/// The tiny configurations tools/simmc and the mc ctest target enumerate.
const std::vector<NamedScenario>& scenario_registry();

/// Registry lookup by name; nullptr when not registered.
const NamedScenario* find_scenario(const std::string& name);

}  // namespace sio::mc
