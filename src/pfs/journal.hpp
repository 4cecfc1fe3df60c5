// Per-I/O-node write-ahead journal.
//
// Modeled as a sequential-log region on the node's RAID array: appends are
// charged by the *server* (setup + bytes at the sequential-log rate) before
// the client's ack is released, which is exactly the write-ahead ordering —
// nothing is acknowledged until its journal record is down.  The log state
// itself survives crashes (that is the point of a journal); only the volatile
// write-back cache is lost.
//
// Records aggregate per stripe unit: repeated acks into the same dirty unit
// extend one open record instead of growing the redo list, mirroring how the
// cache coalesces them into one write-back.  A completed write-back trims the
// unit's record ("applied"); recovery redoes whatever is still open, in log
// order, idempotently (the redo rewrites the whole unit the cache would have
// written).
//
//   kOff   class unused (enabled() == false everywhere).
//   kMeta  intent-only records: recovery *detects* acknowledged-but-lost
//          units (scrub attribution) but cannot repair them.
//   kFull  payload logged: recovery rewrites each unapplied unit.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pfs/types.hpp"
#include "pfs/unit_table.hpp"

namespace sio::pfs {

class Journal {
 public:
  /// Fixed size of an intent record (file, unit, disk offset, op id).
  static constexpr std::uint64_t kIntentBytes = 64;

  /// A unit's open record lives in its UnitTable slot; the journal owns no
  /// container of its own.
  using Record = JournalRecord;

  struct Counters {
    std::uint64_t appends = 0;        ///< acks that hit the log
    std::uint64_t bytes_logged = 0;   ///< bytes forced to the log region
    std::uint64_t trimmed = 0;        ///< records retired by a write-back
    std::uint64_t redone = 0;         ///< records redone during recovery
    std::uint64_t detected_lost = 0;  ///< meta-mode: lost units detected only
    std::uint64_t recoveries = 0;     ///< completed recovery passes
  };

  Journal(UnitTable& units, JournalMode mode) : units_(units), mode_(mode) {}

  JournalMode mode() const { return mode_; }
  bool enabled() const { return mode_ != JournalMode::kOff; }

  /// Folds an acknowledged buffered write into the unit's open record and
  /// returns the bytes that must be forced to the log before the ack (the
  /// caller charges the service time).  Returns 0 when the journal is off.
  std::uint64_t append(std::uint32_t file, std::uint64_t unit, std::uint64_t len);

  /// The unit's write-back reached the array: retire its open record.
  void mark_applied(std::uint32_t file, std::uint64_t unit);

  /// Open (unapplied) records in log order — the recovery redo list.
  std::vector<Record> unapplied() const;

  bool has_unapplied() const { return open_ != 0; }

  void note_redone(std::uint32_t file, std::uint64_t unit);
  void note_detected_lost(std::uint32_t file, std::uint64_t unit);
  void note_recovery_done() { ++counters_.recoveries; }

  /// Bit-rot hit the log region: marks up to `max_records` open full-mode
  /// records (chosen by a seeded draw over the LSN-ordered list) as having a
  /// corrupt payload.  Returns the number of records newly marked.  Recovery
  /// consults `payload_corrupt`: with integrity on, the payload checksum
  /// catches it and the redo is skipped as a *detected* loss; with integrity
  /// off, the redo faithfully writes the wrong bytes back to the array.
  int corrupt_open_payloads(std::uint64_t seed, int max_records);

  const Counters& counters() const { return counters_; }

 private:
  /// Retires the unit's open record, if it has one; returns whether it did.
  bool retire(std::uint32_t file, std::uint64_t unit);

  UnitTable& units_;
  JournalMode mode_;
  std::size_t open_ = 0;  ///< open records
  std::uint64_t next_lsn_ = 1;
  Counters counters_;
};

}  // namespace sio::pfs
