// Tests for the SDDF-style trace serialization: round trips, the file-name
// table, malformed-input rejection, and the writer's exact text.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "pablo/binsddf.hpp"
#include "pablo/collector.hpp"
#include "pablo/record_schema.hpp"
#include "pablo/sddf.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"

namespace sio::pablo {
namespace {

TraceEvent ev(sim::Tick start, sim::Tick dur, int node, FileId file, IoOp op,
              std::uint64_t off, std::uint64_t bytes) {
  TraceEvent e;
  e.start = start;
  e.duration = dur;
  e.node = node;
  e.file = file;
  e.op = op;
  e.offset = off;
  e.bytes = bytes;
  return e;
}

TEST(Sddf, RoundTripsEventsAndFileTable) {
  sim::Engine engine;
  Collector col(engine);
  const FileId fa = col.register_file("escat/input0");
  const FileId fb = col.register_file("escat/quad1");
  col.record(ev(sim::seconds(1), sim::milliseconds(3), 5, fa, IoOp::kRead, 1234, 2048));
  col.record(ev(sim::seconds(2), sim::microseconds(40), 0, fb, IoOp::kWrite, 0, 155584));
  col.record(ev(0, 1, 7, fb, IoOp::kGopen, 0, 0));

  const auto tf = from_sddf_string(to_sddf_string(col));
  ASSERT_EQ(tf.file_names.size(), 2u);
  EXPECT_EQ(tf.file_names[0], "escat/input0");
  EXPECT_EQ(tf.file_names[1], "escat/quad1");
  ASSERT_EQ(tf.events.size(), 3u);

  // Events come back sorted by start (the collector sorts before export).
  EXPECT_EQ(tf.events[0].op, IoOp::kGopen);
  EXPECT_EQ(tf.events[1].op, IoOp::kRead);
  EXPECT_EQ(tf.events[1].start, sim::seconds(1));
  EXPECT_EQ(tf.events[1].duration, sim::milliseconds(3));
  EXPECT_EQ(tf.events[1].node, 5);
  EXPECT_EQ(tf.events[1].offset, 1234u);
  EXPECT_EQ(tf.events[1].bytes, 2048u);
  EXPECT_EQ(tf.events[2].bytes, 155584u);
}

TEST(Sddf, RoundTripsLossRecords) {
  sim::Engine engine;
  Collector col(engine);
  const FileId f = col.register_file("ckpt/frame0");
  col.record(ev(1, 1, 0, f, IoOp::kWrite, 0, 4096));
  LossEvent dropped;
  dropped.at = sim::milliseconds(8170);
  dropped.target = 3;
  dropped.file = f;
  dropped.offset = 128 * 1024;
  dropped.bytes = 65536;
  dropped.torn = 0;
  col.record(dropped);
  LossEvent torn = dropped;
  torn.file = kNoFile;  // serialized as "-" and parsed back to kNoFile
  torn.offset = 0;
  torn.bytes = 32768;
  torn.torn = 1;
  col.record(torn);

  const auto tf = from_sddf_string(to_sddf_string(col));
  ASSERT_EQ(tf.losses.size(), 2u);
  EXPECT_EQ(tf.losses[0].at, sim::milliseconds(8170));
  EXPECT_EQ(tf.losses[0].target, 3);
  EXPECT_EQ(tf.losses[0].file, f);
  EXPECT_EQ(tf.losses[0].offset, 128u * 1024);
  EXPECT_EQ(tf.losses[0].bytes, 65536u);
  EXPECT_EQ(tf.losses[0].torn, 0u);
  EXPECT_EQ(tf.losses[1].file, kNoFile);
  EXPECT_EQ(tf.losses[1].bytes, 32768u);
  EXPECT_EQ(tf.losses[1].torn, 1u);
}

TEST(Sddf, RoundTripsIntegrityRecords) {
  sim::Engine engine;
  Collector col(engine);
  const FileId f = col.register_file("ckpt/frame0");
  col.record(ev(1, 1, 0, f, IoOp::kWrite, 0, 4096));
  IntegrityEvent rot;
  rot.at = sim::seconds(2);
  rot.kind = IntegrityKind::kBitRot;
  rot.target = 5;
  rot.file = f;
  rot.unit = 17;
  rot.bytes = 32768;
  col.record(rot);
  IntegrityEvent sweep;  // scrubber heartbeat: no file attached
  sweep.at = sim::seconds(3);
  sweep.kind = IntegrityKind::kScrubSweep;
  sweep.target = 5;
  sweep.file = kNoFile;
  sweep.unit = 0;
  sweep.bytes = 48;
  col.record(sweep);

  const auto tf = from_sddf_string(to_sddf_string(col));
  ASSERT_EQ(tf.integrity.size(), 2u);
  EXPECT_EQ(tf.integrity[0].at, sim::seconds(2));
  EXPECT_EQ(tf.integrity[0].kind, IntegrityKind::kBitRot);
  EXPECT_EQ(tf.integrity[0].target, 5);
  EXPECT_EQ(tf.integrity[0].file, f);
  EXPECT_EQ(tf.integrity[0].unit, 17u);
  EXPECT_EQ(tf.integrity[0].bytes, 32768u);
  EXPECT_EQ(tf.integrity[1].kind, IntegrityKind::kScrubSweep);
  EXPECT_EQ(tf.integrity[1].file, kNoFile);
}

TEST(Sddf, ParseIntegrityKindCoversAllNames) {
  for (int i = 0; i < kIntegrityKindCount; ++i) {
    const auto k = static_cast<IntegrityKind>(i);
    EXPECT_EQ(parse_name<IntegrityKind>(std::string(integrity_kind_name(k))), k);
  }
  EXPECT_THROW(parse_name<IntegrityKind>("cosmic-ray"), std::runtime_error);
}

TEST(Sddf, RejectsTruncatedIntegrityRecord) {
  const std::string text =
      "#SDDF-IO 1\n#fields start_ns duration_ns node file op offset bytes\n"
      "#integrity 5 bit-rot 0 -\n";
  EXPECT_THROW(from_sddf_string(text), std::runtime_error);
}

TEST(Sddf, RejectsIntegrityWithUnknownFileReference) {
  const std::string text =
      "#SDDF-IO 1\n#fields start_ns duration_ns node file op offset bytes\n"
      "#integrity 5 bit-rot 0 4 0 1024\n";
  EXPECT_THROW(from_sddf_string(text), std::runtime_error);
}

TEST(Sddf, RejectsTruncatedLossRecord) {
  const std::string text =
      "#SDDF-IO 1\n#fields start_ns duration_ns node file op offset bytes\n"
      "#loss 5 0 - 0\n";
  EXPECT_THROW(from_sddf_string(text), std::runtime_error);
}

TEST(Sddf, RejectsLossWithUnknownFileReference) {
  // Every field present (op_id 4, file 0), so the line reaches the file-id
  // check rather than failing as truncated.
  const std::string text =
      "#SDDF-IO 1\n#fields start_ns duration_ns node file op offset bytes\n"
      "#loss 5 0 4 0 0 1024 0\n";
  try {
    from_sddf_string(text);
    FAIL() << "accepted a #loss line naming a file id past the table";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "SDDF: #loss references unknown file id '0'");
  }
}

TEST(Sddf, RejectsMalformedOccurrenceLines) {
  // One file in the table.  Each occurrence kind rejects a missing field,
  // an unknown kind name and a file id past the table or not a number, each
  // with its own exact message.
  const std::string head =
      "#SDDF-IO 1\n#fields start_ns duration_ns node file op offset bytes\n#file 0 a\n";
  struct Row {
    std::string line;
    std::string what;
  };
  const std::vector<Row> rows = {
      {"#fault 5 0 op-retry 1 2", "SDDF: bad #fault line: #fault 5 0 op-retry 1 2"},
      {"#fault 5 0 cosmic 1 2 3", "SDDF: unknown fault kind 'cosmic'"},
      {"#qos 5 0 admit 1", "SDDF: bad #qos line: #qos 5 0 admit 1"},
      {"#qos 5 0 bounce 1 2 3", "SDDF: unknown qos kind 'bounce'"},
      {"#loss 5 0 - 0", "SDDF: bad #loss line: #loss 5 0 - 0"},
      {"#loss 5 0 4 1 0 1024 0", "SDDF: #loss references unknown file id '1'"},
      {"#loss 5 0 4 x 0 1024 0", "SDDF: #loss references unknown file id 'x'"},
      {"#integrity 5 bit-rot 0 -", "SDDF: bad #integrity line: #integrity 5 bit-rot 0 -"},
      {"#integrity 5 cosmic-ray 0 - 0 1", "SDDF: unknown integrity kind 'cosmic-ray'"},
      {"#integrity 5 bit-rot 0 4 0 1024", "SDDF: #integrity references unknown file id '4'"},
      {"#integrity 5 bit-rot 0 x 0 1024", "SDDF: #integrity references unknown file id 'x'"},
  };
  for (const Row& row : rows) {
    std::string what = "(accepted)";
    try {
      from_sddf_string(head + row.line + "\n");
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    EXPECT_EQ(what, row.what) << row.line;
  }
}

TEST(Sddf, HandlesEventsWithoutFile) {
  std::vector<TraceEvent> events{ev(5, 1, 2, kNoFile, IoOp::kSeek, 0, 0)};
  std::ostringstream out;
  write_sddf(out, {}, events);
  const auto tf = from_sddf_string(out.str());
  ASSERT_EQ(tf.events.size(), 1u);
  EXPECT_EQ(tf.events[0].file, kNoFile);
}

TEST(Sddf, EmptyTraceRoundTrips) {
  sim::Engine engine;
  Collector col(engine);
  const auto tf = from_sddf_string(to_sddf_string(col));
  EXPECT_TRUE(tf.events.empty());
  EXPECT_TRUE(tf.file_names.empty());
}

TEST(Sddf, ParseIoOpCoversAllNames) {
  for (int i = 0; i < kIoOpCount; ++i) {
    const auto op = static_cast<IoOp>(i);
    EXPECT_EQ(parse_name<IoOp>(std::string(io_op_name(op))), op);
  }
  EXPECT_THROW(parse_name<IoOp>("fsync"), std::runtime_error);
}

TEST(Sddf, RejectsBadMagic) {
  EXPECT_THROW(from_sddf_string("not a trace\n"), std::runtime_error);
}

TEST(Sddf, RejectsTruncatedRecord) {
  const std::string text =
      "#SDDF-IO 1\n#fields start_ns duration_ns node file op offset bytes\n1 2 3\n";
  EXPECT_THROW(from_sddf_string(text), std::runtime_error);
}

TEST(Sddf, RejectsUnknownFileReference) {
  const std::string text =
      "#SDDF-IO 1\n#fields start_ns duration_ns node file op offset bytes\n"
      "1 2 3 9 read 0 0\n";
  EXPECT_THROW(from_sddf_string(text), std::runtime_error);
}

TEST(Sddf, RejectsMalformedFileIdFields) {
  // One file in the table; each bad id must fail as the documented
  // std::runtime_error on every record kind that carries a file field —
  // not wrap to file 0, alias kNoFile, or escape as std::invalid_argument /
  // std::out_of_range.
  const std::string head =
      "#SDDF-IO 1\n#fields start_ns duration_ns node file op offset bytes\n#file 0 a\n";
  for (const std::string id : {"4294967296", "4294967295", "abc", "1234567890123456789012345"}) {
    for (const std::string& line : {"#integrity 5 bit-rot 0 " + id + " 0 1024\n",
                                    "#loss 5 0 0 " + id + " 0 1024 0\n",
                                    "1 2 3 " + id + " read 0 0\n"}) {
      EXPECT_THROW(from_sddf_string(head + line), std::runtime_error) << line;
    }
  }
  // The same lines with a valid id still parse.
  const auto tf = from_sddf_string(head + "#integrity 5 bit-rot 0 0 0 1024\n" +
                                   "#loss 5 0 0 0 0 1024 0\n" + "1 2 3 0 read 0 0\n");
  EXPECT_EQ(tf.integrity.size(), 1u);
  EXPECT_EQ(tf.losses.size(), 1u);
  EXPECT_EQ(tf.events.size(), 1u);
}

TEST(Sddf, RejectsOutOfOrderFileTable) {
  const std::string text =
      "#SDDF-IO 1\n#fields start_ns duration_ns node file op offset bytes\n"
      "#file 1 b\n";
  EXPECT_THROW(from_sddf_string(text), std::runtime_error);
}

TEST(Sddf, RejectsFileNamesTheBinaryDialectRejects) {
  // A whitespace-delimited token can still hold control bytes and DEL.  The
  // binary decoder rejects those names, so accepting them here would let a
  // text trace convert to a binary trace that does not decode.
  const std::string head = "#SDDF-IO 1\n#fields start_ns duration_ns node file op offset bytes\n";
  for (const std::string name : {"ctl\x01", "\x02", "bell\x07", "del\x7f", "esc\x1b[0m"}) {
    EXPECT_THROW(from_sddf_string(head + "#file 0 " + name + "\n"), std::runtime_error) << name;
    EXPECT_FALSE(is_portable_file_name(name)) << name;
  }
  // Printable names, including UTF-8 bytes, still parse and convert.
  const auto tf = from_sddf_string(head + "#file 0 caf\xc3\xa9\n#file 1 dir/f-1.dat\n");
  const std::vector<std::string> names{"caf\xc3\xa9", "dir/f-1.dat"};
  EXPECT_EQ(tf.file_names, names);
  EXPECT_EQ(from_binary_sddf(to_binary_sddf(tf.file_names, {})).file_names, names);
}


TEST(Sddf, WriterPinsEveryRecordKindAtExtremes) {
  // The readers tolerate formatting drift that a round trip cannot see, so
  // this pins the writer's exact text: one record of each kind with every
  // field at its extreme, then one record per remaining enum name.
  constexpr sim::Tick kMinTick = std::numeric_limits<sim::Tick>::min();
  constexpr sim::Tick kMaxTick = std::numeric_limits<sim::Tick>::max();
  constexpr std::uint64_t kAll = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint32_t kMaxSpan = std::numeric_limits<std::uint32_t>::max();
  TraceFile t;
  t.file_names = {"escat/input0", "prism/grid"};
  t.faults.push_back({kMinTick, kAll, FaultKind::kDiskDegraded, -1, -1, kAll});
  for (int k = 1; k < kFaultKindCount; ++k) {
    t.faults.push_back({k, static_cast<std::uint64_t>(k), static_cast<FaultKind>(k), k, -1, 0});
  }
  t.qos.push_back({kMaxTick, kAll, QosKind::kAdmit, -1, -1, kAll});
  for (int k = 1; k < kQosKindCount; ++k) {
    t.qos.push_back({k, static_cast<std::uint64_t>(k), static_cast<QosKind>(k), -1, k, 0});
  }
  t.losses.push_back({kMinTick, kAll, -1, kNoFile, kAll, kAll, kAll});
  t.losses.push_back({kMaxTick, 0, std::numeric_limits<std::int32_t>::max(), 1, 0, 0, 1});
  t.integrity.push_back({kMinTick, IntegrityKind::kBitRot, -1, kNoFile, kAll, kAll});
  for (int k = 1; k < kIntegrityKindCount; ++k) {
    t.integrity.push_back(
        {k, static_cast<IntegrityKind>(k), k, 0, static_cast<std::uint64_t>(k), 0});
  }
  t.spans.push_back(
      {kMinTick, kMaxTick, kAll, kMaxSpan, kMaxSpan - 1, obs::StageKind::kOp, -1, -1, kAll, kAll,
       kAll});
  for (int k = 1; k < obs::kStageKindCount; ++k) {
    const auto u = static_cast<std::uint32_t>(k);
    t.spans.push_back({k, k, u, u + 1, 1, static_cast<obs::StageKind>(k), k, -k, u, 0, 0});
  }
  t.events.push_back(ev(kMinTick, kMaxTick, -1, kNoFile, IoOp::kOpen, kAll, kAll));
  t.events.push_back(
      ev(kMaxTick, 0, std::numeric_limits<std::int32_t>::min(), 0, IoOp::kGopen, 0, 0));
  for (int k = 2; k < kIoOpCount; ++k) {
    const auto u = static_cast<std::uint64_t>(k);
    t.events.push_back(ev(k, k, k, 1, static_cast<IoOp>(k), u, u));
  }

  std::ostringstream out;
  write_sddf(out, t.file_names, t.events, t.faults, t.qos, t.losses, t.integrity, t.spans);
  EXPECT_EQ(out.str(),
      "#SDDF-IO 1\n"
      "#fields start_ns duration_ns node file op offset bytes\n"
      "#file 0 escat/input0\n"
      "#file 1 prism/grid\n"
      "#fault-fields at_ns op_id kind node target info\n"
      "#fault -9223372036854775808 18446744073709551615 disk-degraded -1 -1 18446744073709551615\n"
      "#fault 1 1 disk-rebuilt 1 -1 0\n"
      "#fault 2 2 disk-slow 2 -1 0\n"
      "#fault 3 3 disk-stuck 3 -1 0\n"
      "#fault 4 4 server-crash 4 -1 0\n"
      "#fault 5 5 server-restart 5 -1 0\n"
      "#fault 6 6 server-degraded 6 -1 0\n"
      "#fault 7 7 server-recovered 7 -1 0\n"
      "#fault 8 8 link-down 8 -1 0\n"
      "#fault 9 9 link-slow 9 -1 0\n"
      "#fault 10 10 link-up 10 -1 0\n"
      "#fault 11 11 op-timeout 11 -1 0\n"
      "#fault 12 12 op-retry 12 -1 0\n"
      "#fault 13 13 op-failed 13 -1 0\n"
      "#fault 14 14 journal-recovery 14 -1 0\n"
      "#fault 15 15 journal-abort 15 -1 0\n"
      "#fault 16 16 bit-rot 16 -1 0\n"
      "#fault 17 17 wb-corrupt 17 -1 0\n"
      "#fault 18 18 link-corrupt 18 -1 0\n"
      "#qos-fields at_ns op_id kind node target info\n"
      "#qos 9223372036854775807 18446744073709551615 admit -1 -1 18446744073709551615\n"
      "#qos 1 1 reject -1 1 0\n"
      "#qos 2 2 shed -1 2 0\n"
      "#qos 3 3 credit -1 3 0\n"
      "#qos 4 4 breaker-open -1 4 0\n"
      "#qos 5 5 breaker-half-open -1 5 0\n"
      "#qos 6 6 breaker-close -1 6 0\n"
      "#qos 7 7 breaker-probe -1 7 0\n"
      "#qos 8 8 breaker-hold -1 8 0\n"
      "#qos 9 9 reroute -1 9 0\n"
      "#loss-fields at_ns op_id target file offset bytes torn\n"
      "#loss -9223372036854775808 18446744073709551615 -1 - 18446744073709551615 "
      "18446744073709551615 18446744073709551615\n"
      "#loss 9223372036854775807 0 2147483647 1 0 0 1\n"
      "#integrity-fields at_ns kind target file unit bytes\n"
      "#integrity -9223372036854775808 bit-rot -1 - 18446744073709551615 18446744073709551615\n"
      "#integrity 1 journal-rot 1 0 1 0\n"
      "#integrity 2 phantom-write 2 0 2 0\n"
      "#integrity 3 misdirected-write 3 0 3 0\n"
      "#integrity 4 link-corrupt 4 0 4 0\n"
      "#integrity 5 corrupt-ack 5 0 5 0\n"
      "#integrity 6 verify-fail 6 0 6 0\n"
      "#integrity 7 read-repair 7 0 7 0\n"
      "#integrity 8 repair-lost 8 0 8 0\n"
      "#integrity 9 stale-served 9 0 9 0\n"
      "#integrity 10 journal-csum-fail 10 0 10 0\n"
      "#integrity 11 scrub-sweep 11 0 11 0\n"
      "#integrity 12 scrub-detect 12 0 12 0\n"
      "#integrity 13 scrub-repair 13 0 13 0\n"
      "#span-fields start_ns duration_ns op_id span parent stage node target bytes flags info\n"
      "#span -9223372036854775808 9223372036854775807 18446744073709551615 4294967295 "
      "4294967294 op -1 -1 18446744073709551615 18446744073709551615 18446744073709551615\n"
      "#span 1 1 1 2 1 meta 1 -1 1 0 0\n"
      "#span 2 2 2 3 1 sync 2 -2 2 0 0\n"
      "#span 3 3 3 4 1 cache 3 -3 3 0 0\n"
      "#span 4 4 4 5 1 segment 4 -4 4 0 0\n"
      "#span 5 5 5 6 1 attempt 5 -5 5 0 0\n"
      "#span 6 6 6 7 1 net-req 6 -6 6 0 0\n"
      "#span 7 7 7 8 1 admit 7 -7 7 0 0\n"
      "#span 8 8 8 9 1 service 8 -8 8 0 0\n"
      "#span 9 9 9 10 1 disk 9 -9 9 0 0\n"
      "#span 10 10 10 11 1 journal 10 -10 10 0 0\n"
      "#span 11 11 11 12 1 verify 11 -11 11 0 0\n"
      "#span 12 12 12 13 1 net-resp 12 -12 12 0 0\n"
      "#span 13 13 13 14 1 backoff 13 -13 13 0 0\n"
      "#span 14 14 14 15 1 reroute 14 -14 14 0 0\n"
      "-9223372036854775808 9223372036854775807 -1 - open 18446744073709551615 "
      "18446744073709551615\n"
      "9223372036854775807 0 -2147483648 0 gopen 0 0\n"
      "2 2 2 1 read 2 2\n"
      "3 3 3 1 seek 3 3\n"
      "4 4 4 1 write 4 4\n"
      "5 5 5 1 iomode 5 5\n"
      "6 6 6 1 flush 6 6\n"
      "7 7 7 1 close 7 7\n");
}

/// The formatter as it stood when every record went through operator<<, kept
/// here as the reference the chunked formatter must match byte for byte.
std::string iostream_reference(const TraceFile& t) {
  std::ostringstream out;
  out << "#SDDF-IO 1\n#fields start_ns duration_ns node file op offset bytes\n";
  for (std::size_t i = 0; i < t.file_names.size(); ++i) {
    out << "#file " << i << ' ' << t.file_names[i] << '\n';
  }
  if (!t.faults.empty()) {
    out << "#fault-fields at_ns op_id kind node target info\n";
    for (const auto& f : t.faults) {
      out << "#fault " << f.at << ' ' << f.op_id << ' ' << fault_kind_name(f.kind) << ' '
          << f.node << ' ' << f.target << ' ' << f.info << '\n';
    }
  }
  if (!t.qos.empty()) {
    out << "#qos-fields at_ns op_id kind node target info\n";
    for (const auto& q : t.qos) {
      out << "#qos " << q.at << ' ' << q.op_id << ' ' << qos_kind_name(q.kind) << ' ' << q.node
          << ' ' << q.target << ' ' << q.info << '\n';
    }
  }
  if (!t.losses.empty()) {
    out << "#loss-fields at_ns op_id target file offset bytes torn\n";
    for (const auto& l : t.losses) {
      out << "#loss " << l.at << ' ' << l.op_id << ' ' << l.target << ' ';
      if (l.file == kNoFile) {
        out << "- ";
      } else {
        out << l.file << ' ';
      }
      out << l.offset << ' ' << l.bytes << ' ' << l.torn << '\n';
    }
  }
  if (!t.integrity.empty()) {
    out << "#integrity-fields at_ns kind target file unit bytes\n";
    for (const auto& g : t.integrity) {
      out << "#integrity " << g.at << ' ' << integrity_kind_name(g.kind) << ' ' << g.target
          << ' ';
      if (g.file == kNoFile) {
        out << "- ";
      } else {
        out << g.file << ' ';
      }
      out << g.unit << ' ' << g.bytes << '\n';
    }
  }
  if (!t.spans.empty()) {
    out << "#span-fields start_ns duration_ns op_id span parent stage node target bytes flags "
           "info\n";
    for (const auto& s : t.spans) {
      out << "#span " << s.start << ' ' << s.duration << ' ' << s.op_id << ' ' << s.span << ' '
          << s.parent << ' ' << obs::stage_name(s.stage) << ' ' << s.node << ' ' << s.target
          << ' ' << s.bytes << ' ' << s.flags << ' ' << s.info << '\n';
    }
  }
  for (const auto& e : t.events) {
    out << e.start << ' ' << e.duration << ' ' << e.node << ' ';
    if (e.file == kNoFile) {
      out << "- ";
    } else {
      out << e.file << ' ';
    }
    out << io_op_name(e.op) << ' ' << e.offset << ' ' << e.bytes << '\n';
  }
  return out.str();
}

/// A field value drawn from every magnitude class: zero, small, large, the
/// type's extremes, and (for signed types) negatives.
template <class T>
T any_value(sim::Rng& rng) {
  using Limits = std::numeric_limits<T>;
  switch (rng.uniform_int(0, 5)) {
    case 0: return T{0};
    case 1: return static_cast<T>(rng.uniform_int(0, 999));
    case 2: return Limits::max();
    case 3: return Limits::min();
    case 4: return static_cast<T>(-rng.uniform_int(1, 99'999));
    default: return static_cast<T>(rng.next_u64());
  }
}

TEST(Sddf, WriterMatchesIostreamReferenceAcrossChunks) {
  sim::Rng rng(20'240'611);
  TraceFile t;
  // One name longer than the formatter's 64 KiB chunk.
  t.file_names = {"a", std::string(70'000, 'n'), "escat/quad1"};
  const auto file = [&] {
    return rng.uniform_int(0, 3) == 0 ? kNoFile
                                      : static_cast<FileId>(rng.uniform_int(0, 2));
  };
  for (int i = 0; i < 400; ++i) {
    t.faults.push_back({any_value<sim::Tick>(rng), any_value<std::uint64_t>(rng),
                        static_cast<FaultKind>(rng.uniform_int(0, kFaultKindCount - 1)),
                        any_value<std::int32_t>(rng), any_value<std::int32_t>(rng),
                        any_value<std::uint64_t>(rng)});
    t.qos.push_back({any_value<sim::Tick>(rng), any_value<std::uint64_t>(rng),
                     static_cast<QosKind>(rng.uniform_int(0, kQosKindCount - 1)),
                     any_value<std::int32_t>(rng), any_value<std::int32_t>(rng),
                     any_value<std::uint64_t>(rng)});
    t.losses.push_back({any_value<sim::Tick>(rng), any_value<std::uint64_t>(rng),
                        any_value<std::int32_t>(rng), file(), any_value<std::uint64_t>(rng),
                        any_value<std::uint64_t>(rng), any_value<std::uint64_t>(rng)});
    t.integrity.push_back({any_value<sim::Tick>(rng),
                           static_cast<IntegrityKind>(rng.uniform_int(0, kIntegrityKindCount - 1)),
                           any_value<std::int32_t>(rng), file(), any_value<std::uint64_t>(rng),
                           any_value<std::uint64_t>(rng)});
  }
  for (int i = 0; i < 2'000; ++i) {
    t.spans.push_back({any_value<sim::Tick>(rng), any_value<sim::Tick>(rng),
                       any_value<std::uint64_t>(rng), any_value<std::uint32_t>(rng),
                       any_value<std::uint32_t>(rng),
                       static_cast<obs::StageKind>(rng.uniform_int(0, obs::kStageKindCount - 1)),
                       any_value<std::int32_t>(rng), any_value<std::int32_t>(rng),
                       any_value<std::uint64_t>(rng), any_value<std::uint64_t>(rng),
                       any_value<std::uint64_t>(rng)});
  }
  for (int i = 0; i < 2'000; ++i) {
    t.events.push_back(ev(any_value<sim::Tick>(rng), any_value<sim::Tick>(rng),
                          any_value<std::int32_t>(rng), file(),
                          static_cast<IoOp>(rng.uniform_int(0, kIoOpCount - 1)),
                          any_value<std::uint64_t>(rng), any_value<std::uint64_t>(rng)));
  }

  std::ostringstream out;
  write_sddf(out, t.file_names, t.events, t.faults, t.qos, t.losses, t.integrity, t.spans);
  const std::string expected = iostream_reference(t);
  ASSERT_GT(expected.size(), 200'000u);
  EXPECT_EQ(out.str(), expected);
}

}  // namespace
}  // namespace sio::pablo
