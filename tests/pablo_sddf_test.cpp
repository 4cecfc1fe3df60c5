// Tests for the SDDF-style trace serialization: round trips, the file-name
// table, and malformed-input rejection.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "pablo/binsddf.hpp"
#include "pablo/collector.hpp"
#include "pablo/sddf.hpp"
#include "sim/engine.hpp"

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
  col.record_loss(dropped);
  LossEvent torn = dropped;
  torn.file = kNoFile;  // serialized as "-" and parsed back to kNoFile
  torn.offset = 0;
  torn.bytes = 32768;
  torn.torn = 1;
  col.record_loss(torn);

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
  col.record_integrity(rot);
  IntegrityEvent sweep;  // scrubber heartbeat: no file attached
  sweep.at = sim::seconds(3);
  sweep.kind = IntegrityKind::kScrubSweep;
  sweep.target = 5;
  sweep.file = kNoFile;
  sweep.unit = 0;
  sweep.bytes = 48;
  col.record_integrity(sweep);

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
    EXPECT_EQ(parse_integrity_kind(std::string(integrity_kind_name(k))), k);
  }
  EXPECT_THROW(parse_integrity_kind("cosmic-ray"), std::runtime_error);
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
  const std::string text =
      "#SDDF-IO 1\n#fields start_ns duration_ns node file op offset bytes\n"
      "#loss 5 0 4 0 1024 0\n";
  EXPECT_THROW(from_sddf_string(text), std::runtime_error);
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
    EXPECT_EQ(parse_io_op(std::string(io_op_name(op))), op);
  }
  EXPECT_THROW(parse_io_op("fsync"), std::runtime_error);
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

}  // namespace
}  // namespace sio::pablo
