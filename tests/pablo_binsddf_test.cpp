// Tests for the compact binary-SDDF encoding: round trips across all record
// kinds, the sink/flush path, predictor edge cases, malformed-input
// rejection, the size advantage over text, and byte-identity of the
// binary -> text conversion against the direct text path.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "pablo/binsddf.hpp"
#include "pablo/collector.hpp"
#include "pablo/sddf.hpp"
#include "pablo/varint.hpp"
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

TEST(BinSddf, SniffsMagic) {
  EXPECT_TRUE(is_binary_sddf(to_binary_sddf({}, {})));
  EXPECT_FALSE(is_binary_sddf("#SDDF-IO 1\n"));
  EXPECT_FALSE(is_binary_sddf(""));
  EXPECT_FALSE(is_binary_sddf("SDDFB"));  // truncated magic
}

TEST(BinSddf, EmptyTraceRoundTrips) {
  const auto tf = from_binary_sddf(to_binary_sddf({}, {}));
  EXPECT_TRUE(tf.file_names.empty());
  EXPECT_TRUE(tf.events.empty());
  EXPECT_TRUE(tf.faults.empty());
  EXPECT_TRUE(tf.qos.empty());
  EXPECT_TRUE(tf.losses.empty());
}

TEST(BinSddf, RoundTripsEventsInStoredOrder) {
  const std::vector<std::string> names = {"escat/input0", "escat/quad1"};
  // Deliberately unsorted: the decoder must preserve stored order.
  const std::vector<TraceEvent> events = {
      ev(sim::seconds(2), sim::microseconds(40), 0, 1, IoOp::kWrite, 0, 155584),
      ev(sim::seconds(1), sim::milliseconds(3), 5, 0, IoOp::kRead, 1234, 2048),
      ev(0, 1, 7, 1, IoOp::kGopen, 0, 0),
      ev(5, 1, 2, kNoFile, IoOp::kSeek, 0, 0),
  };
  const auto tf = from_binary_sddf(to_binary_sddf(names, events));
  EXPECT_EQ(tf.file_names, names);
  EXPECT_EQ(tf.events, events);
}

TEST(BinSddf, RoundTripsAllRecordKindsInterleaved) {
  BinarySddfWriter w;
  w.add_file("ckpt/frame0");
  w.add_event(ev(10, 2, 0, 0, IoOp::kWrite, 0, 4096));
  FaultEvent f;
  f.at = sim::milliseconds(5);
  f.kind = FaultKind::kServerCrash;
  f.node = -1;
  f.target = 3;
  f.info = 2;
  w.add(f);
  QosEvent q;
  q.at = sim::milliseconds(6);
  q.kind = QosKind::kReject;
  q.node = 4;
  q.target = 1;
  q.info = 777;
  w.add(q);
  LossEvent l;
  l.at = sim::milliseconds(7);
  l.target = 3;
  l.file = 0;
  l.offset = 128 * 1024;
  l.bytes = 65536;
  l.torn = 1;
  w.add(l);
  w.add_event(ev(20, 2, 1, 0, IoOp::kRead, 4096, 4096));
  LossEvent l2 = l;
  l2.file = kNoFile;  // losses without a file attribution survive too
  l2.torn = 0;
  w.add(l2);

  const auto tf = from_binary_sddf(w.finish());
  ASSERT_EQ(tf.events.size(), 2u);
  ASSERT_EQ(tf.faults.size(), 1u);
  ASSERT_EQ(tf.qos.size(), 1u);
  ASSERT_EQ(tf.losses.size(), 2u);
  EXPECT_EQ(tf.faults[0], f);
  EXPECT_EQ(tf.qos[0], q);
  EXPECT_EQ(tf.losses[0], l);
  EXPECT_EQ(tf.losses[1], l2);
}

TEST(BinSddf, PredictorHandlesRegressionsAndExtremes) {
  // Starts go backwards, offsets jump to the top of the u64 range, nodes
  // move in both directions: every delta path must take the signed route.
  const std::uint64_t big = std::numeric_limits<std::uint64_t>::max() - 7;
  const std::vector<TraceEvent> events = {
      ev(1'000'000, 5, 63, 0, IoOp::kRead, big, 17),
      ev(999'000, 4, 0, 0, IoOp::kRead, 0, big),
      ev(999'500, 4, 31, kNoFile, IoOp::kSeek, big, 0),
      ev(999'500, 4, 31, 0, IoOp::kWrite, 3, 3),
  };
  const auto tf = from_binary_sddf(to_binary_sddf({"a"}, events));
  EXPECT_EQ(tf.events, events);
}

TEST(BinSddf, SequentialTraceBeatsTextByFivefold) {
  // A PRISM-like sequential mix across nodes: the per-(node, op) offset
  // predictor and the frame compressor must hold the acceptance floor.
  std::vector<TraceEvent> events;
  std::vector<std::uint64_t> off(8, 0);
  sim::Tick now = 0;
  for (int i = 0; i < 4096; ++i) {
    const int node = i % 8;
    events.push_back(ev(now, 40'000, node, 0, IoOp::kRead, off[node], 4096));
    off[node] += 4096;
    now += 1'000;
  }
  std::ostringstream text;
  write_sddf(text, {"prism/grid"}, events);
  const std::string bin = to_binary_sddf({"prism/grid"}, events);
  EXPECT_GE(static_cast<double>(text.str().size()) / static_cast<double>(bin.size()), 5.0);
  EXPECT_EQ(from_binary_sddf(bin).events, events);
}

TEST(BinSddf, IdenticalInputsEncodeIdenticalBytes) {
  const std::vector<TraceEvent> events = {
      ev(1, 2, 3, 0, IoOp::kRead, 0, 512),
      ev(2, 2, 4, 0, IoOp::kWrite, 512, 512),
  };
  EXPECT_EQ(to_binary_sddf({"f"}, events), to_binary_sddf({"f"}, events));
}

TEST(BinSddf, SinkDrainsAtThresholdAndMatchesBufferedEncode) {
  std::string sunk;
  int chunks = 0;
  constexpr std::size_t kThreshold = 512;
  BinarySddfWriter w(
      [&](std::string_view chunk) {
        sunk.append(chunk);
        ++chunks;
      },
      kThreshold);
  w.add_file("f");
  std::vector<TraceEvent> events;
  for (int i = 0; i < 2000; ++i) {
    // Uncompressible-ish varying fields so frames actually fill.
    events.push_back(ev(i * 977, 13 + (i % 7) * 131, i % 5, 0, IoOp::kRead,
                        static_cast<std::uint64_t>(i) * 40961, 1 + (i * 2654435761u) % 65536));
  }
  std::size_t max_buffered = 0;
  for (const auto& e : events) {
    w.add_event(e);
    max_buffered = std::max(max_buffered, w.buffered_bytes());
  }
  EXPECT_EQ(w.finish(), "");  // sinked writers return nothing from finish()
  EXPECT_GT(chunks, 1);
  // Live capture never holds more than about one open frame + one closed
  // frame before the drain kicks in.
  EXPECT_LE(max_buffered, 2 * kThreshold + 256);
  EXPECT_EQ(from_binary_sddf(sunk).events, events);
}

TEST(BinSddf, ConverterTextIsByteIdenticalToDirectText) {
  sim::Engine engine;
  Collector col(engine);
  const FileId fa = col.register_file("escat/input0");
  const FileId fb = col.register_file("escat/quad1");
  // Recorded out of order: both paths sort with the same canonical comparator.
  col.record(ev(sim::seconds(2), 7, 1, fb, IoOp::kWrite, 64, 1024));
  col.record(ev(sim::seconds(1), 3, 5, fa, IoOp::kRead, 0, 2048));
  col.record(ev(sim::seconds(1), 3, 5, fa, IoOp::kSeek, 2048, 0));
  col.record(ev(0, 1, 7, fb, IoOp::kGopen, 0, 0));

  TraceFile tf = from_binary_sddf(to_binary_sddf(col));
  sort_trace_events(tf.events);
  std::ostringstream out;
  write_sddf(out, tf.file_names, tf.events, tf.faults, tf.qos, tf.losses);
  EXPECT_EQ(out.str(), col.sddf_text());
}

TEST(BinSddf, RoundTripsIntegrityRecords) {
  sim::Engine engine;
  Collector col(engine);
  const FileId f = col.register_file("ckpt/frame0");
  col.record(ev(1, 1, 0, f, IoOp::kWrite, 0, 4096));
  std::vector<IntegrityEvent> recorded;
  for (int i = 0; i < 6; ++i) {
    IntegrityEvent g;
    g.at = sim::milliseconds(100 * (i + 1));
    g.kind = static_cast<IntegrityKind>(i % kIntegrityKindCount);
    g.target = i % 3;
    g.file = (i % 2 == 0) ? f : kNoFile;  // exercises the file delta across "-"
    g.unit = static_cast<std::uint64_t>(i) * 37;
    g.bytes = static_cast<std::uint64_t>(i) * 1000 + 1;
    col.record(g);
    recorded.push_back(g);
  }

  const auto tf = from_binary_sddf(to_binary_sddf(col));
  ASSERT_EQ(tf.integrity.size(), recorded.size());
  for (std::size_t i = 0; i < recorded.size(); ++i) {
    EXPECT_EQ(tf.integrity[i].at, recorded[i].at) << i;
    EXPECT_EQ(tf.integrity[i].kind, recorded[i].kind) << i;
    EXPECT_EQ(tf.integrity[i].target, recorded[i].target) << i;
    EXPECT_EQ(tf.integrity[i].file, recorded[i].file) << i;
    EXPECT_EQ(tf.integrity[i].unit, recorded[i].unit) << i;
    EXPECT_EQ(tf.integrity[i].bytes, recorded[i].bytes) << i;
  }
  // The binary and text dialects agree on the integrity stream.
  const auto text = from_sddf_string(to_sddf_string(col));
  ASSERT_EQ(text.integrity.size(), recorded.size());
}

TEST(BinSddf, RejectsBadMagic) {
  std::string bad = to_binary_sddf({"f"}, {ev(1, 1, 0, 0, IoOp::kRead, 0, 1)});
  bad[0] = 'X';
  EXPECT_THROW(from_binary_sddf(bad), std::runtime_error);
  EXPECT_THROW(from_binary_sddf(""), std::runtime_error);
}

TEST(BinSddf, RejectsTruncation) {
  const std::string good = to_binary_sddf({"f"}, {ev(1, 1, 0, 0, IoOp::kRead, 0, 1),
                                                  ev(2, 1, 1, 0, IoOp::kWrite, 0, 9)});
  for (const std::size_t cut : {std::size_t{1}, std::size_t{4}, good.size() - 6}) {
    EXPECT_THROW(from_binary_sddf(good.substr(0, good.size() - cut)), std::runtime_error)
        << "cut " << cut;
  }
  // Magic alone is a truncated trace: the end marker is mandatory.
  EXPECT_THROW(from_binary_sddf(std::string(kBinarySddfMagic)), std::runtime_error);
}

TEST(BinSddf, RejectsUnknownTag) {
  // Hand-built container: magic + one stored frame (raw_len=1, enc_len=0)
  // holding the reserved tag 0x07 (0x00-0x06 are all assigned).
  std::string data(kBinarySddfMagic);
  data += '\x01';
  data += '\x00';
  data += '\x07';
  EXPECT_THROW(from_binary_sddf(data), std::runtime_error);
}

TEST(BinSddf, RejectsCompressedFramesThatOverstateTheirLength) {
  // A frame's declared raw length and its run lengths are untrusted: each
  // container below must fail with the documented std::runtime_error, never
  // by trying to allocate what the header or a run claims.
  const auto frame = [](std::uint64_t raw_len, const std::string& enc) {
    std::string c(kBinarySddfMagic);
    varint::put(c, raw_len);
    varint::put(c, enc.size());
    return c + enc;
  };
  // A: a 2-byte frame claiming a terabyte of output.
  EXPECT_THROW(from_binary_sddf(frame(std::uint64_t{1} << 40, std::string(2, '\0'))),
               std::runtime_error);
  // B: one literal, then a distance-1 match extended by 2^34 bytes into a
  // 16-byte frame.
  std::string run("\x1f" "A" "\x01");
  varint::put(run, std::uint64_t{1} << 34);
  EXPECT_THROW(from_binary_sddf(frame(16, run)), std::runtime_error);
  // A literal-count extension that wraps the 64-bit sum.
  std::string wrap("\xf0");
  varint::put(wrap, ~std::uint64_t{0});
  EXPECT_THROW(from_binary_sddf(frame(16, wrap)), std::runtime_error);
  // A stored or compressed frame whose length wraps the container offset.
  std::string stored(kBinarySddfMagic);
  varint::put(stored, ~std::uint64_t{0});
  varint::put(stored, 0);
  EXPECT_THROW(from_binary_sddf(stored), std::runtime_error);
  std::string compressed(kBinarySddfMagic);
  varint::put(compressed, 16);
  varint::put(compressed, ~std::uint64_t{0});
  EXPECT_THROW(from_binary_sddf(compressed), std::runtime_error);
}

TEST(BinSddf, RejectsFileRecordLengthThatWrapsTheOffset) {
  // A stored frame holding one #file record whose length is 2^64 - 11: the
  // sum with the read offset wraps to zero, so an unchecked decoder would
  // step back and re-read the same record forever.
  std::string records("\x01");
  varint::put(records, ~std::uint64_t{0} - 10);
  records += std::string("ab\0", 3);
  std::string c(kBinarySddfMagic);
  varint::put(c, records.size());
  varint::put(c, 0);
  c += records;
  ASSERT_EQ(c.size(), 22u);
  EXPECT_THROW(from_binary_sddf(c), std::runtime_error);
}

TEST(BinSddf, RejectsDeltasThatOverflowTheirField) {
  // Signed deltas wrap mod 2^64, as the writer codes them, so start deltas
  // that sum past INT64_MAX land back in int64.  A delta whose sum overflows
  // the field it decodes into is still rejected: a file id that leaves the
  // file table, and a span whose start (end - duration) leaves int64.
  const auto container = [](std::string records) {
    records += '\0';
    std::string c(kBinarySddfMagic);
    varint::put(c, records.size());
    varint::put(c, 0);
    return c + records;
  };
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  std::string starts;
  for (const std::int64_t d : {kMax, std::int64_t{1}}) {
    starts += static_cast<char>(0x80);  // event, op 0, no presence flags
    varint::put_signed(starts, d);      // start
    varint::put_signed(starts, 0);      // node
  }
  EXPECT_EQ(from_binary_sddf(container(starts)).events.at(1).start, kMin);

  std::string file;
  file += static_cast<char>(0x80 | 0x02);  // event, op 0, file present
  varint::put_signed(file, 0);             // start
  varint::put_signed(file, 0);             // node
  varint::put_signed(file, kMin);          // file: -1 + INT64_MIN wraps to INT64_MAX
  EXPECT_THROW(from_binary_sddf(container(file)), std::runtime_error);

  const auto span = [](std::int64_t end, std::int64_t duration) {
    std::string r(1, '\x06');
    varint::put_signed(r, end);
    varint::put_signed(r, duration);
    varint::put_signed(r, 0);  // op id
    varint::put_signed(r, 1);  // span id
    varint::put(r, 0);         // root
    r += '\0';                 // stage
    for (int i = 0; i < 3; ++i) varint::put_signed(r, 0);  // node, target, bytes
    varint::put(r, 0);                                     // flags
    varint::put_signed(r, 0);                              // info
    return r;
  };
  EXPECT_EQ(from_binary_sddf(container(span(kMin, 0))).spans.at(0).start, kMin);
  EXPECT_THROW(from_binary_sddf(container(span(kMin, 1))), std::runtime_error);
}

TEST(BinSddf, RoundTripsInt64ExtremeDeltas) {
  // Faults at INT64_MIN then INT64_MAX, and events and spans whose times jump
  // the same way: each delta overflows int64, so the writer must code it
  // wrapped.  The batch and the live writer both decode to the trace.
  constexpr sim::Tick kMin = std::numeric_limits<sim::Tick>::min();
  constexpr sim::Tick kMax = std::numeric_limits<sim::Tick>::max();
  TraceFile t;
  t.file_names = {"a"};
  for (const sim::Tick at : {kMin, kMax, kMin, sim::Tick{0}}) {
    t.faults.push_back({at, 1, FaultKind{}, 0, -1, 0});
    t.events.push_back(ev(at, at == kMin ? kMax : kMin, 0, 0, IoOp::kRead, 0, 64));
    SpanEvent s;
    s.start = at;
    s.span = static_cast<std::uint32_t>(t.spans.size() + 1);
    t.spans.push_back(s);
  }
  const auto expect_trace = [&](const std::string& bytes) {
    const TraceFile back = from_binary_sddf(bytes);
    EXPECT_EQ(back.file_names, t.file_names);
    EXPECT_EQ(back.events, t.events);
    EXPECT_EQ(back.faults, t.faults);
    EXPECT_EQ(back.spans, t.spans);
  };
  expect_trace(to_binary_sddf(t.file_names, t.events, t.faults, {}, {}, {}, t.spans));

  BinarySddfWriter w;
  w.add_file("a");
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    w.add(t.faults[i]);
    w.add_event(t.events[i]);
    w.add_span(t.spans[i]);
  }
  expect_trace(w.finish());
}

TEST(BinSddf, RejectsMalformedOccurrenceRecords) {
  // Each row is one record stream, with the end marker or (to cut a record
  // at its kind byte) without; every occurrence kind names itself in its
  // truncation and unknown-kind messages.
  const auto what = [](const std::string& records, bool end_marker) {
    std::string c(kBinarySddfMagic);
    varint::put(c, records.size() + (end_marker ? 1 : 0));
    varint::put(c, 0);
    c += records;
    if (end_marker) c += '\0';
    try {
      from_binary_sddf(c);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("(accepted)");
  };
  const std::string fault("\x02\x00\x00", 3);  // tag, d(at), d(op_id)
  const std::string qos("\x03\x00\x00", 3);
  const std::string integrity("\x05\x00", 2);  // tag, d(at)
  EXPECT_EQ(what(fault, false), "binary SDDF: truncated fault record");
  EXPECT_EQ(what(fault + static_cast<char>(kFaultKindCount), true),
            "binary SDDF: unknown fault kind");
  EXPECT_EQ(what(qos, false), "binary SDDF: truncated qos record");
  EXPECT_EQ(what(qos + static_cast<char>(kQosKindCount), true), "binary SDDF: unknown qos kind");
  EXPECT_EQ(what(integrity, false), "binary SDDF: truncated integrity record");
  EXPECT_EQ(what(integrity + static_cast<char>(kIntegrityKindCount), true),
            "binary SDDF: unknown integrity kind");
  // A loss whose file delta (zigzag 4 = +2 from -1) lands on id 1 with an
  // empty file table.
  EXPECT_EQ(what(std::string("\x04\x00\x00\x00\x04", 5), true),
            "binary SDDF: record references unknown file id");
}

TEST(BinSddf, RejectsFileNamesTheTextDialectCannotCarry) {
  // The text dialect reads a file name as one whitespace-delimited token, so
  // these would decode from binary but convert to a different or unreadable
  // text trace.
  for (const std::string& name : {std::string("a b"), std::string("tab\there"), std::string(),
                                 std::string("x\ny"), std::string("bell\x07"),
                                 std::string("del\x7f")}) {
    EXPECT_THROW(from_binary_sddf(to_binary_sddf({name}, {})), std::runtime_error)
        << "'" << name << "'";
  }
  // Printable names, including UTF-8 bytes, still round-trip.
  const std::vector<std::string> names{"dir/file-1.dat", "caf\xc3\xa9", "#file"};
  EXPECT_EQ(from_binary_sddf(to_binary_sddf(names, {})).file_names, names);
}

TEST(BinSddf, RejectsEventReferencingUnknownFile) {
  // File id 0 is referenced but no file-table entry precedes it.
  const std::string bin = to_binary_sddf({}, {ev(1, 1, 0, 0, IoOp::kRead, 0, 1)});
  EXPECT_THROW(from_binary_sddf(bin), std::runtime_error);
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Occurrence records that walk every field's coding through its edges:
/// every kind value, kNoFile and in-table files, node/target -1, INT64
/// extremes for `at` (in an order whose deltas fit in int64, so these bytes
/// predate wrapped signed deltas), UINT64_MAX for the
/// wraparound fields, deltas that go backwards, and torn 0/1.
TraceFile occurrence_extremes() {
  constexpr sim::Tick kMinTick = std::numeric_limits<sim::Tick>::min();
  constexpr sim::Tick kMaxTick = std::numeric_limits<sim::Tick>::max();
  constexpr std::uint64_t kAll = std::numeric_limits<std::uint64_t>::max();
  const std::vector<sim::Tick> ats = {kMaxTick, -1, kMinTick, -1, 7, 3};
  const std::vector<std::uint64_t> u64s = {kAll, 0, 42, kAll - 1, 7};
  const std::vector<std::int32_t> ids = {-1, 0, 63, -1, 5, 2};
  const auto at = [&](int i) { return ats[static_cast<std::size_t>(i) % ats.size()]; };
  const auto u64 = [&](int i) { return u64s[static_cast<std::size_t>(i) % u64s.size()]; };
  const auto id = [&](int i) { return ids[static_cast<std::size_t>(i) % ids.size()]; };
  const auto file = [](int i) { return i % 3 == 0 ? kNoFile : static_cast<FileId>(i % 2); };
  TraceFile t;
  t.file_names = {"ckpt/frame0", "ckpt/frame1"};
  for (int i = 0; i < kFaultKindCount; ++i) {
    t.faults.push_back({at(i), u64(i), static_cast<FaultKind>(i), id(i), id(i + 1), u64(i + 2)});
  }
  for (int i = 0; i < kQosKindCount; ++i) {
    t.qos.push_back({at(i + 1), u64(i + 1), static_cast<QosKind>(i), id(i + 2), id(i), u64(i + 3)});
  }
  for (int i = 0; i < 6; ++i) {
    t.losses.push_back({at(i + 2), u64(i), id(i), file(i), u64(i + 1), u64(i + 4),
                        static_cast<std::uint64_t>(i % 2)});
  }
  for (int i = 0; i < kIntegrityKindCount; ++i) {
    t.integrity.push_back({at(i + 3), static_cast<IntegrityKind>(i), id(i + 3), file(i + 1),
                           u64(i + 2), u64(i)});
  }
  return t;
}

TEST(BinSddf, EncoderPinsEveryOccurrenceKind) {
  // Nothing else pins the occurrence codecs' bytes (the paper runs carry no
  // occurrences), so a swapped field or predictor would round-trip unseen.
  const TraceFile t = occurrence_extremes();
  const std::string batch =
      to_binary_sddf(t.file_names, {}, t.faults, t.qos, t.losses, t.integrity);
  TraceFile back = from_binary_sddf(batch);
  EXPECT_EQ(back.faults, t.faults);
  EXPECT_EQ(back.qos, t.qos);
  EXPECT_EQ(back.losses, t.losses);
  EXPECT_EQ(back.integrity, t.integrity);
  EXPECT_EQ(fnv1a(batch), 0x665dddbc8169e133ULL);

  // The live order interleaves the kinds round-robin with I/O events.
  BinarySddfWriter w;
  for (const auto& name : t.file_names) w.add_file(name);
  for (std::size_t i = 0; i < t.faults.size(); ++i) {
    w.add(t.faults[i]);
    if (i < t.qos.size()) w.add(t.qos[i]);
    if (i < t.losses.size()) w.add(t.losses[i]);
    if (i < t.integrity.size()) w.add(t.integrity[i]);
    w.add_event(ev(static_cast<sim::Tick>(i), 1, 0, 0, IoOp::kRead, i * 64, 64));
  }
  const std::string live = w.finish();
  back = from_binary_sddf(live);
  EXPECT_EQ(back.faults, t.faults);
  EXPECT_EQ(back.qos, t.qos);
  EXPECT_EQ(back.losses, t.losses);
  EXPECT_EQ(back.integrity, t.integrity);
  EXPECT_EQ(fnv1a(live), 0xcb70c0b4f55c5efcULL);
}

TEST(BinSddf, WriterAccountsBytesAndCounts) {
  BinarySddfWriter w;
  w.add_file("f");
  for (int i = 0; i < 100; ++i) w.add_event(ev(i, 1, 0, 0, IoOp::kRead, i * 512, 512));
  EXPECT_EQ(w.files_written(), 1u);
  EXPECT_EQ(w.events_written(), 100u);
  EXPECT_GT(w.bytes_encoded(), 0u);
  EXPECT_FALSE(w.finished());
  const std::string out = w.finish();
  EXPECT_TRUE(w.finished());
  EXPECT_EQ(out.size(), w.container_bytes());
}

}  // namespace
}  // namespace sio::pablo
