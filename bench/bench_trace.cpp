// Microbenchmarks (google-benchmark) for the trace pipeline: text vs binary
// SDDF emission, decode, and the streaming-analytics fold.  These bound the
// event rates the capture path sustains — the acceptance gate requires
// binary emission to beat text by >= 3x while producing >= 5x smaller
// output, and the streaming fold to keep up with capture.
//
// CI runs this with `--benchmark_out=BENCH_trace.json
// --benchmark_out_format=json` and gates BM_TraceEmitText,
// BM_TraceEmitTextSpans, BM_TraceEmitBinary, BM_TraceDecodeBinary,
// BM_TraceStreamingFold and BM_SpanEmit against bench/BASELINE_trace.json
// via tools/bench_gate.py.

#include <benchmark/benchmark.h>

#include <sstream>
#include <vector>

#include "obs/trace.hpp"
#include "pablo/binsddf.hpp"
#include "pablo/sddf.hpp"
#include "pablo/streaming.hpp"
#include "sim/engine.hpp"

namespace {

using namespace sio;

/// A synthetic but realistic event mix: interleaved nodes, mostly sequential
/// reads/writes with periodic seeks, a few files, deterministic sizes and
/// timings (modeled on the PRISM access pattern, the least compressible of
/// the paper traces).
std::vector<pablo::TraceEvent> make_events(std::size_t count, int nodes) {
  std::vector<pablo::TraceEvent> evs;
  evs.reserve(count);
  std::vector<std::uint64_t> node_off(static_cast<std::size_t>(nodes), 0);
  sim::Tick now = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const int node = static_cast<int>(i % static_cast<std::size_t>(nodes));
    pablo::TraceEvent ev;
    ev.start = now;
    ev.node = node;
    const std::size_t phase = i % 16;
    if (phase == 0) {
      ev.op = pablo::IoOp::kSeek;
      ev.file = 1;
      ev.offset = node_off[static_cast<std::size_t>(node)];
      ev.duration = 2'000 + (i % 7) * 350;
    } else if (phase < 12) {
      ev.op = pablo::IoOp::kRead;
      ev.file = 1;
      ev.bytes = (phase % 3 == 0) ? 65536 : 4096;
      ev.offset = node_off[static_cast<std::size_t>(node)];
      node_off[static_cast<std::size_t>(node)] += ev.bytes;
      ev.duration = 40'000 + static_cast<sim::Tick>(ev.bytes / 16) + (i % 5) * 1'700;
    } else {
      ev.op = pablo::IoOp::kWrite;
      ev.file = 2;
      ev.bytes = 8192;
      ev.offset = node_off[static_cast<std::size_t>(node)] * 2;
      ev.duration = 55'000 + (i % 11) * 900;
    }
    now += 1'000 + (i % 13) * 260;
    evs.push_back(ev);
  }
  return evs;
}

const std::vector<std::string> kFiles = {"bench/meta", "bench/data", "bench/out"};
constexpr std::size_t kEvents = 16384;
constexpr int kNodes = 64;

void BM_TraceEmitText(benchmark::State& state) {
  const auto evs = make_events(kEvents, kNodes);
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream out;
    pablo::write_sddf(out, kFiles, evs);
    const std::string s = out.str();
    bytes = s.size();
    benchmark::DoNotOptimize(s.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kEvents));
  state.counters["bytes_per_event"] =
      static_cast<double>(bytes) / static_cast<double>(kEvents);
}
BENCHMARK(BM_TraceEmitText);

/// A synthetic `#span` stream shaped like the traced paper runs: per op, a
/// root, segment and attempt plus five stage spans, emitted in close order
/// (children before parents) with ticks, ids and bytes at realistic widths.
std::vector<pablo::SpanEvent> make_spans(std::size_t ops, int nodes) {
  constexpr obs::StageKind kStages[] = {obs::StageKind::kNetReq, obs::StageKind::kAdmit,
                                        obs::StageKind::kService, obs::StageKind::kDisk,
                                        obs::StageKind::kNetResp};
  std::vector<pablo::SpanEvent> spans;
  spans.reserve(ops * 8);
  std::uint32_t next_id = 1;
  sim::Tick now = 1'000'000'000;
  for (std::size_t i = 0; i < ops; ++i) {
    const auto node = static_cast<std::int32_t>(i % static_cast<std::size_t>(nodes));
    const std::uint64_t bytes = (i % 3 == 0) ? 65536 : 4096;
    const std::uint32_t root = next_id;
    const std::uint32_t seg = root + 1;
    const std::uint32_t att = root + 2;
    next_id += 8;
    sim::Tick t = now + 5'000;
    for (std::size_t k = 0; k < 5; ++k) {
      const sim::Tick dur = 20'000 + static_cast<sim::Tick>((i * 7 + k * 13) % 41) * 1'250;
      pablo::SpanEvent s;
      s.start = t;
      s.duration = dur;
      s.op_id = 4'000'000 + i;
      s.span = att + 1 + static_cast<std::uint32_t>(k);
      s.parent = att;
      s.stage = kStages[k];
      s.node = node;
      s.target = static_cast<std::int32_t>(i % 16);
      s.bytes = kStages[k] == obs::StageKind::kAdmit ? 0 : bytes;
      spans.push_back(s);
      t += dur;
    }
    const sim::Tick end = t + 3'000;
    const auto close = [&](std::uint32_t id, std::uint32_t parent, obs::StageKind stage,
                           std::uint64_t info) {
      pablo::SpanEvent s;
      s.start = now;
      s.duration = end - now;
      s.op_id = id == root ? 0 : 4'000'000 + i;
      s.span = id;
      s.parent = parent;
      s.stage = stage;
      s.node = node;
      s.target = id == root ? -1 : static_cast<std::int32_t>(i % 16);
      s.bytes = bytes;
      s.info = info;
      spans.push_back(s);
    };
    close(att, seg, obs::StageKind::kAttempt, 1);
    close(seg, root, obs::StageKind::kSegment, 0);
    close(root, 0, obs::StageKind::kOp, 2);
    now += 9'000 + static_cast<sim::Tick>(i % 13) * 260;
  }
  return spans;
}

/// The text writer on a span-heavy trace: most of a traced run's records
/// are `#span` lines, which carry eleven fields against an event's seven.
void BM_TraceEmitTextSpans(benchmark::State& state) {
  constexpr std::size_t kOps = kEvents / 8;
  const auto spans = make_spans(kOps, kNodes);
  const auto evs = make_events(kEvents / 4, kNodes);
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream out;
    pablo::write_sddf(out, kFiles, evs, {}, {}, {}, {}, spans);
    const std::string s = out.str();
    bytes = s.size();
    benchmark::DoNotOptimize(s.data());
  }
  const auto records = static_cast<std::int64_t>(spans.size() + evs.size());
  state.SetItemsProcessed(state.iterations() * records);
  state.counters["bytes_per_event"] =
      static_cast<double>(bytes) / static_cast<double>(records);
}
BENCHMARK(BM_TraceEmitTextSpans);

void BM_TraceEmitBinary(benchmark::State& state) {
  const auto evs = make_events(kEvents, kNodes);
  std::size_t bytes = 0;
  for (auto _ : state) {
    pablo::BinarySddfWriter w;
    for (const auto& name : kFiles) w.add_file(name);
    for (const auto& ev : evs) w.add_event(ev);
    const std::string s = w.finish();
    bytes = s.size();
    benchmark::DoNotOptimize(s.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kEvents));
  state.counters["bytes_per_event"] =
      static_cast<double>(bytes) / static_cast<double>(kEvents);
}
BENCHMARK(BM_TraceEmitBinary);

void BM_TraceDecodeBinary(benchmark::State& state) {
  const auto evs = make_events(kEvents, kNodes);
  const std::string bin = pablo::to_binary_sddf(kFiles, evs);
  for (auto _ : state) {
    pablo::TraceFile tf = pablo::from_binary_sddf(bin);
    benchmark::DoNotOptimize(tf.events.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kEvents));
}
BENCHMARK(BM_TraceDecodeBinary);

void BM_TraceStreamingFold(benchmark::State& state) {
  const auto evs = make_events(kEvents, kNodes);
  for (auto _ : state) {
    pablo::StreamingAnalytics sa;
    for (const auto& ev : evs) sa.on_event(ev);
    benchmark::DoNotOptimize(sa.fingerprint());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kEvents));
}
BENCHMARK(BM_TraceStreamingFold);

// ---- causal tracing: span emission on vs off ------------------------------

/// Spans per synthetic op tree: root + segment + attempt + the five stages a
/// buffered read passes through (net-req, admit, service, disk, net-resp).
constexpr std::int64_t kSpansPerOp = 8;
constexpr std::int64_t kOpsPerIter = 2048;

/// One op's worth of span traffic through `parent` (null tracer = off path).
void drive_op(const obs::SpanContext& parent, std::uint64_t i) {
  obs::SpanScope op(parent, obs::StageKind::kOp, static_cast<std::int32_t>(i % 64), -1, 4096, 2);
  obs::SpanScope seg(op.ctx(), obs::StageKind::kSegment, 0, 1, 4096);
  seg.set_op_id(i + 1);
  obs::SpanScope att(seg.ctx(), obs::StageKind::kAttempt, 0, 1, 4096, 1);
  { obs::SpanScope net(att.ctx(), obs::StageKind::kNetReq, 0, 1, 4096); }
  { obs::SpanScope adm(att.ctx(), obs::StageKind::kAdmit, 0, 1); }
  {
    obs::SpanScope svc(att.ctx(), obs::StageKind::kService, 0, 1, 4096);
    obs::SpanScope disk(svc.ctx(), obs::StageKind::kDisk, 0, 1, 4096);
  }
  { obs::SpanScope rsp(att.ctx(), obs::StageKind::kNetResp, 0, 1, 64); }
}

/// Tracing on: every scope allocates an id, registers, and emits a binary
/// `#span` record on close.  bytes_per_event = encoded bytes per span.
void BM_SpanEmit(benchmark::State& state) {
  struct BinSink : obs::SpanSink {
    pablo::BinarySddfWriter w;
    void on_span(const obs::SpanEvent& ev) override { w.add_span(ev); }
  };
  std::size_t bytes = 0;
  std::uint64_t spans = 0;
  for (auto _ : state) {
    sim::Engine engine;
    BinSink sink;
    obs::Tracer tracer(engine, sink);
    const obs::SpanContext origin{&tracer, 0, 0};
    for (std::int64_t i = 0; i < kOpsPerIter; ++i) {
      drive_op(origin, static_cast<std::uint64_t>(i));
    }
    spans = tracer.spans_emitted();
    bytes = sink.w.bytes_encoded();
    benchmark::DoNotOptimize(spans);
  }
  state.SetItemsProcessed(state.iterations() * kOpsPerIter * kSpansPerOp);
  state.counters["bytes_per_event"] =
      spans == 0 ? 0.0 : static_cast<double>(bytes) / static_cast<double>(spans);
}
BENCHMARK(BM_SpanEmit);

/// Tracing off: the same instrumentation points ride a null-tracer context.
/// Every scope must cost one predictable branch — no allocation, no id, no
/// record — so this measures the tax every untraced run pays.
void BM_SpanDisabled(benchmark::State& state) {
  const obs::SpanContext off{};
  for (auto _ : state) {
    for (std::int64_t i = 0; i < kOpsPerIter; ++i) {
      drive_op(off, static_cast<std::uint64_t>(i));
      benchmark::DoNotOptimize(i);
    }
  }
  state.SetItemsProcessed(state.iterations() * kOpsPerIter * kSpansPerOp);
}
BENCHMARK(BM_SpanDisabled);

}  // namespace

BENCHMARK_MAIN();
