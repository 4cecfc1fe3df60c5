// Microbenchmarks (google-benchmark) for the simulator substrate itself:
// event dispatch throughput, coroutine task overhead, synchronization
// primitives, striping arithmetic, RNG, and a small end-to-end PFS
// operation.  These bound how much simulated work the reproduction can
// afford — the full ESCAT/PRISM studies dispatch a few million events.
//
// CI runs this with `--benchmark_out=BENCH_micro_sim.json
// --benchmark_out_format=json` and gates BM_EngineScheduleDispatch against
// bench/BASELINE_micro_sim.json via tools/bench_gate.py.

#include <benchmark/benchmark.h>

#include <functional>
#include <queue>

#include "core/sio.hpp"
#include "pfs/content.hpp"
#include "sim/callback.hpp"
#include "sim/wheel.hpp"

namespace {

using namespace sio;

void BM_EngineScheduleDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    for (int i = 0; i < 1000; ++i) {
      e.schedule_at(i, [] {});
    }
    e.run();
    benchmark::DoNotOptimize(e.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineScheduleDispatch);

sim::Task<void> hopper(sim::Engine& e, int hops) {
  for (int i = 0; i < hops; ++i) {
    co_await e.delay(1);
  }
}

void BM_CoroutineDelayHops(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    e.spawn(hopper(e, 1000));
    e.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CoroutineDelayHops);

sim::Task<void> locker(sim::Engine& e, sim::Mutex& m, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    auto g = co_await m.scoped();
    co_await e.delay(1);
  }
}

void BM_MutexContention(benchmark::State& state) {
  const int tasks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine e;
    sim::Mutex m(e);
    for (int t = 0; t < tasks; ++t) e.spawn(locker(e, m, 100));
    e.run();
  }
  state.SetItemsProcessed(state.iterations() * tasks * 100);
}
BENCHMARK(BM_MutexContention)->Arg(2)->Arg(16)->Arg(128);

// ---- event-store comparison: timing wheel vs. the old priority queue ------

/// The engine's pre-overhaul event store, inlined here as the baseline: a
/// binary heap of (time, seq, std::function).  One heap allocation per
/// scheduled callable, O(log n) per push/pop.
class HeapStore {
 public:
  void schedule(sim::Tick at, std::function<void()> fn) {
    q_.push({at, seq_++, std::move(fn)});
  }
  bool run_one() {
    if (q_.empty()) return false;
    now_ = q_.top().at;
    auto fn = std::move(const_cast<Ev&>(q_.top()).fn);
    q_.pop();
    fn();
    return true;
  }
  sim::Tick now() const { return now_; }

 private:
  struct Ev {
    sim::Tick at;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Ev& a, const Ev& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  sim::Tick now_ = 0;
  std::uint64_t seq_ = 0;
  std::priority_queue<Ev, std::vector<Ev>, Later> q_;
};

void BM_WheelVsHeap_Heap(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    HeapStore s;
    for (int i = 0; i < n; ++i) s.schedule(i, [] {});
    while (s.run_one()) {
    }
    benchmark::DoNotOptimize(s.now());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_WheelVsHeap_Heap)->Arg(1000)->Arg(100000);

void BM_WheelVsHeap_Wheel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::TimingWheel w;
    for (int i = 0; i < n; ++i) w.emplace(i, [] {});
    sim::EventNode* node;
    while ((node = w.pop_next(sim::kMaxTick)) != nullptr) {
      node->cb.invoke();
      w.release(node);
    }
    benchmark::DoNotOptimize(w.now());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_WheelVsHeap_Wheel)->Arg(1000)->Arg(100000);

void BM_WheelFarFutureDispatch(benchmark::State& state) {
  // Far-future events exercise the overflow heap and the settle/demote path:
  // each lands ~2^34 ticks out (past the wheel's 2^33 span), descends through
  // two coarse levels, and fires from level 0.
  for (auto _ : state) {
    sim::TimingWheel w;
    for (int i = 0; i < 1000; ++i) {
      w.emplace(w.now() + (sim::Tick{1} << 34) + i, [] {});
    }
    sim::EventNode* node;
    while ((node = w.pop_next(sim::kMaxTick)) != nullptr) {
      node->cb.invoke();
      w.release(node);
    }
    benchmark::DoNotOptimize(w.now());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_WheelFarFutureDispatch);

// ---- InlineCallback dispatch: inline storage vs. the boxed fallback -------

void BM_InlineCallbackDispatch_Inline(benchmark::State& state) {
  std::uint64_t sink = 0;
  sim::InlineCallback cb;
  auto fn = [&sink] { ++sink; };
  static_assert(sim::InlineCallback::stores_inline<decltype(fn)>());
  for (auto _ : state) {
    cb.emplace(fn);
    cb.invoke();
    cb.reset();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InlineCallbackDispatch_Inline);

void BM_InlineCallbackDispatch_Boxed(benchmark::State& state) {
  std::uint64_t sink = 0;
  std::uint64_t pad[4] = {};
  sim::InlineCallback cb;
  auto fn = [&sink, pad] { sink += pad[0] + 1; };
  static_assert(!sim::InlineCallback::stores_inline<decltype(fn)>());
  for (auto _ : state) {
    cb.emplace(fn);
    cb.invoke();
    cb.reset();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InlineCallbackDispatch_Boxed);

// ---- ParallelRunner scaling ----------------------------------------------

void BM_ParallelRunnerScaling(benchmark::State& state) {
  // Eight identical seeded mini-sims fanned across 1..N workers.  On a
  // single-core container every arg measures the same serial work plus pool
  // overhead; on multi-core hosts items/sec scales with the thread count.
  const unsigned threads = static_cast<unsigned>(state.range(0));
  std::vector<std::function<std::uint64_t()>> jobs;
  for (int j = 0; j < 8; ++j) {
    jobs.push_back([] {
      sim::Engine e;
      for (int i = 0; i < 20000; ++i) e.schedule_at(i, [] {});
      e.run();
      return e.events_processed();
    });
  }
  core::ParallelRunner pool(threads);
  for (auto _ : state) {
    const auto out = pool.run<std::uint64_t>(jobs);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 8 * 20000);
}
BENCHMARK(BM_ParallelRunnerScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_StripeMap(benchmark::State& state) {
  pfs::StripeLayout layout(64 * 1024, 16);
  std::uint64_t off = 0;
  for (auto _ : state) {
    auto segs = layout.map(off, 155584);
    benchmark::DoNotOptimize(segs.data());
    off += 131071;
  }
}
BENCHMARK(BM_StripeMap);

void BM_RngUniform(benchmark::State& state) {
  sim::Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform_int(0, 1 << 20));
  }
}
BENCHMARK(BM_RngUniform);

void BM_CdfBuild(benchmark::State& state) {
  sim::Rng rng(7);
  std::vector<std::uint64_t> sizes;
  for (int i = 0; i < 10000; ++i) {
    sizes.push_back(static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 20)));
  }
  for (auto _ : state) {
    auto copy = sizes;
    pablo::SizeCdf cdf(std::move(copy));
    benchmark::DoNotOptimize(cdf.total_bytes());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_CdfBuild);

sim::Task<void> pfs_writer(pfs::Pfs& fs, pfs::FileState& file, int ops) {
  for (int i = 0; i < ops; ++i) {
    co_await fs.transfer(0, file, static_cast<std::uint64_t>(i) * 2048, 2048, true, true);
  }
}

void BM_PfsSmallWrites(benchmark::State& state) {
  for (auto _ : state) {
    hw::Machine machine(hw::Machine::caltech_paragon(16));
    pablo::Collector collector(machine.engine());
    pfs::Pfs fs(machine, collector);
    auto& file = fs.stage_file("m/bench", 0);
    machine.engine().spawn(pfs_writer(fs, file, 256));
    machine.engine().run();
    benchmark::DoNotOptimize(machine.engine().events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_PfsSmallWrites);

// The unit ledger's write-back path as checkpoints drive it: 64 acked 1 KB
// spans fill one 64 KB unit, then a write-back moves them on disk.  After
// the first pass every span is an exact rewrite of one already there.
void BM_LedgerWriteBack(benchmark::State& state) {
  pfs::UnitTable units;
  pfs::UnitLedger ledger(units);
  std::uint64_t op = 0;
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < 64; ++i) ledger.ack(0, 0, i * 1024, 1024, ++op);
    ledger.durable(0, 0);
  }
  benchmark::DoNotOptimize(ledger.status(0, 0).durable_csum);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_LedgerWriteBack);

}  // namespace

BENCHMARK_MAIN();
