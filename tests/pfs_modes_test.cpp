// Semantics tests for the six PFS access modes, with byte-accurate content
// verification (ContentPolicy::kStoreBytes):
//   M_UNIX    private pointers, shared-file serialization
//   M_RECORD  node-order record mapping, disjoint coverage
//   M_ASYNC   private pointers, fully parallel
//   M_GLOBAL  identical synchronized requests, single transfer + broadcast
//   M_SYNC    node-ordered offsets from exchanged sizes
//   M_LOG     FCFS shared pointer
// plus exact per-mode traces (ModeTrace.*) that pin every (mode, direction)
// pair of the client to its recorded timing.

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <string_view>
#include <vector>

#include "apps/common.hpp"
#include "machine/machine.hpp"
#include "pablo/collector.hpp"
#include "pfs/group.hpp"
#include "pfs/pfs.hpp"

namespace sio::pfs {
namespace {

std::vector<std::byte> pattern(std::size_t n, unsigned seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::byte>((i * 37 + seed) & 0xff);
  return v;
}

struct Fixture {
  hw::Machine machine;
  pablo::Collector collector;
  Pfs fs;
  std::unique_ptr<Group> group;

  explicit Fixture(int nodes = 8, hw::OsProfile os = hw::osf_r13())
      : machine(hw::Machine::caltech_paragon(nodes, std::move(os))),
        collector(machine.engine()),
        fs(machine, collector, PfsConfig{{}, ContentPolicy::kStoreBytes}),
        group(Group::contiguous(machine.engine(), nodes)) {}

  sim::Engine& engine() { return machine.engine(); }

  void run_nodes(int n, std::function<sim::Task<void>(int)> body) {
    engine().spawn(apps::parallel_section(engine(), n, std::move(body)));
    engine().run();
  }
};

// ------------------------------------------------------------- M_RECORD --

TEST(ModeRecord, MapsAccessesToNodeOrderedRecords) {
  Fixture f(4);
  constexpr std::uint64_t kRec = 1024;
  f.run_nodes(4, [&](int node) -> sim::Task<void> {
    auto fh = co_await f.fs.gopen(node, "t/rec", *f.group,
                                  {.mode = IoMode::kRecord, .record_size = kRec, .truncate = true});
    // wave w, rank r -> record w*4 + r
    for (int w = 0; w < 3; ++w) {
      auto data = pattern(kRec, static_cast<unsigned>(node * 16 + w));
      co_await fh.write(kRec, data);
    }
    co_await fh.close();
  });

  // Every record must hold the pattern of its (wave, rank).
  auto& file = f.fs.lookup("t/rec");
  EXPECT_EQ(file.size, 12u * kRec);
  for (int w = 0; w < 3; ++w) {
    for (int r = 0; r < 4; ++r) {
      std::vector<std::byte> out(kRec);
      file.content->read(static_cast<std::uint64_t>(w * 4 + r) * kRec, out);
      EXPECT_EQ(out, pattern(kRec, static_cast<unsigned>(r * 16 + w))) << "w=" << w << " r=" << r;
    }
  }
}

TEST(ModeRecord, ReadBackRoundTrips) {
  Fixture f(4);
  constexpr std::uint64_t kRec = 2048;
  f.run_nodes(4, [&](int node) -> sim::Task<void> {
    auto fh = co_await f.fs.gopen(node, "t/rec2", *f.group,
                                  {.mode = IoMode::kRecord, .record_size = kRec, .truncate = true});
    auto data = pattern(kRec, static_cast<unsigned>(node));
    co_await fh.write(kRec, data);
    co_await fh.close();

    auto rd = co_await f.fs.gopen(node, "t/rec2", *f.group,
                                  {.mode = IoMode::kRecord, .record_size = kRec});
    std::vector<std::byte> out(kRec);
    const auto n = co_await rd.read(kRec, out);
    EXPECT_EQ(n, kRec);
    EXPECT_EQ(out, pattern(kRec, static_cast<unsigned>(node)));
    co_await rd.close();
  });
}

TEST(ModeRecord, WrongSizeRequestThrows) {
  Fixture f(2);
  f.run_nodes(2, [&](int node) -> sim::Task<void> {
    auto fh = co_await f.fs.gopen(node, "t/rec3", *f.group,
                                  {.mode = IoMode::kRecord, .record_size = 1024, .truncate = true});
    bool threw = false;
    try {
      co_await fh.write(512);
    } catch (const PfsError&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
    co_await fh.write(1024);  // handle still usable
    co_await fh.close();
  });
}

// ------------------------------------------------------------- M_GLOBAL --

TEST(ModeGlobal, ReadIsSingleTransferSharedByAll) {
  Fixture f(8);
  f.fs.stage_file("t/glob", 64 * 1024);
  const auto staged = pattern(4096, 9);
  f.fs.stage_contents("t/glob", 0, staged);

  const auto reads_before = f.fs.bytes_read();
  f.run_nodes(8, [&](int node) -> sim::Task<void> {
    auto fh = co_await f.fs.gopen(node, "t/glob", *f.group, {.mode = IoMode::kGlobal});
    std::vector<std::byte> out(4096);
    const auto n = co_await fh.read(4096, out);
    EXPECT_EQ(n, 4096u);
    EXPECT_EQ(out, staged);  // everyone sees the same data
    co_await fh.close();
  });
  // One logical transfer, not eight.
  EXPECT_EQ(f.fs.bytes_read() - reads_before, 4096u);
}

TEST(ModeGlobal, SharedPointerAdvancesOncePerWave) {
  Fixture f(4);
  f.fs.stage_file("t/glob2", 64 * 1024);
  f.run_nodes(4, [&](int node) -> sim::Task<void> {
    auto fh = co_await f.fs.gopen(node, "t/glob2", *f.group, {.mode = IoMode::kGlobal});
    co_await fh.read(1000);
    co_await fh.read(1000);
    co_await fh.close();
  });
  EXPECT_EQ(f.fs.lookup("t/glob2").shared_offset, 2000u);
}

TEST(ModeGlobal, MismatchedRequestsThrow) {
  Fixture f(2);
  f.fs.stage_file("t/glob3", 64 * 1024);
  f.engine().spawn(apps::parallel_section(f.engine(), 2, [&](int node) -> sim::Task<void> {
    auto fh = co_await f.fs.gopen(node, "t/glob3", *f.group, {.mode = IoMode::kGlobal});
    co_await fh.read(node == 0 ? 100 : 200);  // not identical
    co_await fh.close();
  }));
  EXPECT_THROW(f.engine().run(), PfsError);
}

// --------------------------------------------------------------- M_SYNC --

TEST(ModeSync, AssignsNodeOrderedOffsetsFromSizes) {
  Fixture f(4);
  f.run_nodes(4, [&](int node) -> sim::Task<void> {
    auto fh = co_await f.fs.gopen(node, "t/sync", *f.group,
                                  {.mode = IoMode::kSync, .truncate = true});
    // Node r writes (r+1)*100 bytes; offsets must be the prefix sums.
    const auto bytes = static_cast<std::uint64_t>((node + 1) * 100);
    auto data = pattern(bytes, static_cast<unsigned>(node));
    co_await fh.write(bytes, data);
    co_await fh.close();
  });
  auto& file = f.fs.lookup("t/sync");
  EXPECT_EQ(file.size, 100u + 200 + 300 + 400);
  std::uint64_t off = 0;
  for (int r = 0; r < 4; ++r) {
    const auto bytes = static_cast<std::uint64_t>((r + 1) * 100);
    std::vector<std::byte> out(bytes);
    file.content->read(off, out);
    EXPECT_EQ(out, pattern(bytes, static_cast<unsigned>(r))) << "rank " << r;
    off += bytes;
  }
}

TEST(ModeSync, RepeatedWavesAppend) {
  Fixture f(3);
  f.run_nodes(3, [&](int node) -> sim::Task<void> {
    auto fh = co_await f.fs.gopen(node, "t/sync2", *f.group,
                                  {.mode = IoMode::kSync, .truncate = true});
    co_await fh.write(100);
    co_await fh.write(100);
    co_await fh.close();
  });
  EXPECT_EQ(f.fs.lookup("t/sync2").size, 600u);
  EXPECT_EQ(f.fs.lookup("t/sync2").shared_offset, 600u);
}

// ---------------------------------------------------------------- M_LOG --

TEST(ModeLog, AppendsFcfsWithoutOverlap) {
  Fixture f(6);
  f.run_nodes(6, [&](int node) -> sim::Task<void> {
    auto fh = co_await f.fs.gopen(node, "t/log", *f.group,
                                  {.mode = IoMode::kLog, .truncate = true});
    for (int i = 0; i < 5; ++i) {
      co_await fh.write(64);
    }
    co_await fh.close();
  });
  // 30 appends of 64 bytes: contiguous, no gaps or overlap.
  EXPECT_EQ(f.fs.lookup("t/log").size, 30u * 64);
  EXPECT_EQ(f.fs.lookup("t/log").shared_offset, 30u * 64);

  // Trace offsets must be distinct multiples of 64 covering the file.
  std::set<std::uint64_t> offsets;
  for (const auto& ev : f.collector.events()) {
    if (ev.op == pablo::IoOp::kWrite) offsets.insert(ev.offset);
  }
  EXPECT_EQ(offsets.size(), 30u);
  EXPECT_EQ(*offsets.rbegin(), 29u * 64);
}

// --------------------------------------------------------------- M_UNIX --

TEST(ModeUnix, PrivatePointersAdvanceIndependently) {
  Fixture f(2);
  f.fs.stage_file("t/unix", 64 * 1024);
  f.run_nodes(2, [&](int node) -> sim::Task<void> {
    auto fh = co_await f.fs.open(node, "t/unix");
    co_await fh.read(node == 0 ? 100 : 200);
    EXPECT_EQ(fh.tell(), node == 0 ? 100u : 200u);
    co_await fh.close();
  });
}

TEST(ModeUnix, SharedWritesAtSeekedOffsetsLandCorrectly) {
  Fixture f(4, hw::osf_r12());
  f.run_nodes(4, [&](int node) -> sim::Task<void> {
    auto fh = co_await f.fs.gopen(node, "t/unixw", *f.group, {.truncate = true});
    const std::uint64_t off = static_cast<std::uint64_t>(node) * 1000;
    co_await fh.seek(off);
    auto data = pattern(500, static_cast<unsigned>(node + 40));
    co_await fh.write(500, data);
    co_await fh.close();
  });
  auto& file = f.fs.lookup("t/unixw");
  for (int r = 0; r < 4; ++r) {
    std::vector<std::byte> out(500);
    file.content->read(static_cast<std::uint64_t>(r) * 1000, out);
    EXPECT_EQ(out, pattern(500, static_cast<unsigned>(r + 40)));
  }
}

TEST(ModeUnix, SharedAccessCostsMoreThanSolo) {
  // The same warmed-up read stream is cheaper when the file has a single
  // opener (client caching + no token) than when shared (serialized).
  // Compare steady-state per-read costs: the tail of each node's stream,
  // past the one-time cache-fill misses.
  auto run_case = [](int nodes) {
    Fixture f(16, hw::osf_r12());
    f.fs.stage_file("t/contend", 1 << 20);
    f.run_nodes(nodes, [&](int node) -> sim::Task<void> {
      auto fh = co_await f.fs.open(node, "t/contend");
      for (int i = 0; i < 50; ++i) co_await fh.read(512);
      co_await fh.close();
    });
    // Average duration of each node's last 25 reads.
    std::vector<std::vector<sim::Tick>> per_node(static_cast<std::size_t>(nodes));
    for (const auto& ev : f.collector.events()) {
      if (ev.op == pablo::IoOp::kRead) {
        per_node[static_cast<std::size_t>(ev.node)].push_back(ev.duration);
      }
    }
    sim::Tick tail = 0;
    for (const auto& durs : per_node) {
      for (std::size_t i = 25; i < durs.size(); ++i) tail += durs[i];
    }
    return tail / nodes;
  };
  const sim::Tick solo_tail = run_case(1);
  const sim::Tick shared_tail = run_case(16);
  EXPECT_GT(shared_tail, solo_tail * 2);
}

// -------------------------------------------------------------- M_ASYNC --

TEST(ModeAsync, ParallelDisjointWritesRoundTrip) {
  Fixture f(8);
  f.run_nodes(8, [&](int node) -> sim::Task<void> {
    auto fh = co_await f.fs.gopen(node, "t/async", *f.group,
                                  {.mode = IoMode::kAsync, .truncate = true});
    const std::uint64_t off = static_cast<std::uint64_t>(node) * 4096;
    co_await fh.seek(off);
    auto data = pattern(4096, static_cast<unsigned>(node + 7));
    co_await fh.write(4096, data);
    co_await fh.close();
  });
  auto& file = f.fs.lookup("t/async");
  EXPECT_EQ(file.size, 8u * 4096);
  for (int r = 0; r < 8; ++r) {
    std::vector<std::byte> out(4096);
    file.content->read(static_cast<std::uint64_t>(r) * 4096, out);
    EXPECT_EQ(out, pattern(4096, static_cast<unsigned>(r + 7)));
  }
}

TEST(ModeAsync, UnavailableOnR12) {
  Fixture f(2, hw::osf_r12());
  f.engine().spawn(apps::parallel_section(f.engine(), 2, [&](int node) -> sim::Task<void> {
    auto fh = co_await f.fs.gopen(node, "t/async12", *f.group, {.mode = IoMode::kAsync});
    co_await fh.close();
  }));
  EXPECT_THROW(f.engine().run(), PfsError);
}

TEST(ModeAsync, SeeksAreLocalAndCheap) {
  Fixture f(4);
  f.run_nodes(4, [&](int node) -> sim::Task<void> {
    auto fh = co_await f.fs.gopen(node, "t/asyncseek", *f.group,
                                  {.mode = IoMode::kAsync, .truncate = true});
    co_await fh.seek(static_cast<std::uint64_t>(node) * 100000);
    co_await fh.close();
  });
  for (const auto& ev : f.collector.events()) {
    if (ev.op == pablo::IoOp::kSeek) {
      EXPECT_LT(ev.duration, sim::milliseconds(1));
    }
  }
}

// Shared-pointer modes reject seek.
TEST(ModeSemantics, SeekOnSharedPointerModeThrows) {
  Fixture f(2);
  f.fs.stage_file("t/noseek", 4096);
  f.engine().spawn(apps::parallel_section(f.engine(), 2, [&](int node) -> sim::Task<void> {
    auto fh = co_await f.fs.gopen(node, "t/noseek", *f.group, {.mode = IoMode::kGlobal});
    co_await fh.seek(100);
    co_await fh.close();
  }));
  EXPECT_THROW(f.engine().run(), PfsError);
}

// ---------------------------------------------------------- exact traces --
//
// Each access mode's writes, then reads that run past end of file, on a
// fixed 4-node rig with causal spans on.  A case is pinned by the FNV-1a of
// its whole SDDF text (events and span trees), the engine's event count and
// the file's final size and shared pointer, all recorded from the
// per-direction client bodies.  Any moved delay, token kind, span or event
// order changes the digest.

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

struct TracePin {
  std::uint64_t sddf_fnv = 0;
  std::uint64_t events = 0;
  std::uint64_t size = 0;
  std::uint64_t shared_offset = 0;
};

struct TraceFixture : Fixture {
  TraceFixture() : Fixture(4) { collector.enable_spans(); }

  /// Stages `size` bytes of patterned contents at `path`.
  void stage(const char* path, std::uint64_t size) {
    fs.stage_file(path, size);
    fs.stage_contents(path, 0, pattern(static_cast<std::size_t>(size), 3));
  }

  void expect_pin(const char* path, const TracePin& want) {
    collector.finish_spans();
    const FileState& file = fs.lookup(path);
    const TracePin got{fnv1a(collector.sddf_text()), engine().events_processed(), file.size,
                       file.shared_offset};
    EXPECT_EQ(got.sddf_fnv, want.sddf_fnv);
    EXPECT_EQ(got.events, want.events);
    EXPECT_EQ(got.size, want.size);
    EXPECT_EQ(got.shared_offset, want.shared_offset);
  }
};

TEST(ModeTrace, Record) {
  TraceFixture f;
  constexpr std::uint64_t kRec = 40 * 1024;  // records straddle stripe units
  f.stage("t/rec", 8 * kRec + kRec / 2);
  std::vector<std::uint64_t> got(4);
  f.run_nodes(4, [&](int node) -> sim::Task<void> {
    auto fh = co_await f.fs.gopen(node, "t/rec", *f.group,
                                  {.mode = IoMode::kRecord, .record_size = kRec});
    co_await fh.write(kRec, pattern(kRec, static_cast<unsigned>(node)));  // records 0-3
    std::vector<std::byte> out(kRec);
    for (int w = 0; w < 2; ++w) got[static_cast<std::size_t>(node)] += co_await fh.read(kRec, out);
    co_await fh.close();
  });
  // Wave 2 runs into the half record at the end: rank 0 reads it, the rest 0.
  EXPECT_EQ(got, (std::vector<std::uint64_t>{kRec + kRec / 2, kRec, kRec, kRec}));
  f.expect_pin("t/rec", {0xc295347c4961bbdfULL, 103, 348160, 0});
}

TEST(ModeTrace, Global) {
  TraceFixture f;
  constexpr std::uint64_t kReq = 50000;
  f.stage("t/glob", 3 * kReq + 20000);
  std::vector<std::uint64_t> got(4);
  f.run_nodes(4, [&](int node) -> sim::Task<void> {
    auto fh = co_await f.fs.gopen(node, "t/glob", *f.group, {.mode = IoMode::kGlobal});
    for (int w = 0; w < 2; ++w) co_await fh.write(kReq, pattern(kReq, static_cast<unsigned>(w)));
    std::vector<std::byte> out(kReq);
    for (int w = 0; w < 2; ++w) got[static_cast<std::size_t>(node)] += co_await fh.read(kReq, out);
    co_await fh.close();
  });
  EXPECT_EQ(got, (std::vector<std::uint64_t>(4, kReq + 20000)));
  f.expect_pin("t/glob", {0x970f05cd9da41080ULL, 112, 170000, 170000});
}

TEST(ModeTrace, Sync) {
  TraceFixture f;
  // Rank r moves (r+1)*10000 bytes a wave; one write wave, two read waves,
  // the second clamped inside rank 2's request.
  f.stage("t/sync", 200000 + 10000 + 20000 + 5000);
  std::vector<std::uint64_t> got(4);
  f.run_nodes(4, [&](int node) -> sim::Task<void> {
    auto fh = co_await f.fs.gopen(node, "t/sync", *f.group, {.mode = IoMode::kSync});
    const auto bytes = static_cast<std::uint64_t>((node + 1) * 10000);
    co_await fh.write(bytes, pattern(bytes, static_cast<unsigned>(node)));
    std::vector<std::byte> out(bytes);
    for (int w = 0; w < 2; ++w) got[static_cast<std::size_t>(node)] += co_await fh.read(bytes, out);
    co_await fh.close();
  });
  EXPECT_EQ(got, (std::vector<std::uint64_t>{20000, 40000, 35000, 40000}));
  // The clamped wave leaves the shared pointer at end of file, not past it.
  f.expect_pin("t/sync", {0x6ae84a99a55ded5fULL, 132, 235000, 235000});
}

TEST(ModeTrace, Log) {
  TraceFixture f;
  constexpr std::uint64_t kReq = 3000;
  f.stage("t/log", 8 * kReq + 5 * kReq + 1000);
  std::uint64_t total = 0;
  f.run_nodes(4, [&](int node) -> sim::Task<void> {
    auto fh = co_await f.fs.gopen(node, "t/log", *f.group, {.mode = IoMode::kLog});
    for (int i = 0; i < 2; ++i) co_await fh.write(kReq, pattern(kReq, static_cast<unsigned>(node)));
    std::vector<std::byte> out(kReq);
    for (int i = 0; i < 2; ++i) total += co_await fh.read(kReq, out);
    co_await fh.close();
  });
  EXPECT_EQ(total, 5 * kReq + 1000);
  f.expect_pin("t/log", {0x0834cbfb0b9a4701ULL, 117, 40000, 40000});
}

TEST(ModeTrace, SharedUnix) {
  TraceFixture f;
  f.stage("t/unix", 75000);
  std::vector<std::uint64_t> got(4);
  f.run_nodes(4, [&](int node) -> sim::Task<void> {
    auto fh = co_await f.fs.gopen(node, "t/unix", *f.group);
    const auto base = static_cast<std::uint64_t>(node) * 20000;
    co_await fh.seek(base);
    co_await fh.write(8000, pattern(8000, static_cast<unsigned>(node)));
    std::vector<std::byte> out(14000);
    got[static_cast<std::size_t>(node)] = co_await fh.read(14000, out);
    co_await fh.close();
  });
  EXPECT_EQ(got, (std::vector<std::uint64_t>{14000, 14000, 14000, 7000}));
  f.expect_pin("t/unix", {0x990b421637f4e6f3ULL, 105, 75000, 0});
}

TEST(ModeTrace, SoloUnixClientCache) {
  TraceFixture f;
  f.stage("t/solo", 140000);
  std::vector<std::uint64_t> got;
  f.run_nodes(1, [&](int node) -> sim::Task<void> {
    auto fh = co_await f.fs.open(node, "t/solo");
    for (int i = 0; i < 3; ++i) co_await fh.write(2000, pattern(2000, static_cast<unsigned>(i)));
    co_await fh.seek(65000);
    std::vector<std::byte> out(70000);
    got.push_back(co_await fh.read(1000, out));   // straddles units 0 and 1
    got.push_back(co_await fh.read(1000, out));   // cached unit 1
    got.push_back(co_await fh.read(70000, out));  // whole-unit read streams past the cache
    co_await fh.seek(139500);
    got.push_back(co_await fh.read(1000, out));
    co_await fh.close();
  });
  EXPECT_EQ(got, (std::vector<std::uint64_t>{1000, 1000, 70000, 500}));
  f.expect_pin("t/solo", {0xf89cc6d77a904c47ULL, 46, 140000, 0});
}

TEST(ModeTrace, UnbufferedAsync) {
  TraceFixture f;
  std::vector<std::uint64_t> got(4);
  f.run_nodes(4, [&](int node) -> sim::Task<void> {
    auto fh = co_await f.fs.gopen(node, "t/async", *f.group,
                                  {.mode = IoMode::kAsync, .buffering = false, .truncate = true});
    const auto base = static_cast<std::uint64_t>(node) * 30000;
    co_await fh.seek(base);
    co_await fh.write(30000, pattern(30000, static_cast<unsigned>(node)));
    co_await fh.seek(base + 10000);
    std::vector<std::byte> out(30000);
    got[static_cast<std::size_t>(node)] = co_await fh.read(30000, out);
    co_await fh.close();
  });
  EXPECT_EQ(got, (std::vector<std::uint64_t>{30000, 30000, 30000, 20000}));
  f.expect_pin("t/async", {0x103cc70f861ce1c5ULL, 99, 120000, 0});
}

}  // namespace
}  // namespace sio::pfs
