// Unit tests pinning the tracer's emission order and its no-op rules.  The
// orders feed the `#span` goldens: a normal close emits at once, abandon()
// emits the open subtree deepest-first (descending id), and finish() emits
// every open span in descending id order.  Ids already force-closed stay
// dead: late closes, setters and child opens under them do nothing.  The
// flat id table behind the tracer is checked against std::map.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "obs/id_table.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"

namespace sio::obs {
namespace {

struct RecordingSink : SpanSink {
  std::vector<SpanEvent> spans;
  void on_span(const SpanEvent& s) override { spans.push_back(s); }
};

struct TracerTest : ::testing::Test {
  sim::Engine engine;
  RecordingSink sink;
  Tracer tracer{engine, sink};

  std::uint32_t open(std::uint32_t parent, StageKind stage = StageKind::kService) {
    return tracer.open(parent, parent == 0 ? StageKind::kOp : stage, 0, 0, -1, 0, 0);
  }
  void at(sim::Tick t) { engine.run_until(t); }

  std::vector<std::uint32_t> emitted_ids() const {
    std::vector<std::uint32_t> ids;
    for (const SpanEvent& s : sink.spans) ids.push_back(s.span);
    return ids;
  }
};

using Ids = std::vector<std::uint32_t>;

TEST_F(TracerTest, AbandonEmitsTheOpenSubtreeDeepestFirstInDescendingIdOrder) {
  const auto r = open(0);     // 1
  const auto a = open(r);     // 2
  const auto b = open(a);     // 3
  const auto c = open(r);     // 4
  const auto d = open(b);     // 5
  const auto x = open(0);     // 6, another op
  const auto y = open(x);     // 7
  const auto e = open(a);     // 8
  at(5);
  tracer.close(c);
  at(10);
  tracer.abandon(a);
  EXPECT_EQ(emitted_ids(), (Ids{c, e, d, b, a}));
  for (std::size_t i = 1; i < sink.spans.size(); ++i) {
    EXPECT_TRUE(sink.spans[i].abandoned());
    EXPECT_EQ(sink.spans[i].end(), 10);
  }
  EXPECT_FALSE(sink.spans[0].abandoned());
  EXPECT_EQ(tracer.open_count(), 3u);
  EXPECT_TRUE(tracer.is_open(r));
  EXPECT_TRUE(tracer.is_open(x));
  EXPECT_TRUE(tracer.is_open(y));
}

TEST_F(TracerTest, FinishEmitsEveryOpenSpanInDescendingIdOrder) {
  const auto r = open(0);  // 1
  const auto a = open(r);  // 2
  const auto x = open(0);  // 3
  const auto b = open(a);  // 4
  const auto y = open(x);  // 5
  const auto z = open(0);  // 6
  tracer.close(y);
  at(7);
  tracer.finish();
  EXPECT_EQ(emitted_ids(), (Ids{y, z, b, x, a, r}));
  for (std::size_t i = 1; i < sink.spans.size(); ++i) {
    EXPECT_TRUE(sink.spans[i].abandoned());
    EXPECT_EQ(sink.spans[i].end(), 7);
  }
  EXPECT_EQ(tracer.open_count(), 0u);
  EXPECT_EQ(tracer.spans_emitted(), 6u);
}

TEST_F(TracerTest, LateCloseOfAForceClosedIdIsANoOp) {
  const auto r = open(0);
  const auto a = open(r);
  const auto b = open(a);
  tracer.abandon(a);
  const auto emitted = tracer.spans_emitted();
  at(3);
  tracer.close(b);
  tracer.close(a);
  tracer.abandon(b);
  EXPECT_EQ(tracer.spans_emitted(), emitted);
  EXPECT_EQ(sink.spans.size(), 2u);
  tracer.close(r);
  EXPECT_EQ(emitted_ids(), (Ids{b, a, r}));
}

TEST_F(TracerTest, OpenUnderAForceClosedParentReturnsZero) {
  const auto r = open(0);
  const auto a = open(r);
  tracer.abandon(a);
  EXPECT_EQ(open(a), 0u);
  EXPECT_EQ(tracer.open_count(), 1u);
  // A refused open consumes no id.
  EXPECT_EQ(open(r), a + 1);
  EXPECT_EQ(open(0), a + 2);
}

TEST_F(TracerTest, SettersApplyToOpenSpansAndIgnoreClosedOnes) {
  const auto r = open(0);
  const auto a = open(r);
  tracer.set_bytes(a, 4096);
  tracer.set_op_id(a, 77);
  tracer.set_info(a, 3);
  tracer.close(a);
  tracer.set_bytes(a, 1);
  tracer.set_op_id(a, 1);
  tracer.set_info(a, 1);
  tracer.set_bytes(0, 1);
  tracer.close(r);
  ASSERT_EQ(sink.spans.size(), 2u);
  EXPECT_EQ(sink.spans[0].bytes, 4096u);
  EXPECT_EQ(sink.spans[0].op_id, 77u);
  EXPECT_EQ(sink.spans[0].info, 3u);
  EXPECT_EQ(sink.spans[1].bytes, 0u);
  EXPECT_EQ(sink.spans[1].op_id, 0u);
}

TEST_F(TracerTest, OpenCountTracksOpensAndCloses) {
  EXPECT_EQ(tracer.open_count(), 0u);
  const auto r = open(0);
  const auto a = open(r);
  const auto b = open(r);
  EXPECT_EQ(tracer.open_count(), 3u);
  tracer.close(a);
  EXPECT_EQ(tracer.open_count(), 2u);
  EXPECT_FALSE(tracer.is_open(a));
  EXPECT_TRUE(tracer.is_open(b));
  tracer.close(0);
  tracer.close(a);
  EXPECT_EQ(tracer.open_count(), 2u);
  tracer.close(b);
  tracer.close(r);
  EXPECT_EQ(tracer.open_count(), 0u);
  EXPECT_EQ(emitted_ids(), (Ids{a, b, r}));
}

TEST_F(TracerTest, RetainedBytesFollowOpenSpansNotRunLength) {
  // Four ops of three spans each in flight, replayed: the table's size is
  // set by the peak number of open spans, however long the run.
  auto replay = [this](int reps) {
    for (int i = 0; i < reps; ++i) {
      std::vector<std::uint32_t> roots;
      for (int op = 0; op < 4; ++op) roots.push_back(open(0));
      for (const auto r : roots) {
        const auto a = open(r);
        tracer.close(open(a));
        tracer.close(a);
        tracer.close(r);
      }
    }
    EXPECT_EQ(tracer.open_count(), 0u);
    return tracer.bytes_retained();
  };
  const std::size_t short_run = replay(10);
  EXPECT_GT(short_run, 0u);
  EXPECT_EQ(replay(1000), short_run);
}

TEST(IdTable, MatchesAnOrderedMapUnderRandomInsertsAndErases) {
  // Ids drawn from a sliding window plus a few long-lived old ones, like
  // the tracer's open spans, so probe runs wrap and backward-shift deletes
  // move entries across the end of the table.
  IdTable<std::uint64_t> table;
  std::map<std::uint32_t, std::uint64_t> oracle;
  sim::Rng rng(7);
  std::uint32_t next = 1;
  for (int step = 0; step < 200000; ++step) {
    if (oracle.size() < 40 && rng.bernoulli(0.5)) {
      table.insert(next, next * 3ull);
      oracle.emplace(next, next * 3ull);
      ++next;
    } else if (!oracle.empty()) {
      const auto lo = rng.bernoulli(0.9) && next > 64 ? next - 64 : 1u;
      const auto id = static_cast<std::uint32_t>(rng.uniform_int(lo, next));
      table.erase(id);
      oracle.erase(id);
    }
    if (step % 997 == 0) {
      std::vector<std::pair<std::uint32_t, std::uint64_t>> seen;
      table.for_each([&](std::uint32_t id, std::uint64_t v) { seen.emplace_back(id, v); });
      std::sort(seen.begin(), seen.end());
      ASSERT_EQ(seen, (std::vector<std::pair<std::uint32_t, std::uint64_t>>(oracle.begin(),
                                                                             oracle.end())));
    }
    ASSERT_EQ(table.size(), oracle.size());
  }
  for (std::uint32_t id = 0; id <= next; ++id) {
    const std::uint64_t* v = table.find(id);
    const auto it = oracle.find(id);
    ASSERT_EQ(v != nullptr, it != oracle.end()) << id;
    if (v != nullptr) EXPECT_EQ(*v, it->second);
  }
}

}  // namespace
}  // namespace sio::obs
