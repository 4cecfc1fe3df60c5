// Unit tests for the streaming critical-path fold over hand-built span
// streams.  The batch `critical_path()` is the oracle: for every stream the
// fold must land on the identical report, keep nothing once every root has
// closed, and leave a span whose parent never closes pending and unfolded.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "obs/critical_path.hpp"
#include "obs/span.hpp"
#include "sim/random.hpp"

namespace sio::obs {
namespace {

SpanEvent span(std::uint32_t id, std::uint32_t parent, StageKind stage, sim::Tick start,
               sim::Tick end, std::uint64_t info = 0, std::uint64_t flags = 0) {
  SpanEvent s;
  s.span = id;
  s.parent = parent;
  s.stage = stage;
  s.start = start;
  s.duration = end - start;
  s.info = info;
  s.flags = flags;
  return s;
}

CriticalPathFold fold_all(const std::vector<SpanEvent>& stream) {
  CriticalPathFold f;
  for (const SpanEvent& s : stream) f.on_span(s);
  return f;
}

void expect_exact(const CriticalPathReport& r) {
  for (const auto& row : r.rows) EXPECT_EQ(row.exclusive_sum(), row.total_latency);
}

std::size_t stage(StageKind k) { return static_cast<std::size_t>(k); }

/// Three ops in flight at once, their spans closing interleaved.  Tree 1 is
/// the worked example: op [0,100) with meta [10,40) and segment [30,90),
/// whose disk child covers [50,80).
std::vector<SpanEvent> interleaved_stream() {
  return {
      span(2, 1, StageKind::kMeta, 10, 40),
      span(6, 5, StageKind::kCache, 22, 30),
      span(4, 3, StageKind::kDisk, 50, 80),
      span(8, 7, StageKind::kNetReq, 41, 45),
      span(9, 7, StageKind::kService, 45, 60, 0, kSpanAbandoned),
      span(5, 0, StageKind::kOp, 20, 35, 2),
      span(3, 1, StageKind::kSegment, 30, 90),
      span(1, 0, StageKind::kOp, 0, 100, 1),
      span(7, 0, StageKind::kOp, 40, 70, 1),
  };
}

TEST(CriticalPathFold, InterleavedTreesMatchBatchAndTileTheWorkedExample) {
  const auto stream = interleaved_stream();
  const CriticalPathFold f = fold_all(stream);
  EXPECT_EQ(f.report(), critical_path(stream));
  EXPECT_EQ(f.pending_spans(), 0u);
  EXPECT_EQ(f.report().roots, 3u);
  EXPECT_EQ(f.report().spans, stream.size());
  expect_exact(f.report());

  // Op class 1 holds trees 1 and 7.  Tree 1: the segment owns [30,90) minus
  // the disk's [50,80), the meta keeps [10,30) where it is the latest work,
  // and the op keeps [0,10) and [90,100).  Tree 7: net-req [41,45), service
  // [45,60), op the rest of [40,70).
  const auto& row = f.report().rows[1];
  EXPECT_EQ(row.ops, 2u);
  EXPECT_EQ(row.total_latency, 130);
  EXPECT_EQ(row.exclusive[stage(StageKind::kOp)], 20 + 11);
  EXPECT_EQ(row.exclusive[stage(StageKind::kMeta)], 20);
  EXPECT_EQ(row.exclusive[stage(StageKind::kSegment)], 30);
  EXPECT_EQ(row.exclusive[stage(StageKind::kDisk)], 30);
  EXPECT_EQ(row.exclusive[stage(StageKind::kNetReq)], 4);
  EXPECT_EQ(row.exclusive[stage(StageKind::kService)], 15);
  EXPECT_EQ(row.abandoned, 1u);
  EXPECT_EQ(f.report().rows[2].exclusive[stage(StageKind::kCache)], 8);
}

TEST(CriticalPathFold, AbandonedSubtreeIsCountedAndStillTiled) {
  // A timed-out attempt force-closed with its children, then a retry.
  const std::vector<SpanEvent> stream = {
      span(4, 3, StageKind::kNetReq, 5, 20, 0, kSpanAbandoned),
      span(5, 3, StageKind::kDisk, 20, 30, 0, kSpanAbandoned),
      span(3, 2, StageKind::kAttempt, 5, 30, 0, kSpanAbandoned),
      span(6, 2, StageKind::kBackoff, 30, 40),
      span(8, 7, StageKind::kDisk, 45, 60),
      span(7, 2, StageKind::kAttempt, 40, 70),
      span(2, 1, StageKind::kSegment, 5, 70),
      span(1, 0, StageKind::kOp, 0, 80, 3),
  };
  const CriticalPathFold f = fold_all(stream);
  EXPECT_EQ(f.report(), critical_path(stream));
  const auto& row = f.report().rows[3];
  EXPECT_EQ(row.abandoned, 3u);
  EXPECT_EQ(row.spans[stage(StageKind::kAttempt)], 2u);
  EXPECT_EQ(row.exclusive[stage(StageKind::kNetReq)], 15);
  EXPECT_EQ(row.exclusive[stage(StageKind::kBackoff)], 10);
  expect_exact(f.report());
  EXPECT_EQ(f.pending_spans(), 0u);
}

TEST(CriticalPathFold, ChildlessRootOwnsItsWholeLatency) {
  const std::vector<SpanEvent> stream = {span(1, 0, StageKind::kOp, 7, 19, 4)};
  const CriticalPathFold f = fold_all(stream);
  EXPECT_EQ(f.report(), critical_path(stream));
  const auto& row = f.report().rows[4];
  EXPECT_EQ(row.ops, 1u);
  EXPECT_EQ(row.exclusive[stage(StageKind::kOp)], 12);
  EXPECT_EQ(row.spans[stage(StageKind::kOp)], 1u);
  EXPECT_EQ(f.report().spans, 1u);
  EXPECT_EQ(f.pending_spans(), 0u);
}

TEST(CriticalPathFold, OrphanStaysPendingAndUnfoldedLikeBatchIgnoresIt) {
  // Spans 11 and 12 hang under span 10, which never closes; batch ignores
  // them, and the fold keeps them pending without folding anything.
  std::vector<SpanEvent> stream = {
      span(12, 11, StageKind::kDisk, 3, 4),
      span(2, 1, StageKind::kMeta, 1, 2),
      span(11, 10, StageKind::kSegment, 2, 5),
      span(1, 0, StageKind::kOp, 0, 6),
  };
  const CriticalPathFold f = fold_all(stream);
  EXPECT_EQ(f.report(), critical_path(stream));
  EXPECT_EQ(f.report().roots, 1u);
  EXPECT_EQ(f.report().spans, 2u);
  EXPECT_EQ(f.pending_spans(), 2u);
}

TEST(CriticalPathFold, MergeOfTwoPartialFoldsEqualsOneFold) {
  const auto stream = interleaved_stream();
  // `a` sees the first five spans and `b` tree 1's segment, all children.
  // After the merge, feeding `a` the three roots gives the report of one
  // fold over the whole stream.
  CriticalPathFold a;
  for (std::size_t i = 0; i < 5; ++i) a.on_span(stream[i]);
  EXPECT_EQ(a.pending_spans(), 5u);
  EXPECT_EQ(a.report().roots, 0u);

  CriticalPathFold b;
  b.on_span(stream[6]);  // tree 1's segment, pending in b
  EXPECT_EQ(b.pending_spans(), 1u);
  a.merge(b);
  EXPECT_EQ(a.pending_spans(), 6u);
  for (std::size_t i : {5u, 7u, 8u}) a.on_span(stream[i]);
  EXPECT_EQ(a.report(), critical_path(stream));
  EXPECT_EQ(a.pending_spans(), 0u);

  // Two complete folds merge to the sum of their reports.
  const std::vector<SpanEvent> right = {span(1, 0, StageKind::kOp, 0, 9, 5)};
  CriticalPathFold l = fold_all(stream);
  l.merge(fold_all(right));
  CriticalPathReport want = critical_path(stream);
  want.merge(critical_path(right));
  EXPECT_EQ(l.report(), want);
}

/// A seeded stream of valid span trees, emitted the way the tracer emits
/// them: ids dense in open order, each span emitted at its close, and a
/// span closes only after all its children.  At most `max_roots` ops are in
/// flight and each tree grows to at most `max_spans` spans.  Zero-length
/// steps produce tied end times, so sibling tie-breaks are exercised.
std::vector<SpanEvent> random_stream(std::uint64_t seed, int trees, int max_roots,
                                     int max_spans) {
  struct Open {
    SpanEvent ev;
    std::uint32_t root = 0;
    int open_children = 0;
  };
  sim::Rng rng(seed);
  std::vector<SpanEvent> emitted;
  std::vector<Open> open;
  std::vector<int> tree_size(1, 0);  // by root id; grown as ids are assigned
  std::uint32_t next_id = 1;
  sim::Tick now = 0;
  int started = 0;
  int closed = 0;
  int in_flight = 0;
  while (closed < trees) {
    now += rng.uniform_int(0, 3);
    const bool can_start = started < trees && in_flight < max_roots;
    if (can_start && (open.empty() || rng.bernoulli(0.15))) {
      Open o;
      o.ev = span(next_id, 0, StageKind::kOp, now, now, rng.uniform_int(0, kOpClassSlots - 1));
      o.root = next_id;
      tree_size.resize(next_id + 1, 0);
      tree_size[next_id] = 1;
      open.push_back(o);
      ++next_id;
      ++started;
      ++in_flight;
      continue;
    }
    if (rng.bernoulli(0.55)) {
      Open& p = open[rng.uniform_int(0, static_cast<std::int64_t>(open.size()) - 1)];
      if (tree_size[p.root] < max_spans) {
        Open o;
        const auto st = static_cast<StageKind>(rng.uniform_int(1, kStageKindCount - 1));
        o.ev = span(next_id, p.ev.span, st, now, now);
        o.root = p.root;
        ++tree_size[p.root];
        ++p.open_children;
        tree_size.resize(next_id + 1, 0);
        open.push_back(o);
        ++next_id;
        continue;
      }
    }
    // Close a random open span that has no open children.
    std::vector<std::size_t> leaves;
    for (std::size_t i = 0; i < open.size(); ++i) {
      if (open[i].open_children == 0) leaves.push_back(i);
    }
    const std::size_t k = leaves[rng.uniform_int(0, static_cast<std::int64_t>(leaves.size()) - 1)];
    SpanEvent ev = open[k].ev;
    ev.duration = now - ev.start;
    if (rng.bernoulli(0.05)) ev.flags = kSpanAbandoned;
    emitted.push_back(ev);
    if (ev.parent == 0) {
      ++closed;
      --in_flight;
    } else {
      for (Open& o : open) {
        if (o.ev.span == ev.parent) --o.open_children;
      }
    }
    open.erase(open.begin() + static_cast<std::ptrdiff_t>(k));
  }
  return emitted;
}

TEST(CriticalPathFold, SeededRandomStreamsFoldExactlyLikeBatch) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto stream = random_stream(seed, 1200, 8, 14);
    const CriticalPathFold f = fold_all(stream);
    const CriticalPathReport batch = critical_path(stream);
    EXPECT_EQ(f.report(), batch) << "seed " << seed;
    EXPECT_EQ(f.report().roots, 1200u);
    EXPECT_EQ(f.report().spans, stream.size());
    EXPECT_EQ(f.pending_spans(), 0u);
    expect_exact(f.report());
  }
}

TEST(CriticalPathFold, RetainedBytesFollowInFlightSpansNotRunLength) {
  // The same interleaved three-tree pattern, replayed with fresh ids, keeps
  // the same spans in flight however often it repeats.
  auto replay = [](int reps) {
    CriticalPathFold f;
    const auto pattern = interleaved_stream();
    for (int r = 0; r < reps; ++r) {
      for (SpanEvent s : pattern) {
        const auto base = static_cast<std::uint32_t>(r * 16);
        s.span += base;
        if (s.parent != 0) s.parent += base;
        f.on_span(s);
      }
    }
    EXPECT_EQ(f.pending_spans(), 0u);
    return f.bytes_retained();
  };
  const std::size_t short_run = replay(10);
  EXPECT_GT(short_run, 0u);
  EXPECT_EQ(replay(1000), short_run);
}

}  // namespace
}  // namespace sio::obs
