#include "obs/critical_path.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>

#include "sim/assert.hpp"

namespace sio::obs {
namespace {

constexpr std::size_t stage_index(StageKind k) { return static_cast<std::size_t>(k); }

/// Orders a tree's non-root spans by parent, then latest-end-first (ties to
/// the larger id, i.e. the later-opened sibling), so each span's children
/// form one contiguous run in the order the walk visits them.
bool child_before(const SpanEvent* a, const SpanEvent* b) {
  if (a->parent != b->parent) return a->parent < b->parent;
  if (a->end() != b->end()) return a->end() > b->end();
  return a->span > b->span;
}

/// Attributes every tick of `[lo, hi)` to exactly one stage.  The child that
/// ends latest owns the tail of the window it covers; whatever no child
/// covers stays with `n`'s own stage.  `members` is sorted by child_before.
void tile(const SpanEvent& n, sim::Tick lo, sim::Tick hi,
          const std::vector<const SpanEvent*>& members,
          std::array<sim::Tick, kStageKindCount>& acc) {
  sim::Tick t = hi;
  auto it = std::lower_bound(members.begin(), members.end(), n.span,
                             [](const SpanEvent* c, std::uint32_t p) { return c->parent < p; });
  for (; it != members.end() && (*it)->parent == n.span; ++it) {
    const SpanEvent* c = *it;
    sim::Tick ce = std::min(c->end(), t);
    sim::Tick cs = std::max(c->start, lo);
    if (ce <= cs) continue;
    acc[stage_index(n.stage)] += t - ce;
    tile(*c, cs, ce, members, acc);
    t = cs;
    if (t <= lo) break;
  }
  if (t > lo) acc[stage_index(n.stage)] += t - lo;
}

/// Folds one tree: `root` plus every other span of it, in any order.
void fold_tree(CriticalPathReport& report, const SpanEvent& root,
               std::vector<const SpanEvent*>& members) {
  std::sort(members.begin(), members.end(), child_before);
  auto& row = report.rows[root.info % kOpClassSlots];
  row.ops += 1;
  row.total_latency += root.duration;
  row.spans[stage_index(root.stage)] += 1;
  if (root.abandoned()) row.abandoned += 1;
  for (const SpanEvent* m : members) {
    row.spans[stage_index(m->stage)] += 1;
    if (m->abandoned()) row.abandoned += 1;
  }
  tile(root, root.start, root.end(), members, row.exclusive);
  report.roots += 1;
  report.spans += 1 + members.size();
}

}  // namespace

sim::Tick CriticalPathReport::Row::exclusive_sum() const {
  sim::Tick sum = 0;
  for (sim::Tick t : exclusive) sum += t;
  return sum;
}

void CriticalPathReport::merge(const CriticalPathReport& o) {
  for (int c = 0; c < kOpClassSlots; ++c) {
    rows[c].ops += o.rows[c].ops;
    rows[c].abandoned += o.rows[c].abandoned;
    rows[c].total_latency += o.rows[c].total_latency;
    for (int s = 0; s < kStageKindCount; ++s) {
      rows[c].exclusive[s] += o.rows[c].exclusive[s];
      rows[c].spans[s] += o.rows[c].spans[s];
    }
  }
  roots += o.roots;
  spans += o.spans;
}

std::uint64_t CriticalPathReport::fingerprint() const {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(roots);
  mix(spans);
  for (const Row& row : rows) {
    mix(row.ops);
    mix(row.abandoned);
    mix(static_cast<std::uint64_t>(row.total_latency));
    for (sim::Tick t : row.exclusive) mix(static_cast<std::uint64_t>(t));
    for (std::uint64_t n : row.spans) mix(n);
  }
  return h;
}

void CriticalPathFold::on_span(const SpanEvent& ev) {
  if (ev.parent != 0) {
    add_pending(ev);
    return;
  }
  // A root closed.  Every descendant closed before it, so the whole tree
  // hangs off the buckets below the root: walking them breadth-first visits
  // exactly this tree and nothing of the other in-flight ops.  Taken slots
  // go straight back on the free list; nothing reuses them before the fold
  // below has read them.
  tree_.clear();
  auto take_children = [this](std::uint32_t parent) {
    const std::uint32_t* head = children_.find(parent);
    if (head == nullptr) return;
    for (std::uint32_t i = *head; i != kNone;) {
      Pending& p = pool_[i];
      tree_.push_back(&p.ev);
      const std::uint32_t next = p.next;
      p.next = free_;
      free_ = i;
      i = next;
    }
    children_.erase(parent);
  };
  take_children(ev.span);
  for (std::size_t k = 0; k < tree_.size(); ++k) take_children(tree_[k]->span);
  pending_ -= tree_.size();
  fold_tree(report_, ev, tree_);
}

void CriticalPathFold::add_pending(const SpanEvent& ev) {
  std::uint32_t i = free_;
  if (i != kNone) {
    free_ = pool_[i].next;
    pool_[i].ev = ev;
  } else {
    i = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(Pending{ev, kNone});
  }
  if (std::uint32_t* head = children_.find(ev.parent)) {
    pool_[i].next = *head;
    *head = i;
  } else {
    pool_[i].next = kNone;
    children_.insert(ev.parent, i);
  }
  ++pending_;
}

std::size_t CriticalPathFold::bytes_retained() const {
  return pool_.capacity() * sizeof(Pending) + children_.bytes_retained() +
         tree_.capacity() * sizeof(const SpanEvent*);
}

void CriticalPathFold::merge(const CriticalPathFold& o) {
  SIO_ASSERT(&o != this);
  report_.merge(o.report_);
  o.children_.for_each([&](std::uint32_t, std::uint32_t head) {
    for (std::uint32_t i = head; i != kNone; i = o.pool_[i].next) add_pending(o.pool_[i].ev);
  });
}

CriticalPathReport critical_path(const std::vector<SpanEvent>& spans) {
  CriticalPathReport report;
  std::map<std::uint32_t, const SpanEvent*> by_id;
  for (const SpanEvent& ev : spans) by_id.emplace(ev.span, &ev);
  // Resolve each span to its root (if reachable) so trees fold in root-id
  // order regardless of input order.
  std::map<std::uint32_t, std::vector<const SpanEvent*>> tree_members;
  for (const SpanEvent& ev : spans) {
    if (ev.parent == 0) {
      tree_members[ev.span];  // ensure even childless roots fold
      continue;
    }
    std::uint32_t p = ev.parent;
    while (true) {
      auto it = by_id.find(p);
      if (it == by_id.end()) break;  // orphan: parent never closed
      if (it->second->parent == 0) {
        tree_members[p].push_back(&ev);
        break;
      }
      p = it->second->parent;
    }
  }
  for (auto& [root_id, members] : tree_members) fold_tree(report, *by_id.at(root_id), members);
  return report;
}

std::string render_critical_path(const CriticalPathReport& report,
                                 std::string_view (*class_name)(int)) {
  std::string out;
  out += "critical-path attribution (exclusive ticks per stage)\n";
  if (report.empty()) {
    out += "  (no spans captured)\n";
    return out;
  }
  char buf[160];
  for (int c = 0; c < kOpClassSlots; ++c) {
    const auto& row = report.rows[c];
    if (row.ops == 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "  %-10s ops=%" PRIu64 " latency=%" PRId64 " abandoned=%" PRIu64 "\n",
                  std::string(class_name(c)).c_str(), row.ops,
                  static_cast<std::int64_t>(row.total_latency), row.abandoned);
    out += buf;
    // Stages sorted by exclusive time, largest first (ties by stage order).
    std::array<int, kStageKindCount> order{};
    for (int s = 0; s < kStageKindCount; ++s) order[s] = s;
    std::sort(order.begin(), order.end(), [&row](int a, int b) {
      if (row.exclusive[a] != row.exclusive[b]) return row.exclusive[a] > row.exclusive[b];
      return a < b;
    });
    for (int s : order) {
      if (row.exclusive[s] == 0 && row.spans[s] == 0) continue;
      std::int64_t permille =
          row.total_latency > 0
              ? static_cast<std::int64_t>(row.exclusive[s]) * 1000 / row.total_latency
              : 0;
      std::snprintf(buf, sizeof(buf),
                    "    %-9s %14" PRId64 "  %3" PRId64 ".%01" PRId64 "%%  spans=%" PRIu64 "\n",
                    std::string(stage_name(static_cast<StageKind>(s))).c_str(),
                    static_cast<std::int64_t>(row.exclusive[s]), permille / 10,
                    permille % 10, row.spans[s]);
      out += buf;
    }
  }
  return out;
}

}  // namespace sio::obs
