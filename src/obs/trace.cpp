#include "obs/trace.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

namespace sio::obs {

std::uint32_t Tracer::open(std::uint32_t parent, StageKind stage,
                           std::uint64_t op_id, std::int32_t node,
                           std::int32_t target, std::uint64_t bytes,
                           std::uint64_t info) {
  if (parent != 0 && open_.find(parent) == nullptr) return 0;
  std::uint32_t id = next_id_++;
  open_.insert(id, OpenSpan{.start = engine_.now(),
                            .op_id = op_id,
                            .parent = parent,
                            .stage = stage,
                            .node = node,
                            .target = target,
                            .bytes = bytes,
                            .info = info});
  return id;
}

void Tracer::close(std::uint32_t id) {
  const OpenSpan* s = open_.find(id);
  if (s == nullptr) return;
  emit(id, *s, 0);
  open_.erase(id);
}

void Tracer::abandon(std::uint32_t id) {
  if (open_.find(id) == nullptr) return;
  // Descendants always have larger ids than their ancestor.  Visiting the
  // larger open ids in ascending order reaches every parent before its
  // children, so one pass with a membership test on the (ascending) doomed
  // list finds the whole open subtree.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> later;  // (id, parent)
  open_.for_each([&](std::uint32_t k, const OpenSpan& s) {
    if (k > id) later.emplace_back(k, s.parent);
  });
  std::sort(later.begin(), later.end());
  std::vector<std::uint32_t> doomed{id};
  for (const auto& [k, parent] : later) {
    if (std::binary_search(doomed.begin(), doomed.end(), parent)) doomed.push_back(k);
  }
  force_close(doomed);
}

void Tracer::finish() {
  std::vector<std::uint32_t> ids;
  ids.reserve(open_.size());
  open_.for_each([&](std::uint32_t k, const OpenSpan&) { ids.push_back(k); });
  std::sort(ids.begin(), ids.end());
  force_close(ids);
}

void Tracer::force_close(const std::vector<std::uint32_t>& ids) {
  // Larger ids are deeper, so descending order emits children before their
  // parents just like a normal unwind.
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    emit(*it, *open_.find(*it), kSpanAbandoned);
    open_.erase(*it);
  }
}

void Tracer::emit(std::uint32_t id, const OpenSpan& s, std::uint64_t flags) {
  sim::Tick now = engine_.now();
  sink_.on_span(SpanEvent{.start = s.start,
                          .duration = now > s.start ? now - s.start : 0,
                          .op_id = s.op_id,
                          .span = id,
                          .parent = s.parent,
                          .stage = s.stage,
                          .node = s.node,
                          .target = s.target,
                          .bytes = s.bytes,
                          .flags = flags,
                          .info = s.info});
  ++emitted_;
}

void Tracer::set_bytes(std::uint32_t id, std::uint64_t bytes) {
  if (OpenSpan* s = open_.find(id)) s->bytes = bytes;
}

void Tracer::set_op_id(std::uint32_t id, std::uint64_t op_id) {
  if (OpenSpan* s = open_.find(id)) s->op_id = op_id;
}

void Tracer::set_info(std::uint32_t id, std::uint64_t info) {
  if (OpenSpan* s = open_.find(id)) s->info = info;
}

}  // namespace sio::obs
