#include "qos/qos.hpp"

#include <algorithm>

#include "sim/assert.hpp"

namespace sio::qos {

void ServerQos::record(pablo::QosKind kind, int node, std::uint64_t info, std::uint64_t op_id) {
  if (collector_ == nullptr) return;
  pablo::QosEvent ev;
  ev.at = engine_.now();
  ev.op_id = op_id;
  ev.kind = kind;
  ev.node = node;
  ev.target = id_;
  ev.info = info;
  collector_->record(ev);
}

void ServerQos::note_pending() {
  max_pending_ = std::max(max_pending_, occupancy_ + waiting_);
}

sim::Tick ServerQos::scaled(sim::Tick cost) const {
  return static_cast<sim::Tick>(static_cast<double>(cost) * svc_ratio_);
}

sim::Tick ServerQos::drain_estimate(sim::Tick extra_cost) const {
  const auto slots = static_cast<sim::Tick>(std::max<std::size_t>(cfg_.service_slots, 1));
  // The observed in-service spread already includes the serialization of
  // concurrent slot-holders on the server's CPU/disk, so the scaled backlog
  // drains across the slots.
  return scaled(backlog_est_ + extra_cost) / slots;
}

sim::Tick ServerQos::issue_credit(int node, sim::Tick cost, std::uint64_t op_id) {
  // Credits come from a virtual slot clock: the first credit points just
  // past the estimated drain of the present backlog, and each further credit
  // is staggered one service-time behind the previous one so a storm's
  // re-arrivals come back paced instead of re-stampeding on one tick.
  const sim::Tick now = engine_.now();
  const auto slots = static_cast<sim::Tick>(std::max<std::size_t>(cfg_.service_slots, 1));
  next_credit_ = std::max(next_credit_, now + drain_estimate(0));
  next_credit_ += std::max<sim::Tick>(scaled(cost) / slots, 1);
  ++credits_;
  const sim::Tick after = next_credit_ - now;
  record(pablo::QosKind::kCredit, node, static_cast<std::uint64_t>(after), op_id);
  return after;
}

sim::Task<Admission> ServerQos::admit(int node, OpClass cls, sim::Tick cost,
                                      sim::Tick deadline_left, std::uint64_t op_id) {
  cost = std::max<sim::Tick>(cost, 1);

  // Fast path: a free slot and nobody waiting means serving is always the
  // right answer — shedding/rejection only make sense with a queue.
  if (occupancy_ < cfg_.service_slots && waiting_ == 0) {
    ++occupancy_;
    backlog_est_ += cost;
    note_pending();
    ++admitted_;
    record(pablo::QosKind::kAdmit, node, static_cast<std::uint64_t>(cost), op_id);
    co_return Admission{Verdict::kAdmitted, 0, engine_.now()};
  }

  const ClassKey key{static_cast<int>(cls), node};
  const auto it = classes_.find(key);
  const std::size_t depth = it == classes_.end() ? 0 : it->second.q.size();

  // Deadline-aware shedding: estimate *this op's* wait under DRR — it sits
  // behind `depth` ops of its own queue, its grant is about depth+1 full
  // rotations away, and each rotation spends roughly one op's service per
  // active queue through the serial service pipeline.  If that wait plus
  // its own service cannot fit in the caller's remaining deadline budget,
  // serving it would only produce a reply nobody waits for.
  if (cfg_.shed_enabled && deadline_left > 0) {
    const auto slots = static_cast<sim::Tick>(std::max<std::size_t>(cfg_.service_slots, 1));
    const std::size_t rivals = std::max<std::size_t>(active_.size() + (depth == 0 ? 1 : 0), 1);
    const sim::Tick wait_est = static_cast<sim::Tick>(depth + 1) *
                               static_cast<sim::Tick>(rivals) * scaled(cost) / slots;
    if (wait_est + scaled(cost) > deadline_left) {
      ++shed_;
      record(pablo::QosKind::kShed, node, static_cast<std::uint64_t>(cost), op_id);
      co_return Admission{Verdict::kShed, issue_credit(node, cost, op_id)};
    }
  }

  // Bounded admission, per (class, node) queue: a bound per *source* keeps
  // every client visible to the DRR (a global bound would let the first few
  // stampeders monopolize the parked population and re-create the very
  // starvation the fair queue exists to prevent).
  if (depth >= cfg_.queue_limit) {
    ++rejected_;
    record(pablo::QosKind::kReject, node, static_cast<std::uint64_t>(cost), op_id);
    co_return Admission{Verdict::kRejected, issue_credit(node, cost, op_id)};
  }

  backlog_est_ += cost;
  co_await enqueue(node, cls, cost);
  // pump() moved us into a service slot before resuming us.
  ++admitted_;
  record(pablo::QosKind::kAdmit, node, static_cast<std::uint64_t>(cost), op_id);
  co_return Admission{Verdict::kAdmitted, 0, engine_.now()};
}

void ServerQos::park(Waiter* w, int node, OpClass cls) {
  engine_.note_blocked(w->h, "ServerQos", "admission");
  const ClassKey key{static_cast<int>(cls), node};
  auto& cq = classes_[key];
  if (cq.q.empty()) active_.push_back(key);
  cq.q.push_back(w);
  ++waiting_;
  note_pending();
}

void ServerQos::release(sim::Tick cost, sim::Tick granted_at) {
  cost = std::max<sim::Tick>(cost, 1);
  SIO_ASSERT(occupancy_ > 0);
  --occupancy_;
  backlog_est_ -= std::min(backlog_est_, cost);
  // Learn the server's actual service regime: the grant→release spread over
  // the static estimate, EWMA-smoothed and clamped so one outlier (or a
  // pathological estimate) cannot swing admission open or shut.
  const auto elapsed = static_cast<double>(std::max<sim::Tick>(engine_.now() - granted_at, 1));
  const double ratio = std::clamp(elapsed / static_cast<double>(cost), 0.125, 16.0);
  svc_ratio_ += (ratio - svc_ratio_) / 8.0;
  pump();
}

void ServerQos::pump() {
  // Deficit round robin over the active (class, node) queues: the head
  // queue's deficit grows by one quantum per visit and pays for ops at their
  // estimated cost, so a queue of cheap metadata ops and a queue of
  // expensive data ops drain at matched service-time rates, and no nonempty
  // queue waits more than one full rotation.
  while (occupancy_ < cfg_.service_slots && waiting_ > 0) {
    const ClassKey key = active_.front();
    auto it = classes_.find(key);
    SIO_ASSERT(it != classes_.end() && !it->second.q.empty());
    auto& cq = it->second;
    cq.deficit += cfg_.drr_quantum;

    while (!cq.q.empty() && occupancy_ < cfg_.service_slots &&
           cq.deficit >= cq.q.front()->cost) {
      Waiter* w = cq.q.front();
      cq.q.pop_front();
      cq.deficit -= w->cost;
      --waiting_;
      ++occupancy_;
      engine_.post(w->h);
    }

    active_.pop_front();
    if (cq.q.empty()) {
      cq.deficit = 0;
    } else {
      active_.push_back(key);
    }
  }
}

}  // namespace sio::qos
