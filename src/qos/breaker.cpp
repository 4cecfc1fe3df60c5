#include "qos/breaker.hpp"

#include <algorithm>

namespace sio::qos {

void CircuitBreaker::record(pablo::QosKind kind, int node, std::uint64_t info) {
  if (collector_ == nullptr) return;
  pablo::QosEvent ev;
  ev.at = engine_.now();
  ev.kind = kind;
  ev.node = node;
  ev.target = id_;
  ev.info = info;
  collector_->record(ev);
}

void CircuitBreaker::push_outcome(bool failure) {
  window_.push_back(failure);
  if (failure) ++window_failures_;
  while (window_.size() > static_cast<std::size_t>(std::max(cfg_.breaker_window, 1))) {
    if (window_.front()) --window_failures_;
    window_.pop_front();
  }
}

bool CircuitBreaker::should_trip() const {
  if (window_.size() < static_cast<std::size_t>(std::max(cfg_.breaker_min_samples, 1))) {
    return false;
  }
  const double ratio =
      static_cast<double>(window_failures_) / static_cast<double>(window_.size());
  return ratio >= cfg_.breaker_trip_ratio;
}

void CircuitBreaker::trip(int node) {
  state_ = BreakerState::kOpen;
  open_until_ = engine_.now() + std::max<sim::Tick>(cfg_.breaker_open_for, 1);
  ++opens_;
  record(pablo::QosKind::kBreakerOpen, node,
         static_cast<std::uint64_t>(cfg_.breaker_open_for));
}

void CircuitBreaker::advance(int node) {
  if (state_ == BreakerState::kOpen && engine_.now() >= open_until_) {
    state_ = BreakerState::kHalfOpen;
    probes_left_ = std::max(cfg_.breaker_halfopen_probes, 1);
    record(pablo::QosKind::kBreakerHalfOpen, node,
           static_cast<std::uint64_t>(probes_left_));
  }
}

bool CircuitBreaker::allow_attempt(int node) {
  advance(node);
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      return false;
    case BreakerState::kHalfOpen:
      if (probes_left_ > 0) {
        --probes_left_;
        ++probes_;
        record(pablo::QosKind::kBreakerProbe, node,
               static_cast<std::uint64_t>(probes_left_));
        return true;
      }
      return false;
  }
  return true;
}

void CircuitBreaker::on_success(int node) {
  advance(node);
  push_outcome(false);
  if (state_ == BreakerState::kHalfOpen) {
    // The probe came back: the node recovered.  Forget the sick window so
    // one stale failure cannot re-trip the fresh circuit.
    state_ = BreakerState::kClosed;
    window_.clear();
    window_failures_ = 0;
    ++closes_;
    record(pablo::QosKind::kBreakerClose, node, 0);
  }
}

void CircuitBreaker::on_failure(int node) {
  advance(node);
  push_outcome(true);
  if (state_ == BreakerState::kHalfOpen) {
    trip(node);
  } else if (state_ == BreakerState::kClosed && should_trip()) {
    trip(node);
  }
}

sim::Tick CircuitBreaker::wait_hint() const {
  const sim::Tick now = engine_.now();
  if (state_ == BreakerState::kOpen && open_until_ > now) {
    return open_until_ - now;
  }
  return sim::milliseconds(1);
}

}  // namespace sio::qos
