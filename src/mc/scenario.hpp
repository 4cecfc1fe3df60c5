// Scenario interface: a small, self-contained protocol configuration the
// model checker can rebuild from scratch for every explored interleaving.
//
// A scenario owns everything about one run — the engine, the protocol
// objects under test and the tasks that drive them — and exposes the things
// the explorer needs: the engine to control, invariants to check on every
// step, end-of-run invariants, and an observable-state fingerprint for
// convergence pruning.  Owning the engine lets a scenario build a whole
// hw::Machine (which carries its own engine) and run the shipped file
// system on it.  Scenarios must be deterministic given the controller's
// decisions: no wall clock, no unseeded randomness, no iteration over
// address-keyed containers.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>

#include "mc/controller.hpp"
#include "sim/engine.hpp"

namespace sio::mc {

/// A protocol invariant failed on some interleaving.  The message should
/// say which invariant and in what state; the schedule that provoked it is
/// attached by the explorer.
class InvariantViolation : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Scenario {
 public:
  virtual ~Scenario() = default;

  /// The fresh engine this run executes on; the explorer installs its
  /// controller there.  Lives as long as the scenario.
  virtual sim::Engine& engine() = 0;

  /// Spawns the scenario's tasks on engine().  `ctl` outlives the run; tasks
  /// may capture it and call ctl.choose() to surface fault/timeout placement
  /// as decision points.
  virtual void start(Controller& ctl) = 0;

  /// Step invariants, evaluated after every dispatched event.  Throw
  /// InvariantViolation on failure.  Being the per-dispatch hook, it is
  /// also where a scenario fires faults placed by dispatch count.
  virtual void check() {}

  /// End-of-run invariants (all tasks finished, effects exactly once, ...).
  /// Runs only when the engine drained without a violation.
  virtual void finish() {}

  /// Hash of the observable protocol state, used for convergence pruning:
  /// interleavings reaching the same fingerprint share their continuation
  /// and are explored once.  Must cover everything that influences future
  /// behavior (per-task progress, queue contents, protocol state) or
  /// pruning may hide states; return 0 to opt out.
  virtual std::uint64_t fingerprint() const { return 0; }
};

using ScenarioFactory = std::function<std::unique_ptr<Scenario>()>;

}  // namespace sio::mc
