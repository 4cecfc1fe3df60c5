#include "mc/explorer.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "mc/fingerprint.hpp"
#include "sim/assert.hpp"

namespace sio::mc {

namespace {
constexpr std::size_t kMaxFailuresKept = 8;
}  // namespace

Explorer::Explorer(ScenarioFactory factory, ExploreOptions opt)
    : factory_(std::move(factory)), opt_(opt) {}

void Explorer::trim_trailing_zeros(Schedule& s) {
  while (!s.choices.empty() && s.choices.back() == 0) s.choices.pop_back();
}

RunRecord Explorer::run(const RunOptions& ropt) {
  std::unique_ptr<Scenario> scenario = factory_();
  sim::Engine& engine = scenario->engine();
  Controller::Options copt;
  copt.prefix = ropt.prefix;
  copt.random_tail = ropt.random_tail;
  copt.seed = ropt.seed;
  copt.max_decisions = opt_.max_decisions;
  Controller ctl(engine, std::move(copt));

  RunRecord rec;
  ctl.on_step = [&scenario] { scenario->check(); };
  if (ropt.allow_prune) {
    ctl.should_prune = [this, &scenario, &engine](std::size_t branch_index) {
      const std::uint64_t state = scenario->fingerprint();
      if (state == 0) return false;  // scenario opted out
      Fingerprint fp;
      fp.mix(state);
      fp.mix_signed(engine.now());
      fp.mix(engine.live_tasks());
      // Keyed per branch depth: two *different* schedules converging on the
      // same state at the same depth share their continuation.  Without the
      // depth a run whose early dispatches do not move the observable state
      // would collide with its own earlier branch points and prune itself.
      fp.mix(branch_index);
      return !visited_.insert(fp.value()).second;
    };
  }

  scenario->start(ctl);
  try {
    engine.run();
    scenario->check();
    scenario->finish();
  } catch (const PrunedRun&) {
    rec.pruned = true;
  } catch (const ScheduleDivergedError& e) {
    rec.diverged = true;
    rec.message = e.what();
  } catch (const DecisionBudgetError& e) {
    // A run that never drains its decision budget is a livelock suspect.
    rec.violation = true;
    rec.message = e.what();
  } catch (const InvariantViolation& e) {
    rec.violation = true;
    rec.message = e.what();
  } catch (const sim::AssertionError& e) {
    // Covers the SIO_SIM_CHECKS sanitizers (schedule-past, double-resume,
    // deadlock) and internal engine invariants.
    rec.violation = true;
    rec.message = std::string("sanitizer: ") + e.what();
  } catch (const std::exception& e) {
    rec.violation = true;
    rec.message = std::string("exception: ") + e.what();
  }

  rec.schedule = ctl.schedule();
  rec.arities = ctl.arities();
  rec.events = engine.events_processed();
  rec.decisions = ctl.decisions();

  Fingerprint th;
  for (const Decision& d : ctl.trace()) {
    th.mix_signed(d.at);
    th.mix(d.arity);
    th.mix(d.chosen);
    th.mix(static_cast<std::uint64_t>(d.kind));
  }
  th.mix(rec.events);
  th.mix(static_cast<std::uint64_t>(rec.violation));
  th.mix(static_cast<std::uint64_t>(rec.pruned));
  for (const char c : rec.message) th.mix(static_cast<std::uint64_t>(c));
  rec.trace_hash = th.value();
  return rec;
}

ExploreResult Explorer::explore() {
  ExploreResult res;
  visited_.clear();
  Schedule prefix;
  for (;;) {
    if (opt_.max_runs != 0 && res.runs >= opt_.max_runs) break;
    RunOptions ropt;
    ropt.prefix = prefix;
    ropt.allow_prune = opt_.prune;
    RunRecord rec = run(ropt);
    ++res.runs;
    res.total_events += rec.events;
    if (rec.pruned) {
      ++res.pruned;
    } else {
      ++res.complete;
    }
    if (rec.violation) {
      ++res.violations;
      ++res.diagnostics[rec.message];
      if (res.failures.size() < kMaxFailuresKept) res.failures.push_back(rec);
    }
    res.max_branch_depth = std::max(res.max_branch_depth, rec.schedule.choices.size());
    if (rec.violation && opt_.stop_at_first_violation) break;

    // Backtrack: rightmost branch point with an untried sibling.  A
    // diverged replay cannot happen here (prefixes come from recorded
    // arities), but guard the walk against an empty trace anyway.
    const std::vector<std::uint32_t>& chosen = rec.schedule.choices;
    const std::vector<std::uint32_t>& arity = rec.arities;
    SIO_ASSERT(chosen.size() == arity.size());
    std::size_t i = chosen.size();
    while (i > 0 && chosen[i - 1] + 1 >= arity[i - 1]) --i;
    if (i == 0) {
      res.exhausted = true;
      break;
    }
    prefix.choices.assign(chosen.begin(), chosen.begin() + static_cast<std::ptrdiff_t>(i));
    prefix.choices[i - 1] += 1;
  }
  res.distinct = res.runs;
  return res;
}

ExploreResult Explorer::sample(std::uint64_t runs, std::uint64_t seed) {
  ExploreResult res;
  std::set<std::string> seen;
  for (std::uint64_t i = 0; i < runs; ++i) {
    RunOptions ropt;
    ropt.random_tail = true;
    ropt.seed = seed + i;
    RunRecord rec = run(ropt);
    ++res.runs;
    ++res.complete;
    res.total_events += rec.events;
    if (rec.violation) {
      ++res.violations;
      ++res.diagnostics[rec.message];
      if (res.failures.size() < kMaxFailuresKept) res.failures.push_back(rec);
    }
    res.max_branch_depth = std::max(res.max_branch_depth, rec.schedule.choices.size());
    seen.insert(rec.schedule.to_string());
  }
  res.distinct = seen.size();
  return res;
}

RunRecord Explorer::replay(const Schedule& s) {
  RunOptions ropt;
  ropt.prefix = s;
  return run(ropt);
}

Schedule Explorer::minimize(const Schedule& bad) {
  const auto violates = [this](const Schedule& s) { return replay(s).violation; };

  Schedule cur = bad;
  trim_trailing_zeros(cur);
  if (!violates(cur)) return bad;  // does not reproduce; nothing to shrink

  bool changed = true;
  while (changed) {
    changed = false;

    // Greedy tail truncation: trailing choices reduced to the default tail.
    while (!cur.choices.empty()) {
      Schedule t = cur;
      t.choices.pop_back();
      trim_trailing_zeros(t);
      if (!violates(t)) break;
      cur = std::move(t);
      changed = true;
    }

    // ddmin-style chunk zeroing over the non-default positions: restore
    // whole chunks of choices to 0 (the FIFO default) at shrinking
    // granularity; any chunk that still violates is removed for good.
    std::vector<std::size_t> nz;
    for (std::size_t i = 0; i < cur.choices.size(); ++i) {
      if (cur.choices[i] != 0) nz.push_back(i);
    }
    bool zeroed = false;
    for (std::size_t chunk = nz.size(); chunk >= 1 && !nz.empty() && !zeroed; chunk /= 2) {
      for (std::size_t s0 = 0; s0 < nz.size(); s0 += chunk) {
        Schedule t = cur;
        const std::size_t end = std::min(s0 + chunk, nz.size());
        for (std::size_t j = s0; j < end; ++j) t.choices[nz[j]] = 0;
        trim_trailing_zeros(t);
        if (t == cur) continue;
        if (violates(t)) {
          cur = std::move(t);
          changed = true;
          zeroed = true;
          break;
        }
      }
      if (chunk == 1) break;
    }
    if (zeroed) continue;  // recompute the non-zero set from scratch

    // Value lowering: each surviving non-default choice tries every smaller
    // index (closer to the FIFO default), smallest first.
    for (std::size_t i = 0; i < cur.choices.size() && !changed; ++i) {
      for (std::uint32_t v = 1; v < cur.choices[i] && !changed; ++v) {
        Schedule t = cur;
        t.choices[i] = v;
        if (violates(t)) {
          cur = std::move(t);
          changed = true;
        }
      }
    }
  }
  return cur;
}

bool Explorer::replays_identically(const Schedule& s, RunRecord* out) {
  RunRecord a = replay(s);
  RunRecord b = replay(s);
  const bool same = a.trace_hash == b.trace_hash && a.message == b.message &&
                    a.schedule == b.schedule && a.arities == b.arities &&
                    a.events == b.events && a.violation == b.violation;
  if (same && out != nullptr) *out = std::move(a);
  return same;
}

}  // namespace sio::mc
