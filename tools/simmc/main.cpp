// simmc — systematic interleaving exploration for the PFS protocols.
//
// Drives the src/mc model checker from the command line over the bundled
// scenario registry (small configurations of the shipped protocols: the
// metadata token server, circuit breaker and QoS front door on a bare
// engine, and retry replay, the write-ahead journal and integrity repair in
// a real Pfs):
//
//   simmc list                          registered scenarios
//   simmc explore <scenario> [opts]     exhaustive DFS over the choice tree
//   simmc sample <scenario> [opts]      seeded random schedule sampling
//   simmc replay <scenario> <sched>     re-run one schedule string exactly
//   simmc minimize <scenario> <sched>   shrink a violating schedule
//   simmc ctest                         acceptance sweep (the mc ctest target)
//
// Schedule strings are the dot-separated choice indices of mc/schedule.hpp
// ("0.2.1"; "-" is the engine's own FIFO order).  `ctest` mode exhausts every
// proof scenario (expecting zero violations), demands each counterexample
// scenario produce a violation, minimizes it, and verifies the minimized
// schedule replays byte-identically — exit 0 only if all of that holds and
// at least 2000 distinct interleavings were checked.  A known-defect
// scenario (a shipped-default config the shipped code is known to violate)
// is held to the counterexample rules and may break no other invariant.

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "mc/explorer.hpp"
#include "mc/scenarios.hpp"
#include "mc/schedule.hpp"

namespace {

using sio::mc::ExploreOptions;
using sio::mc::Explorer;
using sio::mc::ExploreResult;
using sio::mc::NamedScenario;
using sio::mc::RunRecord;
using sio::mc::Schedule;

void print_result(const std::string& name, const ExploreResult& res) {
  std::cout << name << ": runs=" << res.runs << " complete=" << res.complete
            << " pruned=" << res.pruned << " distinct=" << res.distinct
            << " violations=" << res.violations << " events=" << res.total_events
            << " max_depth=" << res.max_branch_depth
            << (res.exhausted ? " [tree exhausted]" : "") << "\n";
  for (const RunRecord& f : res.failures) {
    std::cout << "  violation @ " << f.schedule.to_string() << " : " << f.message << "\n";
  }
}

const NamedScenario* need_scenario(const std::string& name) {
  const NamedScenario* s = sio::mc::find_scenario(name);
  if (s == nullptr) {
    std::cerr << "simmc: unknown scenario '" << name << "' (see `simmc list`)\n";
  }
  return s;
}

std::optional<Schedule> need_schedule(const std::string& text) {
  std::optional<Schedule> s = Schedule::parse(text);
  if (!s.has_value()) {
    std::cerr << "simmc: malformed schedule '" << text << "'\n";
  }
  return s;
}

int cmd_list() {
  for (const NamedScenario& s : sio::mc::scenario_registry()) {
    const char* kind =
        s.expect_clean ? "[proof]" : s.known_defect.empty() ? "[bug]" : "[known defect]";
    std::cout << s.name << "  " << kind << "\n    " << s.description << "\n";
  }
  return 0;
}

int cmd_explore(const NamedScenario& sc, const ExploreOptions& opt) {
  Explorer ex(sc.factory, opt);
  const ExploreResult res = ex.explore();
  print_result(sc.name, res);
  return res.violations == 0 ? 0 : 1;
}

int cmd_sample(const NamedScenario& sc, std::uint64_t runs, std::uint64_t seed,
               const ExploreOptions& opt) {
  Explorer ex(sc.factory, opt);
  const ExploreResult res = ex.sample(runs, seed);
  print_result(sc.name, res);
  return res.violations == 0 ? 0 : 1;
}

int cmd_replay(const NamedScenario& sc, const Schedule& sched) {
  Explorer ex(sc.factory);
  const RunRecord rec = ex.replay(sched);
  std::cout << sc.name << " @ " << sched.to_string() << ": "
            << (rec.violation ? "VIOLATION" : rec.diverged ? "diverged" : "ok")
            << " events=" << rec.events << " decisions=" << rec.decisions << " trace_hash=0x"
            << std::hex << rec.trace_hash << std::dec << "\n";
  if (!rec.message.empty()) std::cout << "  " << rec.message << "\n";
  return rec.violation ? 1 : 0;
}

int cmd_minimize(const NamedScenario& sc, const Schedule& sched) {
  Explorer ex(sc.factory);
  const Schedule min = ex.minimize(sched);
  RunRecord rec;
  if (!ex.replays_identically(min, &rec) || !rec.violation) {
    std::cerr << "simmc: '" << sched.to_string() << "' does not reproduce a violation\n";
    return 1;
  }
  std::cout << sched.to_string() << " -> " << min.to_string() << " (" << min.size()
            << " choices): " << rec.message << "\n";
  return 0;
}

// Acceptance sweep behind the `mc.explore_small_configs` ctest target.
int cmd_ctest() {
  bool ok = true;
  std::uint64_t distinct_total = 0;
  ExploreOptions opt;
  opt.max_runs = 50000;

  for (const NamedScenario& sc : sio::mc::scenario_registry()) {
    Explorer ex(sc.factory, opt);
    const ExploreResult res =
        sc.sample_runs == 0 ? ex.explore() : ex.sample(sc.sample_runs, /*seed=*/1);
    print_result(sc.name, res);
    distinct_total += res.distinct;
    if (sc.expect_clean) {
      if (res.violations != 0 || !res.exhausted) {
        std::cout << "FAIL: proof scenario '" << sc.name << "' "
                  << (res.exhausted ? "has violations" : "did not exhaust its tree") << "\n";
        ok = false;
      }
      continue;
    }

    // Counterexample scenario: exploration must find the bug, minimization
    // must shrink it, and the minimized schedule must replay
    // byte-identically to a violating run.  A known-defect config must
    // break nothing but its known defect.
    if (res.violations == 0 || res.failures.empty()) {
      std::cout << "FAIL: bug scenario '" << sc.name << "' found no violation"
                << (sc.known_defect.empty() ? "" : " (known defect fixed? make it a proof)")
                << "\n";
      ok = false;
      continue;
    }
    bool other = false;
    for (const auto& [msg, runs] : res.diagnostics) {
      if (sc.known_defect.empty() || msg.find(sc.known_defect) != std::string::npos) continue;
      std::cout << "FAIL: '" << sc.name << "' violates more than its known defect (" << runs
                << " runs): " << msg << "\n";
      other = true;
    }
    if (other) {
      ok = false;
      continue;
    }
    Explorer fresh(sc.factory);
    const Schedule min = fresh.minimize(res.failures.front().schedule);
    if (min.size() > res.failures.front().schedule.size()) {
      std::cout << "FAIL: minimization grew the schedule\n";
      ok = false;
      continue;
    }
    RunRecord rep;
    if (!fresh.replays_identically(min, &rep)) {
      std::cout << "FAIL: minimized schedule does not replay identically\n";
      ok = false;
      continue;
    }
    if (!rep.violation) {
      std::cout << "FAIL: minimized schedule no longer violates\n";
      ok = false;
      continue;
    }
    std::cout << sc.name << (sc.known_defect.empty() ? "" : " (KNOWN DEFECT, open)")
              << ": minimized counterexample " << min.to_string() << " (" << min.size()
              << " choices), replays byte-identically: " << rep.message << "\n";
  }

  // Top up with random sampling on a larger token.meta config so the sweep
  // always certifies >= 2000 distinct interleavings even if the trees above
  // shrink.
  constexpr std::uint64_t kRequiredDistinct = 2000;
  if (distinct_total < kRequiredDistinct) {
    Explorer ex(sio::mc::make_token_meta_scenario(3, 2));
    const ExploreResult res = ex.sample(3 * kRequiredDistinct, /*seed=*/42);
    print_result("token.meta(3x2).sample", res);
    distinct_total += res.distinct;
    if (res.violations != 0) {
      std::cout << "FAIL: token.meta sampling found violations\n";
      ok = false;
    }
  }
  std::cout << "distinct interleavings checked: " << distinct_total << "\n";
  if (distinct_total < kRequiredDistinct) {
    std::cout << "FAIL: fewer than " << kRequiredDistinct << " distinct interleavings\n";
    ok = false;
  }
  std::cout << (ok ? "MC ACCEPTANCE PASS" : "MC ACCEPTANCE FAIL") << "\n";
  return ok ? 0 : 1;
}

int usage() {
  std::cerr << "usage: simmc list\n"
               "       simmc explore <scenario> [--max-runs N] [--no-prune] [--stop-first]\n"
               "       simmc sample <scenario> [--runs N] [--seed S]\n"
               "       simmc replay <scenario> <schedule>\n"
               "       simmc minimize <scenario> <schedule>\n"
               "       simmc ctest\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  const std::string& cmd = args[0];

  if (cmd == "list") return cmd_list();
  if (cmd == "ctest") return cmd_ctest();
  if (args.size() < 2) return usage();

  const NamedScenario* sc = need_scenario(args[1]);
  if (sc == nullptr) return 2;

  if (cmd == "explore" || cmd == "sample") {
    ExploreOptions opt;
    std::uint64_t runs = 2000;
    std::uint64_t seed = 1;
    for (std::size_t i = 2; i < args.size(); ++i) {
      if (args[i] == "--no-prune") {
        opt.prune = false;
      } else if (args[i] == "--stop-first") {
        opt.stop_at_first_violation = true;
      } else if (args[i] == "--max-runs" && i + 1 < args.size()) {
        opt.max_runs = std::strtoull(args[++i].c_str(), nullptr, 10);
      } else if (args[i] == "--runs" && i + 1 < args.size()) {
        runs = std::strtoull(args[++i].c_str(), nullptr, 10);
      } else if (args[i] == "--seed" && i + 1 < args.size()) {
        seed = std::strtoull(args[++i].c_str(), nullptr, 10);
      } else {
        return usage();
      }
    }
    return cmd == "explore" ? cmd_explore(*sc, opt) : cmd_sample(*sc, runs, seed, opt);
  }

  if (cmd == "replay" || cmd == "minimize") {
    if (args.size() != 3) return usage();
    const std::optional<Schedule> sched = need_schedule(args[2]);
    if (!sched.has_value()) return 2;
    return cmd == "replay" ? cmd_replay(*sc, *sched) : cmd_minimize(*sc, *sched);
  }

  return usage();
}
