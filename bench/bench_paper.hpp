// Artifact renderers compiled into bench_paper beside its main().  Each is
// deterministic: every run is seeded, so the returned bytes are the
// artifact's golden (bench/golden/<artifact>).

#pragma once

#include <string>

namespace sio::bench {

/// §7 design-principle ablation: aggregation, prefetch and write-behind on an
/// 8 MB stage+reload cycle (artifact `ablation`).
std::string render_ablation();

/// Critical-path latency attribution matrices: the paper applications and
/// the six PFS access modes, traced end to end (artifact `attribution`).
std::string render_attribution();

/// One scenario matrix: the rendered report plus its machine-readable JSON
/// records (`integrity_json` is only filled by the resilience matrix).
struct ScenarioReport {
  std::string text;
  std::string json;
  std::string integrity_json;
};

/// Tuned ESCAT/PRISM under the canned fault plans and the bit-rot ablation
/// (artifacts `resilience`, `resilience.json`, `integrity.json`).
ScenarioReport run_resilience();

/// The checkpoint workload through the journaling ablation (artifacts
/// `ckpt`, `ckpt.json`).
ScenarioReport run_ckpt();

/// The overload storms at 1x/2x/4x offered load, protection on and off
/// (artifacts `overload`, `overload.json`).
ScenarioReport run_overload();

}  // namespace sio::bench
