// Generators for every table and figure in the paper's evaluation.
//
// Each render_* function turns experiment results into the text form of the
// corresponding paper artifact — the same rows (tables) or series (figures)
// the paper reports, plus a CSV block for external re-plotting.
// `bench_paper <artifact>` prints them, and ctest diffs each artifact against
// its golden in bench/golden/.

#pragma once

#include <string>

#include "core/experiment.hpp"

namespace sio::core {

// ---- ESCAT (paper §4) ----

/// Figure 1: execution time of the six ESCAT code progressions.
std::string render_fig1(std::uint64_t seed = kDefaultSeed);

/// Table 1: node activity and file access modes per ESCAT phase/version.
std::string render_table1();

/// Table 2: % of total I/O time per operation type, ESCAT A/B/C.
std::string render_table2(const EscatStudy& s);

/// Table 3: % of total execution time per operation type, ethylene A/B/C
/// plus the carbon-monoxide column.
std::string render_table3(const EscatStudy& s, const RunResult& carbon_monoxide);

/// Figure 2: CDFs of ESCAT read/write request sizes and data transferred.
std::string render_fig2(const EscatStudy& s);

/// Figure 3: ESCAT read-size timelines, versions A and C.
std::string render_fig3(const EscatStudy& s);

/// Figure 4: ESCAT write-size timelines, versions A and C.
std::string render_fig4(const EscatStudy& s);

/// Figure 5: ESCAT seek-duration timelines, versions B and C.
std::string render_fig5(const EscatStudy& s);

// ---- PRISM (paper §5) ----

/// Figure 6: execution time of the three PRISM versions.
std::string render_fig6(const PrismStudy& s);

/// Table 4: node activity and file access modes per PRISM phase/version.
std::string render_table4();

/// Table 5: % of total I/O time per operation type, PRISM A/B/C.
std::string render_table5(const PrismStudy& s);

/// Figure 7: CDFs of PRISM read/write request sizes and data transferred.
std::string render_fig7(const PrismStudy& s);

/// Figure 8: PRISM read-size timelines for all three versions.
std::string render_fig8(const PrismStudy& s);

/// Figure 9: PRISM write-size timeline, version C (five checkpoint bursts
/// plus the final field dump).
std::string render_fig9(const PrismStudy& s);

// ---- helpers shared by benches and tests ----

/// One "A vs paper" comparison row: operation shares of I/O time.
std::string render_io_share_table(const RunResult& r, const std::string& title);

// ---- resilience (fault-injection runs) ----

/// Resilience report for a faulted run against its fault-free baseline:
/// injected faults, per-phase timeout/retry/failure counts, and the added
/// I/O / execution time.
std::string render_resilience_summary(const RunResult& run, const RunResult& baseline);

}  // namespace sio::core
