// bench_paper: every deterministic artifact of the reproduction from one
// program.
//
//   ./build/bench/bench_paper <artifact>   print one artifact
//   ./build/bench/bench_paper all          print every artifact, in order
//
// Artifacts: the paper's Figures 1-9 and Tables 1-5 (rendered by
// core/figures), the §7 policy ablation, the critical-path attribution
// matrices, and the resilience, ckpt and overload scenario matrices with
// their JSON records.  Every run is seeded, so an artifact's bytes are fixed:
// ctest `golden.<artifact>` diffs them against bench/golden/<artifact>.
// Within one process the ESCAT study, the PRISM study, the CO-256 run and
// each scenario matrix are computed at most once, however many artifacts
// use them.

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "bench_paper.hpp"
#include "core/sio.hpp"

namespace sio::bench {
namespace {

// ---- §7 ablation ----
//
// The paper closes by arguing that request aggregation, prefetching and
// write-behind belong in the file system, so applications would not need the
// hand-tuning the ESCAT/PRISM teams performed.  The ablation quantifies each
// policy on a version-A-style request stream (many small sequential
// requests) and compares against the hand-tuned version-C-style stream
// (stripe-aligned large requests):
//
//   row 1  naive stream, vanilla PFS            (the version-A situation)
//   row 2  naive stream + client aggregation    (library does the batching)
//   row 3  naive stream + server prefetch       (reload accelerated)
//   row 4  naive stream + both
//   row 5  naive stream, write-through servers  (write-behind disabled)
//   row 6  hand-tuned stream, vanilla PFS       (the version-C situation)

constexpr int kNodes = 16;
constexpr std::uint64_t kTotal = 8ull << 20;  // 8 MB staged then reloaded
constexpr std::uint64_t kSmall = 2048;
constexpr std::uint64_t kLarge = 128 * 1024;

struct Setup {
  const char* name;
  bool aggregate;
  int prefetch;
  bool write_through;
  bool tuned_stream;
};

sim::Task<void> stage_and_reload(pfs::Pfs& fs, const Setup& s) {
  auto& file = fs.stage_file("a/data", 0);

  // --- staging (writes from node 0, like ESCAT version A's coordinator) ---
  const std::uint64_t chunk = s.tuned_stream ? kLarge : kSmall;
  if (s.aggregate) {
    pfs::RequestAggregator agg(fs, file, 0);
    for (std::uint64_t off = 0; off < kTotal; off += chunk) {
      co_await agg.submit(off, chunk);
    }
    co_await agg.drain();
  } else {
    for (std::uint64_t off = 0; off < kTotal; off += chunk) {
      co_await fs.transfer(0, file, off, chunk, /*is_write=*/true, /*buffered=*/true);
    }
  }

  // --- reload (sequential whole-file scan, like the quadrature re-read) ---
  const std::uint64_t units = kTotal / fs.layout().unit();
  for (std::uint64_t u = 0; u < units; ++u) {
    co_await fs.fetch_unit(0, file, u);
  }

  // --- cold compulsory reads: every node scans its own staged input file
  // concurrently (a phase-one pattern).  The arrays' heads thrash between
  // the per-node extents; sequential prefetch amortizes that positioning ---
  std::vector<pfs::FileState*> inputs;
  for (int n = 0; n < kNodes; ++n) {
    inputs.push_back(&fs.stage_file("a/input" + std::to_string(n), kTotal));
  }
  co_await apps::parallel_section(
      fs.machine().engine(), kNodes, [&fs, &inputs](int node) -> sim::Task<void> {
        const std::uint64_t scan_units = kTotal / fs.layout().unit();
        for (std::uint64_t u = 0; u < scan_units; ++u) {
          co_await fs.fetch_unit(node, *inputs[static_cast<std::size_t>(node)], u);
        }
      });
}

struct Outcome {
  double wall = 0;       ///< end-to-end simulated seconds
  double disk_busy = 0;  ///< summed array service time (occupancy)
};

Outcome run_setup(const Setup& s) {
  hw::Machine machine(hw::Machine::caltech_paragon(kNodes));
  pablo::Collector collector(machine.engine());
  pfs::ServerConfig server;
  if (s.prefetch > 0) server = pfs::with_prefetch(server, s.prefetch);
  if (s.write_through) server = pfs::with_write_behind(server, 0);
  pfs::Pfs fs(machine, collector, pfs::PfsConfig{server, pfs::ContentPolicy::kExtentsOnly});
  machine.engine().spawn(stage_and_reload(fs, s));
  machine.engine().run();
  Outcome out;
  out.wall = sim::to_seconds(machine.engine().now());
  for (int i = 0; i < fs.server_count(); ++i) {
    out.disk_busy += sim::to_seconds(fs.server(i).disk().busy_time());
  }
  return out;
}

// ---- artifact table ----

/// Lazily computed inputs shared between artifacts.
class Inputs {
 public:
  const core::EscatStudy& escat() { return get(escat_, [] { return core::run_escat_study(); }); }
  const core::PrismStudy& prism() { return get(prism_, [] { return core::run_prism_study(); }); }
  const core::RunResult& co256() {
    return get(co256_, [] { return core::run_escat_carbon_monoxide(); });
  }
  const ScenarioReport& resilience() { return get(resilience_, run_resilience); }
  const ScenarioReport& ckpt() { return get(ckpt_, run_ckpt); }
  const ScenarioReport& overload() { return get(overload_, run_overload); }

 private:
  template <class T, class F>
  static const T& get(std::optional<T>& slot, F make) {
    if (!slot) slot.emplace(make());
    return *slot;
  }

  std::optional<core::EscatStudy> escat_;
  std::optional<core::PrismStudy> prism_;
  std::optional<core::RunResult> co256_;
  std::optional<ScenarioReport> resilience_, ckpt_, overload_;
};

/// A study table followed by its per-version operation-share details.
template <class Study>
std::string with_details(std::string table, const Study& s) {
  table += "\n";
  table += core::render_io_share_table(s.a, "Detail: version A");
  table += core::render_io_share_table(s.b, "Detail: version B");
  table += core::render_io_share_table(s.c, "Detail: version C");
  return table;
}

struct Artifact {
  const char* name;
  std::string (*render)(Inputs&);
};

const Artifact kArtifacts[] = {
    {"fig1", [](Inputs&) { return core::render_fig1(); }},
    {"fig2", [](Inputs& in) { return core::render_fig2(in.escat()); }},
    {"fig3", [](Inputs& in) { return core::render_fig3(in.escat()); }},
    {"fig4", [](Inputs& in) { return core::render_fig4(in.escat()); }},
    {"fig5", [](Inputs& in) { return core::render_fig5(in.escat()); }},
    {"fig6", [](Inputs& in) { return core::render_fig6(in.prism()); }},
    {"fig7", [](Inputs& in) { return core::render_fig7(in.prism()); }},
    {"fig8", [](Inputs& in) { return core::render_fig8(in.prism()); }},
    {"fig9", [](Inputs& in) { return core::render_fig9(in.prism()); }},
    {"table1", [](Inputs&) { return core::render_table1(); }},
    {"table2",
     [](Inputs& in) { return with_details(core::render_table2(in.escat()), in.escat()); }},
    {"table3",
     [](Inputs& in) {
       return core::render_table3(in.escat(), in.co256()) + "\n" +
              core::render_io_share_table(in.co256(), "Detail: carbon monoxide (version C)");
     }},
    {"table4", [](Inputs&) { return core::render_table4(); }},
    {"table5",
     [](Inputs& in) { return with_details(core::render_table5(in.prism()), in.prism()); }},
    {"ablation", [](Inputs&) { return render_ablation(); }},
    {"attribution", [](Inputs&) { return render_attribution(); }},
    {"resilience", [](Inputs& in) { return in.resilience().text; }},
    {"resilience.json", [](Inputs& in) { return in.resilience().json; }},
    {"integrity.json", [](Inputs& in) { return in.resilience().integrity_json; }},
    {"ckpt", [](Inputs& in) { return in.ckpt().text; }},
    {"ckpt.json", [](Inputs& in) { return in.ckpt().json; }},
    {"overload", [](Inputs& in) { return in.overload().text; }},
    {"overload.json", [](Inputs& in) { return in.overload().json; }},
};

}  // namespace

std::string render_ablation() {
  const Setup setups[] = {
      {"naive, vanilla PFS", false, 0, false, false},
      {"naive + aggregation", true, 0, false, false},
      {"naive + prefetch(2)", false, 2, false, false},
      {"naive + aggregation + prefetch", true, 2, false, false},
      {"naive, write-through (no WB)", false, 0, true, false},
      {"tuned stream, vanilla PFS", false, 0, false, true},
  };

  double naive = 0, tuned = 0, agg = 0;
  pablo::TextTable t({"configuration", "wall_s", "vs naive", "disk_busy_s"});
  for (const auto& s : setups) {
    const Outcome o = run_setup(s);
    if (std::string(s.name) == "naive, vanilla PFS") naive = o.wall;
    if (std::string(s.name) == "tuned stream, vanilla PFS") tuned = o.wall;
    if (std::string(s.name) == "naive + aggregation") agg = o.wall;
    t.add_row({s.name, pablo::fmt_fixed(o.wall, 3),
               pablo::fmt_fixed(naive > 0 ? naive / o.wall : 1.0, 2) + "x",
               pablo::fmt_fixed(o.disk_busy, 2)});
  }
  return "Ablation: §7 design principles on an 8 MB stage+reload cycle\n"
         "(request stream: naive = 2KB sequential, tuned = 128KB aligned)\n\n" +
         t.render() +
         "\nClaim check: client-library request aggregation alone recovers " +
         pablo::fmt_fixed(100.0 * (naive - agg) / (naive - tuned > 0 ? naive - tuned : 1.0), 0) +
         "% of\n"
         "the hand-tuning gap without touching the application's natural request\n"
         "stream (paper §7: request aggregation / prefetching / write-behind by\n"
         "the file system eliminate the need for code restructuring).  Server\n"
         "prefetch cuts array occupancy (disk_busy column) on the cold scans; its\n"
         "end-to-end effect depends on queue structure, as §7's caution about\n"
         "policy/workload matching anticipates.\n";
}

}  // namespace sio::bench

int main(int argc, char** argv) {
  using sio::bench::kArtifacts;
  const char* want = argc == 2 ? argv[1] : "";
  const bool all = std::strcmp(want, "all") == 0;
  sio::bench::Inputs inputs;
  bool found = false;
  for (const auto& a : kArtifacts) {
    if (!all && std::strcmp(want, a.name) != 0) continue;
    found = true;
    if (all) std::printf("### bench_paper %s\n", a.name);
    std::fputs(a.render(inputs).c_str(), stdout);
  }
  if (found) return 0;
  std::fputs("usage: bench_paper <artifact>|all\nartifacts:", stderr);
  for (const auto& a : kArtifacts) std::fprintf(stderr, " %s", a.name);
  std::fputs("\n", stderr);
  return 2;
}
