// Ablation A2: randomized selection of resources ("used to generate
// different answers when there are multiple resource choices"). A burst of
// interactive jobs whose Rank ties across all sites: with randomized
// tie-breaking, placements spread; with deterministic first-fit, the burst
// piles onto the lowest-indexed sites while the rest idle.
#include <iostream>

#include "grid/grid.hpp"
#include "util/stats.hpp"

namespace {

using namespace cg;
using namespace cg::broker;
using namespace cg::literals;

/// Submits a burst of 20 tied-rank interactive jobs into 10 x 4-node sites
/// and returns the per-site placement histogram.
std::vector<int> run_spread(bool randomized, std::uint64_t seed) {
  GridConfig config;
  config.sites = 10;
  config.nodes_per_site = 4;
  config.seed = seed;
  config.broker.matchmaker.randomize_ties = randomized;
  Grid grid{config};

  std::vector<int> placements(static_cast<std::size_t>(config.sites), 0);
  for (int i = 0; i < 20; ++i) {
    // Constant Rank: every site with capacity is an equally good answer.
    auto jd = jdl::JobDescription::parse(
        "Executable = \"viz\"; JobType = \"interactive\"; Rank = 1;");
    JobCallbacks callbacks;
    callbacks.on_running = [&placements, &grid](const JobRecord& record) {
      for (std::size_t s = 0; s < grid.site_count(); ++s) {
        if (grid.site(s).id() == record.subjobs[0].site) ++placements[s];
      }
    };
    if (!grid.submit(jd.value(), UserId{static_cast<std::uint64_t>(i + 1)},
                     lrms::Workload::cpu(600_s), callbacks)) {
      std::cerr << "submission refused\n";
    }
  }
  grid.sim().run_until(SimTime::from_seconds(1200));
  return placements;
}

double spread_stddev(const std::vector<int>& placements) {
  RunningStats stats;
  for (const int p : placements) stats.add(p);
  return stats.stddev();
}

int idle_sites(const std::vector<int>& placements) {
  int idle = 0;
  for (const int p : placements) {
    if (p == 0) ++idle;
  }
  return idle;
}

}  // namespace

int main() {
  std::cout << "== Ablation A2: randomized vs first-fit resource selection ==\n"
            << "(burst of 20 tied-rank interactive jobs onto 10 x 4-node "
               "sites; placements per site)\n\n";

  RunningStats random_sd;
  RunningStats firstfit_sd;
  RunningStats random_idle;
  RunningStats firstfit_idle;
  std::vector<int> random_sample;
  std::vector<int> firstfit_sample;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto random_spread = run_spread(true, seed);
    const auto firstfit_spread = run_spread(false, seed);
    random_sd.add(spread_stddev(random_spread));
    firstfit_sd.add(spread_stddev(firstfit_spread));
    random_idle.add(idle_sites(random_spread));
    firstfit_idle.add(idle_sites(firstfit_spread));
    if (seed == 1) {
      random_sample = random_spread;
      firstfit_sample = firstfit_spread;
    }
  }

  const auto render = [](const std::vector<int>& v) {
    std::string out;
    for (const int x : v) out += std::to_string(x) + " ";
    return out;
  };
  std::cout << "placements per site (seed 1):\n"
            << "  randomized: " << render(random_sample) << "\n"
            << "  first-fit:  " << render(firstfit_sample) << "\n\n";

  cg::TablePrinter table{{"Selection", "Placement stddev", "Idle sites"}};
  table.add_row({"randomized", cg::fmt_fixed(random_sd.mean(), 2),
                 cg::fmt_fixed(random_idle.mean(), 1)});
  table.add_row({"first-fit", cg::fmt_fixed(firstfit_sd.mean(), 2),
                 cg::fmt_fixed(firstfit_idle.mean(), 1)});
  std::cout << table.render() << "\n";
  const bool holds = random_sd.mean() < firstfit_sd.mean() &&
                     random_idle.mean() < firstfit_idle.mean();
  std::cout << (holds ? "[ok]   randomized selection spreads load across "
                        "equivalent sites\n"
                      : "[MISS] randomized selection did not improve spread\n");
  return holds ? 0 : 1;
}
