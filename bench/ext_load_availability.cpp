// Extension experiment E1: interactive availability under load — the
// scenario that motivates the whole paper ("the possibility of starting the
// application in the immediate future, also taking into account scenarios
// in which all computing resources might be running batch jobs").
//
// A Poisson stream of batch work drives the grid to a target occupancy; a
// sparse stream of interactive jobs arrives on top. We sweep the batch load
// and compare interactive startup time and failure rate between
//   exclusive mode (needs an idle machine), and
//   shared mode   (multiprogramming: lands on glide-in interactive VMs).
//
// Expected shape: exclusive-mode startup degrades into failures as
// occupancy rises; shared mode keeps starting interactive jobs in seconds
// all the way to saturation — at the PerformanceLoss cost quantified in
// Fig. 8.
#include <iostream>

#include "claims.hpp"
#include "grid/grid.hpp"
#include "broker/workload_generator.hpp"
#include "util/stats.hpp"

namespace {

using namespace cg;
using namespace cg::broker;
using namespace cg::literals;

struct SweepPoint {
  double occupancy = 0.0;        ///< measured mean busy fraction
  double mean_startup_s = 0.0;
  double p95_startup_s = 0.0;
  double failure_rate = 0.0;
  int submitted = 0;
};

SweepPoint run_point(Duration batch_interarrival, jdl::MachineAccess access,
                     std::uint64_t seed) {
  GridConfig config;
  config.sites = 4;
  config.nodes_per_site = 2;
  config.seed = seed;
  Grid grid{config};

  WorkloadGeneratorConfig load;
  load.batch_interarrival = batch_interarrival;
  load.batch_runtime = 1800_s;
  load.interactive_interarrival = 600_s;
  load.interactive_runtime = 120_s;
  load.interactive_access = access;
  load.performance_loss = 10;
  load.horizon = SimTime::from_seconds(8 * 3600);
  load.seed = seed ^ 0xfeed;
  WorkloadGenerator generator{grid.sim(), grid.broker(), load};
  generator.start();

  // Sample occupancy every 5 minutes.
  RunningStats busy_fraction;
  const int total_nodes = config.sites * config.nodes_per_site;
  for (int t = 600; t <= 8 * 3600; t += 300) {
    grid.sim().schedule_at(SimTime::from_seconds(t), [&grid, &busy_fraction,
                                                      total_nodes] {
      int free = 0;
      for (std::size_t i = 0; i < grid.site_count(); ++i) {
        free += grid.site(i).scheduler().free_nodes();
      }
      busy_fraction.add(1.0 - static_cast<double>(free) /
                                  static_cast<double>(total_nodes));
    });
  }
  grid.sim().run_until(SimTime::from_seconds(10 * 3600));

  const WorkloadStats& stats = generator.stats();
  SweepPoint point;
  point.occupancy = busy_fraction.mean();
  point.submitted = stats.interactive_submitted;
  if (stats.interactive_startup_s.count() > 0) {
    point.mean_startup_s = stats.interactive_startup_s.mean();
    point.p95_startup_s = stats.interactive_startup_s.max();
  }
  point.failure_rate =
      stats.interactive_submitted > 0
          ? static_cast<double>(stats.interactive_failed) /
                static_cast<double>(stats.interactive_submitted)
          : 0.0;
  return point;
}

}  // namespace

int main() {
  std::cout << "== Extension E1: interactive availability vs background load ==\n"
            << "(8-node grid, 8 h of Poisson batch arrivals at increasing "
               "rate,\n interactive job every ~10 min; 3 seeds per point)\n\n";

  const std::vector<std::pair<const char*, Duration>> loads{
      {"light", 1200_s}, {"medium", 420_s}, {"heavy", 200_s}, {"saturating", 90_s}};

  cg::TablePrinter table{{"Batch load", "Occupancy", "Mode", "Mean startup (s)",
                          "Worst startup (s)", "Failure rate"}};
  double exclusive_heavy_failures = 0.0;
  double shared_heavy_failures = 0.0;
  double shared_heavy_startup = 0.0;
  for (const auto& [label, interarrival] : loads) {
    for (const jdl::MachineAccess access :
         {jdl::MachineAccess::kExclusive, jdl::MachineAccess::kShared}) {
      RunningStats occupancy;
      RunningStats startup;
      RunningStats worst;
      RunningStats failures;
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const SweepPoint p = run_point(interarrival, access, seed);
        occupancy.add(p.occupancy);
        startup.add(p.mean_startup_s);
        worst.add(p.p95_startup_s);
        failures.add(p.failure_rate);
      }
      table.add_row({label, cg::fmt_fixed(occupancy.mean() * 100, 0) + "%",
                     access == jdl::MachineAccess::kShared ? "shared" : "exclusive",
                     cg::fmt_fixed(startup.mean(), 2),
                     cg::fmt_fixed(worst.mean(), 2),
                     cg::fmt_fixed(failures.mean() * 100, 1) + "%"});
      if (std::string{label} == "saturating") {
        if (access == jdl::MachineAccess::kExclusive) {
          exclusive_heavy_failures = failures.mean();
        } else {
          shared_heavy_failures = failures.mean();
          shared_heavy_startup = startup.mean();
        }
      }
    }
  }
  std::cout << table.render() << "\n";

  cg::bench::Claims claims;
  claims.check("exclusive mode fails interactive jobs under saturating load",
               exclusive_heavy_failures > 0.2);
  claims.check("shared mode keeps failures far lower at the same load",
               shared_heavy_failures < exclusive_heavy_failures / 2.0);
  claims.check("shared-mode startup stays interactive (< 30 s) even saturated",
               shared_heavy_startup > 0.0 && shared_heavy_startup < 30.0);
  return claims.exit_code();
}
