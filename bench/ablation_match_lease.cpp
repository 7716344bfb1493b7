// Ablation A1: exclusive temporal access to resources. A burst of
// simultaneous interactive submissions lands on a grid whose information is
// only refreshed periodically. With match leases, concurrently dispatched
// jobs see each other's reservations and spread; without them they pile
// onto the same stale "free" CPUs, detect being queued, and must resubmit
// (or fail outright).
#include <iostream>

#include "grid/grid.hpp"
#include "util/stats.hpp"

namespace {

using namespace cg;
using namespace cg::broker;
using namespace cg::literals;

struct BurstResult {
  int completed = 0;
  int failed = 0;
  int total_resubmissions = 0;
  double mean_startup_s = 0.0;
};

BurstResult run_burst(bool leases_enabled, std::uint64_t seed) {
  GridConfig config;
  config.sites = 4;
  config.nodes_per_site = 2;
  config.seed = seed;
  config.publication_period = 300_s;  // stale index during the burst
  config.broker.enable_match_leases = leases_enabled;
  Grid grid{config};
  grid.sim().run_until(SimTime::from_seconds(1));

  constexpr int kBurst = 8;  // exactly the number of nodes in the grid
  BurstResult result;

  for (int i = 0; i < kBurst; ++i) {
    auto jd = jdl::JobDescription::parse(
        "Executable = \"viz\"; JobType = \"interactive\";");
    JobCallbacks callbacks;
    callbacks.on_complete = [&result](const JobRecord&) { ++result.completed; };
    callbacks.on_failed = [&result](const JobRecord&, const Error&) {
      ++result.failed;
    };
    if (!grid.submit(jd.value(), UserId{static_cast<std::uint64_t>(i + 1)},
                     lrms::Workload::cpu(120_s), callbacks)) {
      ++result.failed;
    }
  }
  grid.sim().run_until(SimTime::from_seconds(1800));
  // The registry already has what the bench used to tally by hand: the
  // resubmission counter and the submit-to-running histogram.
  const auto snapshot = grid.metrics_snapshot();
  result.total_resubmissions =
      static_cast<int>(snapshot.total("broker.resubmissions"));
  double startup_sum = 0.0;
  std::uint64_t startup_count = 0;
  for (const auto& sample : snapshot.samples) {
    if (sample.name == "broker.time_to_running_s") {
      startup_sum += sample.value;  // histogram sample value == sum
      startup_count += sample.count;
    }
  }
  result.mean_startup_s =
      startup_count > 0 ? startup_sum / static_cast<double>(startup_count) : 0.0;
  return result;
}

}  // namespace

int main() {
  std::cout << "== Ablation A1: exclusive temporal access (match leases) ==\n"
            << "(8 simultaneous interactive jobs onto 8 nodes across 4 sites;\n"
            << " stale information system; 10 seeds)\n\n";

  RunningStats on_completed;
  RunningStats on_resub;
  RunningStats on_startup;
  RunningStats off_completed;
  RunningStats off_resub;
  RunningStats off_startup;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const BurstResult on = run_burst(true, seed);
    const BurstResult off = run_burst(false, seed);
    on_completed.add(on.completed);
    on_resub.add(on.total_resubmissions);
    on_startup.add(on.mean_startup_s);
    off_completed.add(off.completed);
    off_resub.add(off.total_resubmissions);
    off_startup.add(off.mean_startup_s);
  }

  cg::TablePrinter table{{"Leases", "Jobs completed (of 8)", "Resubmissions",
                          "Mean startup (s)"}};
  table.add_row({"on", cg::fmt_fixed(on_completed.mean(), 2),
                 cg::fmt_fixed(on_resub.mean(), 2),
                 cg::fmt_fixed(on_startup.mean(), 2)});
  table.add_row({"off", cg::fmt_fixed(off_completed.mean(), 2),
                 cg::fmt_fixed(off_resub.mean(), 2),
                 cg::fmt_fixed(off_startup.mean(), 2)});
  std::cout << table.render() << "\n";
  const bool holds = off_resub.mean() > on_resub.mean();
  std::cout << (holds ? "[ok]   leases reduce wasted resubmissions under "
                        "concurrent submission\n"
                      : "[MISS] leases show no benefit in this configuration\n");
  return holds ? 0 : 1;
}
