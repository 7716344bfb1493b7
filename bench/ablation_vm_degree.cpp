// Ablation A5: degree of multiprogramming. The paper's agents create one
// interactive VM per node and name a larger, dynamic degree as future work
// ("our multi-programming system could allow a larger degree of
// multi-programming ... taking into account the behavior of applications").
// This ablation sweeps the degree on a saturated one-node grid and measures
// the trade-off: more concurrent interactive jobs start instantly, but each
// one's CPU bursts dilate as residents multiply.
#include <iostream>

#include "claims.hpp"
#include "grid/grid.hpp"
#include "util/stats.hpp"

namespace {

using namespace cg;
using namespace cg::broker;
using namespace cg::literals;

struct DegreeResult {
  int started_immediately = 0;  ///< of the burst, how many got a VM at once
  int failed = 0;
  double mean_cpu_burst_s = 0.0;  ///< across all interactive jobs
  double batch_stretch = 0.0;     ///< batch runtime vs its undisturbed time
};

DegreeResult run_degree(int degree) {
  GridConfig config;
  config.sites = 1;
  config.nodes_per_site = 1;
  config.broker.glidein.interactive_slots = degree;
  config.broker.dismiss_idle_agents = false;
  Grid grid{config};

  // The node is busy with a broker-submitted batch job (inside an agent).
  std::optional<SimTime> batch_started;
  std::optional<SimTime> batch_finished;
  JobCallbacks batch_callbacks;
  batch_callbacks.on_running = [&](const JobRecord&) {
    batch_started = grid.sim().now();
  };
  batch_callbacks.on_complete = [&](const JobRecord&) {
    batch_finished = grid.sim().now();
  };
  if (!grid.submit(jdl::JobDescription::parse("Executable = \"bg\";").value(),
                   UserId{1}, lrms::Workload::cpu(600_s), batch_callbacks)) {
    std::cerr << "batch submission refused\n";
  }
  grid.sim().run_until(SimTime::from_seconds(120));

  // A burst of 4 interactive jobs in shared mode.
  DegreeResult result;
  RunningStats cpu_bursts;
  const SimTime burst_at = grid.sim().now();
  for (int i = 0; i < 4; ++i) {
    JobCallbacks callbacks;
    callbacks.on_running = [&result, &grid, burst_at](const JobRecord&) {
      if ((grid.sim().now() - burst_at).to_seconds() < 15.0) {
        ++result.started_immediately;
      }
    };
    callbacks.on_failed = [&result](const JobRecord&, const Error&) {
      ++result.failed;
    };
    callbacks.phase_observer = [&cpu_bursts](const lrms::Phase& phase,
                                             Duration measured) {
      if (phase.kind == lrms::PhaseKind::kCpu) {
        cpu_bursts.add(measured.to_seconds());
      }
    };
    if (!grid.submit(jdl::JobDescription::parse(
                         "Executable = \"viz\"; JobType = \"interactive\"; "
                         "MachineAccess = \"shared\"; PerformanceLoss = 10;")
                         .value(),
                     UserId{static_cast<std::uint64_t>(i + 2)},
                     lrms::Workload::iterative(30, 6_ms, 921_ms), callbacks)) {
      ++result.failed;
    }
  }
  grid.sim().run_until(SimTime::from_seconds(4 * 3600));
  result.mean_cpu_burst_s = cpu_bursts.mean();
  if (batch_started && batch_finished) {
    result.batch_stretch =
        (*batch_finished - *batch_started).to_seconds() / 600.0;
  }
  return result;
}

}  // namespace

int main() {
  std::cout << "== Ablation A5: degree of multiprogramming ==\n"
            << "(saturated 1-node grid; burst of 4 shared interactive jobs, "
               "PL=10; CPU burst reference 0.921 s)\n\n";

  cg::TablePrinter table{{"Degree", "Started immediately (of 4)", "Failed",
                          "Mean CPU burst (s)", "Batch stretch"}};
  std::vector<DegreeResult> results;
  for (const int degree : {1, 2, 3, 4}) {
    const DegreeResult r = run_degree(degree);
    results.push_back(r);
    table.add_row({std::to_string(degree),
                   std::to_string(r.started_immediately),
                   std::to_string(r.failed),
                   cg::fmt_fixed(r.mean_cpu_burst_s, 3),
                   cg::fmt_fixed(r.batch_stretch, 2) + "x"});
  }
  std::cout << table.render() << "\n";

  cg::bench::Claims claims;
  claims.check("higher degree admits more of the burst immediately",
               results[3].started_immediately > results[0].started_immediately);
  claims.check("degree 1 rejects the overflow (interactive jobs fail, not queue)",
               results[0].failed > 0);
  claims.check("per-job CPU bursts dilate as the degree fills",
               results[3].mean_cpu_burst_s > results[0].mean_cpu_burst_s * 1.5);
  claims.check("degree 4 hosts the whole burst with zero failures",
               results[3].failed == 0);
  return claims.exit_code();
}
