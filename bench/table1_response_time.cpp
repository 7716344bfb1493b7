// Reproduces Table I: response time (seconds) for job submission by method.
//
//   Method            Discovery  Selection  Submission(campus)  Submission(IFCA)
//   Glogin            hand-made  hand-made  16.43               20.12
//   Idle (exclusive)  0.5        3          17.2                —
//   Virtual machine   combined local        6.79                —
//   Job + agent       0.5        3          29.3                —
//
// "Submission" is the paper's response time: from the instant the job is
// handed to the remote gatekeeper (or glide-in agent) until the first output
// arrives on the user machine. 100 jobs per method, averaged. Constants are
// calibrated to 2006-era Globus 2.4 + PBS behaviour (GSI handshakes, GRAM
// jobmanager processing, LRMS scheduling cycles); the claim under test is
// the *ordering* and the >2x advantage of the shared-VM path, not absolute
// seconds.
#include <iostream>
#include <optional>

#include "claims.hpp"
#include "grid/grid.hpp"
#include "stream/channel_model.hpp"
#include "stream/grid_console.hpp"
#include "util/stats.hpp"

namespace {

using namespace cg;
using namespace cg::literals;

constexpr int kJobsPerMethod = 100;
constexpr std::size_t kBannerBytes = 64;  // the application's first output

/// Calibrated 2006-era middleware constants shared by all methods.
GridConfig testbed_config(const sim::LinkSpec& link, std::uint64_t seed) {
  GridConfig config;
  config.sites = 20;  // "a set of 20 remote sites, located all over Europe"
  config.nodes_per_site = 4;
  config.site_link = link;
  config.seed = seed;
  // Discovery: index in Germany, broker in Spain, ~0.5 s round trip.
  config.infosys.index_query_latency = 500_ms;
  // Selection: fresh queries to every candidate run concurrently; the
  // slowest site's answer closes the phase at ~3 s.
  config.site_info_latency = 3_s;
  config.infosys.default_site_query_latency = 3_s;
  // Globus 2.4 GRAM: mutual GSI auth + jobmanager script processing.
  config.gatekeeper.gsi_auth_latency = Duration::millis(2500);
  config.gatekeeper.jobmanager_latency = Duration::millis(6500);
  config.gatekeeper.prepare_overhead = 400_ms;  // the 2PC premium
  // PBS scheduling iteration on the site.
  config.lrms.dispatch_latency = 6_s;
  // Glide-in: bootstrap after the carrier starts; spawn cost on a VM slot.
  config.broker.glidein.bootstrap_time = Duration::millis(4000);
  config.broker.glidein.job_start_overhead = Duration::millis(5000);
  config.broker.glidein.binary_bytes = 10u << 20;
  config.broker.agent_channel_latency = 400_ms;
  config.broker.vm_lookup_cost = 50_ms;
  config.broker.executable_bytes = 15u << 20;
  config.broker.dismiss_idle_agents = false;  // keep the warm VM pool
  return config;
}

struct PhaseTimes {
  double discovery = 0.0;
  double selection = 0.0;
  double submission = 0.0;
};

/// Measures the first-output leg: a banner written by the application as it
/// starts, shaped by the agent buffer, over the given channel spec.
double first_output_seconds(sim::Simulation& sim, sim::Network& network,
                            const std::string& site_endpoint,
                            const stream::ChannelSpec& spec, std::uint64_t seed) {
  sim::Link& link = network.link("ui", site_endpoint);
  stream::SimChannel channel{sim, link, spec, Rng{seed}};
  return channel.estimate(kBannerBytes).to_seconds();
}

/// One CrossBroker-mediated submission; returns per-phase times.
std::optional<PhaseTimes> run_broker_submission(const std::string& jdl,
                                                const sim::LinkSpec& link,
                                                std::uint64_t seed,
                                                bool preload_agent,
                                                bool warmup_shared) {
  Grid grid{testbed_config(link, seed)};
  if (preload_agent) {
    grid.broker().preload_agent(grid.site(0).id());
    grid.sim().run_until(SimTime::from_seconds(60));
  }
  (void)warmup_shared;

  auto description = jdl::JobDescription::parse(jdl);
  if (!description) {
    std::cerr << "bad jdl: " << description.error().to_string() << "\n";
    return std::nullopt;
  }

  auto job =
      grid.submit(description.value(), UserId{1}, lrms::Workload::cpu(60_s));
  if (!job) return std::nullopt;
  const auto done = job->await();
  if (!done) return std::nullopt;
  const broker::JobRecord& record = **done;
  if (!record.timestamps.running) return std::nullopt;

  PhaseTimes times;
  times.discovery = (*record.timestamps.discovery_done -
                     record.timestamps.submitted)
                        .to_seconds();
  times.selection = (*record.timestamps.selection_done -
                     *record.timestamps.discovery_done)
                        .to_seconds();
  // Submission ends at first output; the banner leg is added below.
  times.submission = (*record.timestamps.running -
                      *record.timestamps.selection_done)
                         .to_seconds();

  // First-output leg over the interposition channel from the execution site.
  for (std::size_t i = 0; i < grid.site_count(); ++i) {
    if (grid.site(i).id() == record.subjobs[0].site) {
      times.submission += first_output_seconds(
          grid.sim(), grid.network(), grid.site(i).endpoint(),
          stream::ChannelSpec::interposition_fast(), seed ^ 0x1234);
      break;
    }
  }
  return times;
}

/// Glogin baseline: the user selects the machine by hand (no discovery or
/// selection phases) and submits through GRAM directly; the interactive
/// shell's first output returns over the Globus-IO channel.
std::optional<double> run_glogin_submission(const sim::LinkSpec& link,
                                            std::uint64_t seed) {
  Grid grid{testbed_config(link, seed)};
  lrms::Site& site = grid.site(0);

  lrms::GridJobRequest request;
  request.job.id = JobId{1000};
  request.job.owner = UserId{1};
  request.job.workload = lrms::Workload::cpu(60_s);
  request.stage_bytes = 15u << 20;  // the shell bootstrap payload
  request.submitter_endpoint = "ui";
  std::optional<SimTime> started;
  request.job.on_start = [&](NodeId) { started = grid.sim().now(); };

  const SimTime submitted_at = grid.sim().now();
  site.gatekeeper().submit_direct(std::move(request), [](Status) {});
  grid.sim().run_until(SimTime::from_seconds(3600));
  if (!started) return std::nullopt;

  double total = (*started - submitted_at).to_seconds();
  total += first_output_seconds(grid.sim(), grid.network(), site.endpoint(),
                                stream::ChannelSpec::glogin(), seed ^ 0x77);
  return total;
}

struct Row {
  std::string method;
  std::string discovery;
  std::string selection;
  double campus = 0.0;
  double ifca = 0.0;
  std::string paper;
};

}  // namespace

int main() {
  std::cout << "== Table I: response time for jobs (seconds) ==\n"
            << "(" << kJobsPerMethod << " submissions per method; means)\n\n";

  const sim::LinkSpec campus = sim::LinkSpec::campus();
  const sim::LinkSpec ifca = sim::LinkSpec::wan();

  // -- Glogin -----------------------------------------------------------
  RunningStats glogin_campus;
  RunningStats glogin_ifca;
  for (int i = 0; i < kJobsPerMethod; ++i) {
    const auto seed = static_cast<std::uint64_t>(1000 + i);
    if (const auto t = run_glogin_submission(campus, seed)) glogin_campus.add(*t);
    if (const auto t = run_glogin_submission(ifca, seed)) glogin_ifca.add(*t);
  }

  // -- Interactive exclusive ("Idle") ------------------------------------
  const std::string exclusive_jdl =
      "Executable = \"app\"; JobType = \"interactive\"; "
      "MachineAccess = \"exclusive\";";
  RunningStats idle_disc;
  RunningStats idle_sel;
  RunningStats idle_campus;
  RunningStats idle_ifca;
  for (int i = 0; i < kJobsPerMethod; ++i) {
    const auto seed = static_cast<std::uint64_t>(2000 + i);
    if (const auto t = run_broker_submission(exclusive_jdl, campus, seed,
                                             false, false)) {
      idle_disc.add(t->discovery);
      idle_sel.add(t->selection);
      idle_campus.add(t->submission);
    }
    if (const auto t = run_broker_submission(exclusive_jdl, ifca, seed, false,
                                             false)) {
      idle_ifca.add(t->submission);
    }
  }

  // -- Interactive shared on a warm VM ("Virtual machine") ---------------
  const std::string shared_jdl =
      "Executable = \"app\"; JobType = \"interactive\"; "
      "MachineAccess = \"shared\"; PerformanceLoss = 10;";
  RunningStats vm_lookup;
  RunningStats vm_campus;
  RunningStats vm_ifca;
  for (int i = 0; i < kJobsPerMethod; ++i) {
    const auto seed = static_cast<std::uint64_t>(3000 + i);
    if (const auto t = run_broker_submission(shared_jdl, campus, seed, true,
                                             true)) {
      vm_lookup.add(t->discovery + t->selection);
      vm_campus.add(t->submission);
    }
    if (const auto t = run_broker_submission(shared_jdl, ifca, seed, true,
                                             true)) {
      vm_ifca.add(t->submission);
    }
  }

  // -- Batch ("Job + agent") ----------------------------------------------
  const std::string batch_jdl = "Executable = \"app\";";
  RunningStats batch_disc;
  RunningStats batch_sel;
  RunningStats batch_campus;
  RunningStats batch_ifca;
  for (int i = 0; i < kJobsPerMethod; ++i) {
    const auto seed = static_cast<std::uint64_t>(4000 + i);
    if (const auto t = run_broker_submission(batch_jdl, campus, seed, false,
                                             false)) {
      batch_disc.add(t->discovery);
      batch_sel.add(t->selection);
      batch_campus.add(t->submission);
    }
    if (const auto t = run_broker_submission(batch_jdl, ifca, seed, false,
                                             false)) {
      batch_ifca.add(t->submission);
    }
  }

  TablePrinter table{{"Method", "Discovery", "Selection", "Submission campus",
                      "Submission IFCA", "Paper (campus)"}};
  table.add_row({"Glogin", "hand-made", "hand-made",
                 fmt_fixed(glogin_campus.mean(), 2),
                 fmt_fixed(glogin_ifca.mean(), 2), "16.43 / 20.12 IFCA"});
  table.add_row({"Idle (exclusive)", fmt_fixed(idle_disc.mean(), 2),
                 fmt_fixed(idle_sel.mean(), 2), fmt_fixed(idle_campus.mean(), 2),
                 fmt_fixed(idle_ifca.mean(), 2), "0.5 / 3 / 17.2"});
  table.add_row({"Virtual machine", "combined",
                 fmt_fixed(vm_lookup.mean(), 2), fmt_fixed(vm_campus.mean(), 2),
                 fmt_fixed(vm_ifca.mean(), 2), "(local) / 6.79"});
  table.add_row({"Job + agent", fmt_fixed(batch_disc.mean(), 2),
                 fmt_fixed(batch_sel.mean(), 2),
                 fmt_fixed(batch_campus.mean(), 2),
                 fmt_fixed(batch_ifca.mean(), 2), "0.5 / 3 / 29.3"});
  std::cout << table.render() << "\n";

  // The paper's headline claims, checked explicitly:
  bench::Claims claims;
  const double advantage =
      std::min(glogin_campus.mean(), idle_campus.mean()) / vm_campus.mean();
  claims.check("shared-VM startup advantage over best alternative: " +
                   fmt_fixed(advantage, 2) + "x (paper: >2x)",
               advantage > 2.0);
  claims.check("glogin slightly faster than exclusive (2PC premium)",
               glogin_campus.mean() < idle_campus.mean());
  claims.check("batch (job+agent) slowest",
               batch_campus.mean() > idle_campus.mean());
  return claims.exit_code();
}
