// End-to-end CrossBroker scenarios on the simulated testbed: the submission
// pipeline, the three placement paths of Figure 5, on-line scheduling
// resubmission, broker queueing, fair-share rejection, agent failure
// recovery, and MPI co-allocation.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>

#include "broker/grid_scenario.hpp"
#include "broker/workload_generator.hpp"

namespace cg::broker {
namespace {

using namespace cg::literals;

jdl::JobDescription parse_job(const std::string& source) {
  auto jd = jdl::JobDescription::parse(source);
  EXPECT_TRUE(jd.has_value()) << (jd ? "" : jd.error().to_string());
  return jd.value();
}

class BrokerFixture : public ::testing::Test {
protected:
  GridScenarioConfig default_config() {
    GridScenarioConfig c;
    c.sites = 3;
    c.nodes_per_site = 2;
    return c;
  }

  struct Outcome {
    std::vector<JobState> states;
    bool running = false;
    bool completed = false;
    bool failed = false;
    std::string error_code;
  };

  JobCallbacks watch(Outcome& outcome) {
    JobCallbacks cb;
    cb.on_state_change = [&outcome](const JobRecord& r) {
      outcome.states.push_back(r.state);
    };
    cb.on_running = [&outcome](const JobRecord&) { outcome.running = true; };
    cb.on_complete = [&outcome](const JobRecord&) { outcome.completed = true; };
    cb.on_failed = [&outcome](const JobRecord&, const Error& e) {
      outcome.failed = true;
      outcome.error_code = e.code;
    };
    return cb;
  }
};

TEST_F(BrokerFixture, BatchJobRunsInsideAgentBatchVm) {
  GridScenario grid{default_config()};
  Outcome outcome;
  const JobId id = grid.broker().submit(
      parse_job("Executable = \"sim\";"), UserId{1},
      lrms::Workload::cpu(60_s), GridScenario::ui_endpoint(), watch(outcome)).value();
  grid.sim().run();
  EXPECT_TRUE(outcome.completed);
  EXPECT_FALSE(outcome.failed);
  const JobRecord* record = grid.broker().record(id);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->state, JobState::kCompleted);
  EXPECT_EQ(record->placement, PlacementKind::kNewAgent);
  ASSERT_EQ(record->subjobs.size(), 1u);
  EXPECT_TRUE(record->subjobs[0].agent.has_value());
  // Pipeline phases were all stamped.
  EXPECT_TRUE(record->timestamps.discovery_done.has_value());
  EXPECT_TRUE(record->timestamps.selection_done.has_value());
  EXPECT_TRUE(record->timestamps.running.has_value());
  // Discovery paid the information-system latency (~0.5 s).
  EXPECT_GE((*record->timestamps.discovery_done -
             record->timestamps.submitted).to_seconds(), 0.5);
}

TEST_F(BrokerFixture, AgentDismissedAfterBatchCompletes) {
  GridScenario grid{default_config()};
  Outcome outcome;
  (void)grid.broker().submit(parse_job("Executable = \"sim\";"), UserId{1},
                       lrms::Workload::cpu(60_s), GridScenario::ui_endpoint(),
                       watch(outcome));
  grid.sim().run();
  EXPECT_TRUE(outcome.completed);
  // "After completion of the batch job, the agent leaves the machine."
  EXPECT_EQ(grid.broker().agents().total_agents(), 0);
  int free_total = 0;
  for (std::size_t i = 0; i < grid.site_count(); ++i) {
    free_total += grid.site(i).scheduler().free_nodes();
  }
  EXPECT_EQ(free_total, 6);  // everything returned to idle
}

TEST_F(BrokerFixture, InteractiveExclusiveRunsOnIdleMachine) {
  GridScenario grid{default_config()};
  Outcome outcome;
  const JobId id = grid.broker().submit(
      parse_job("Executable = \"viz\"; JobType = \"interactive\"; "
                "MachineAccess = \"exclusive\";"),
      UserId{1}, lrms::Workload::cpu(30_s), GridScenario::ui_endpoint(),
      watch(outcome)).value();
  grid.sim().run();
  EXPECT_TRUE(outcome.completed);
  const JobRecord* record = grid.broker().record(id);
  EXPECT_EQ(record->placement, PlacementKind::kIdleMachine);
  EXPECT_FALSE(record->subjobs[0].agent.has_value());
  EXPECT_EQ(grid.broker().agents().total_agents(), 0);  // no agent involved
}

TEST_F(BrokerFixture, SharedModeUsesExistingAgentVmAndIsFaster) {
  GridScenario grid{default_config()};
  // Run a long batch job first so an agent is resident on some node.
  Outcome batch;
  (void)grid.broker().submit(parse_job("Executable = \"background\";"), UserId{1},
                       lrms::Workload::cpu(3600_s), GridScenario::ui_endpoint(),
                       watch(batch));
  grid.sim().run_until(SimTime::from_seconds(120));
  ASSERT_TRUE(batch.running);
  ASSERT_EQ(grid.broker().agents().running_agents(), 1);

  // Now submit the interactive job in shared mode.
  Outcome inter;
  const SimTime submitted_at = grid.sim().now();
  const JobId id = grid.broker().submit(
      parse_job("Executable = \"viz\"; JobType = \"interactive\"; "
                "MachineAccess = \"shared\"; PerformanceLoss = 10;"),
      UserId{2}, lrms::Workload::cpu(10_s), GridScenario::ui_endpoint(),
      watch(inter)).value();
  grid.sim().run();
  EXPECT_TRUE(inter.completed);
  const JobRecord* record = grid.broker().record(id);
  EXPECT_EQ(record->placement, PlacementKind::kInteractiveVm);
  // The VM path skips discovery/selection: both timestamps collapse onto the
  // local lookup instant.
  EXPECT_EQ(*record->timestamps.discovery_done, *record->timestamps.selection_done);
  const double startup =
      (*record->timestamps.running - submitted_at).to_seconds();
  EXPECT_LT(startup, 8.0);  // Table I: ~6.8 s vs ~20 s for the other paths
  // The interactive job never waited on Globus or the LRMS queue.
  EXPECT_TRUE(batch.running);
}

TEST_F(BrokerFixture, SharedModeFallsBackToNewAgentOnIdleMachine) {
  GridScenario grid{default_config()};
  Outcome outcome;
  const JobId id = grid.broker().submit(
      parse_job("Executable = \"viz\"; JobType = \"interactive\"; "
                "MachineAccess = \"shared\";"),
      UserId{1}, lrms::Workload::cpu(10_s), GridScenario::ui_endpoint(),
      watch(outcome)).value();
  grid.sim().run();
  EXPECT_TRUE(outcome.completed);
  const JobRecord* record = grid.broker().record(id);
  // No agents existed, so the broker submitted agent + application together.
  EXPECT_EQ(record->placement, PlacementKind::kNewAgent);
  EXPECT_TRUE(record->subjobs[0].agent.has_value());
}

TEST_F(BrokerFixture, InteractiveFailsWhenGridFull) {
  GridScenarioConfig config = default_config();
  config.sites = 1;
  config.nodes_per_site = 1;
  GridScenario grid{config};
  // Fill the single node with a local batch job and saturate the queue so
  // not even an agent can be submitted.
  grid.saturate_with_local_batch(3600_s, UserId{9});
  grid.sim().run_until(SimTime::from_seconds(30));

  Outcome outcome;
  (void)grid.broker().submit(
      parse_job("Executable = \"viz\"; JobType = \"interactive\"; "
                "MachineAccess = \"exclusive\";"),
      UserId{1}, lrms::Workload::cpu(10_s), GridScenario::ui_endpoint(),
      watch(outcome));
  grid.sim().run_until(SimTime::from_seconds(300));
  EXPECT_TRUE(outcome.failed);
  EXPECT_FALSE(outcome.running);
  EXPECT_EQ(outcome.error_code, "broker.no_resources");
}

TEST_F(BrokerFixture, BatchQueuesInBrokerUntilMachineFrees) {
  GridScenarioConfig config = default_config();
  config.sites = 1;
  config.nodes_per_site = 1;
  GridScenario grid{config};
  grid.saturate_with_local_batch(600_s, UserId{9});
  grid.sim().run_until(SimTime::from_seconds(30));

  Outcome outcome;
  const JobId id = grid.broker().submit(
      parse_job("Executable = \"sim\";"), UserId{1}, lrms::Workload::cpu(20_s),
      GridScenario::ui_endpoint(), watch(outcome)).value();
  grid.sim().run_until(SimTime::from_seconds(400));
  const JobRecord* record = grid.broker().record(id);
  EXPECT_EQ(record->state, JobState::kQueuedBroker);
  EXPECT_EQ(grid.broker().broker_queue_length(), 1u);
  grid.sim().run();  // the 600 s local job ends; the poll picks ours up
  EXPECT_TRUE(outcome.completed);
}

TEST_F(BrokerFixture, FairShareRejectionUnderContention) {
  GridScenarioConfig config = default_config();
  config.sites = 1;
  config.nodes_per_site = 1;
  config.broker.reject_priority_threshold = 0.4;
  config.broker.fair_share.update_interval = 5_s;
  config.broker.fair_share.half_life = 300_s;
  GridScenario grid{config};

  // User 7 monopolizes the grid with a long interactive job first.
  Outcome first;
  (void)grid.broker().submit(
      parse_job("Executable = \"hog\"; JobType = \"interactive\";"), UserId{7},
      lrms::Workload::cpu(2000_s), GridScenario::ui_endpoint(), watch(first));
  grid.sim().run_until(SimTime::from_seconds(1000));
  ASSERT_TRUE(first.running);
  ASSERT_GT(grid.broker().fair_share().priority(UserId{7}), 0.4);

  // Their next submission hits a full grid and a degraded priority: reject.
  Outcome second;
  (void)grid.broker().submit(
      parse_job("Executable = \"hog2\"; JobType = \"interactive\";"), UserId{7},
      lrms::Workload::cpu(10_s), GridScenario::ui_endpoint(), watch(second));
  grid.sim().run_until(SimTime::from_seconds(1100));
  EXPECT_TRUE(second.failed);
  EXPECT_EQ(second.error_code, "broker.fair_share");
  const auto records = grid.broker().all_records();
  int rejected = 0;
  for (const auto* r : records) {
    if (r->state == JobState::kRejected) ++rejected;
  }
  EXPECT_EQ(rejected, 1);
}

TEST_F(BrokerFixture, OnlineSchedulingResubmitsWhenQueued) {
  // Stale index data: the broker believes site0 has a free node, but a local
  // job grabbed it after publication. The interactive job lands in the
  // queue, the queue detector cancels it, and the job is resubmitted to
  // another site.
  GridScenarioConfig config = default_config();
  config.sites = 2;
  config.nodes_per_site = 1;
  config.publication_period = 3600_s;  // effectively never republished
  // Make direct site queries return the stale scheduler view: free node
  // count only drops once the local job actually starts, so shorten LRMS
  // dispatch to race the selection phase.
  GridScenario grid{config};
  grid.sim().run_until(SimTime::from_seconds(1));

  // Occupy site0's only node directly, after the initial publication.
  lrms::LocalJob blocker;
  blocker.id = JobId{1ULL << 40};
  blocker.owner = UserId{9};
  blocker.workload = lrms::Workload::cpu(3600_s);
  ASSERT_TRUE(grid.site(0).scheduler().submit(std::move(blocker)));
  grid.sim().run_until(SimTime::from_seconds(10));

  Outcome outcome;
  const JobId id = grid.broker().submit(
      parse_job("Executable = \"viz\"; JobType = \"interactive\"; "
                "Rank = -other.FreeCPUs;"),  // prefer the fuller site: site0
      UserId{1}, lrms::Workload::cpu(10_s), GridScenario::ui_endpoint(),
      watch(outcome)).value();
  grid.sim().run_until(SimTime::from_seconds(300));
  const JobRecord* record = grid.broker().record(id);
  ASSERT_NE(record, nullptr);
  EXPECT_TRUE(outcome.completed)
      << "final state: " << to_string(record->state);
  // Fresh per-site queries make the broker skip the stale site via
  // matchmaking, or the queue detector fires; either way the job must have
  // ended up on site1.
  EXPECT_EQ(record->subjobs[0].site, grid.site(1).id());
}

TEST_F(BrokerFixture, AgentDeathFailsInteractiveAndResubmitsBatch) {
  GridScenario grid{default_config()};
  // Start a batch job (creates an agent) and an interactive job on the same
  // agent's interactive VM.
  Outcome batch;
  const JobId batch_id = grid.broker().submit(
      parse_job("Executable = \"sim\";"), UserId{1}, lrms::Workload::cpu(3600_s),
      GridScenario::ui_endpoint(), watch(batch)).value();
  grid.sim().run_until(SimTime::from_seconds(120));
  ASSERT_TRUE(batch.running);

  Outcome inter;
  (void)grid.broker().submit(
      parse_job("Executable = \"viz\"; JobType = \"interactive\"; "
                "MachineAccess = \"shared\"; PerformanceLoss = 10;"),
      UserId{2}, lrms::Workload::cpu(3600_s), GridScenario::ui_endpoint(),
      watch(inter));
  grid.sim().run_until(SimTime::from_seconds(240));
  ASSERT_TRUE(inter.running);

  // Kill the agent's carrier job at the LRMS level (e.g. qdel by the admin).
  const JobRecord* batch_record = grid.broker().record(batch_id);
  ASSERT_TRUE(batch_record->subjobs[0].agent.has_value());
  auto* agent = grid.broker().agents().find(*batch_record->subjobs[0].agent);
  ASSERT_NE(agent, nullptr);
  const JobId carrier = agent->carrier_job_id();
  bool killed = false;
  for (std::size_t i = 0; i < grid.site_count(); ++i) {
    if (grid.site(i).scheduler().kill_running(carrier)) {
      killed = true;
      break;
    }
  }
  ASSERT_TRUE(killed);
  grid.sim().run_until(SimTime::from_seconds(600));

  // The interactive job failed loudly; the batch job was resubmitted to a
  // new agent ("new agents will be submitted when possible").
  EXPECT_TRUE(inter.failed);
  EXPECT_EQ(inter.error_code, "broker.agent_died");
  const JobRecord* after = grid.broker().record(batch_id);
  EXPECT_FALSE(is_terminal(after->state));
  EXPECT_EQ(after->resubmissions, 1);
  grid.sim().run_until(SimTime::from_seconds(4200));
  EXPECT_TRUE(batch.completed);
}

TEST_F(BrokerFixture, MpichG2SpansSitesWithStartupBarrier) {
  GridScenarioConfig config = default_config();
  config.sites = 3;
  config.nodes_per_site = 2;
  GridScenario grid{config};
  Outcome outcome;
  const JobId id = grid.broker().submit(
      parse_job("Executable = \"mpi_app\"; "
                "JobType = {\"interactive\", \"mpich-g2\"}; NodeNumber = 5;"),
      UserId{1}, lrms::Workload::cpu(30_s), GridScenario::ui_endpoint(),
      watch(outcome)).value();
  grid.sim().run();
  EXPECT_TRUE(outcome.completed);
  const JobRecord* record = grid.broker().record(id);
  ASSERT_EQ(record->subjobs.size(), 5u);
  std::set<std::uint64_t> sites;
  for (const auto& sub : record->subjobs) sites.insert(sub.site.value());
  EXPECT_GE(sites.size(), 2u);  // co-allocation across sites
  // Barrier semantics: running fired only once, after every subjob started.
  EXPECT_TRUE(record->timestamps.running.has_value());
}

TEST_F(BrokerFixture, MpichP4ConstrainedToSingleSite) {
  GridScenarioConfig config = default_config();
  config.sites = 3;
  config.nodes_per_site = 2;
  GridScenario grid{config};
  Outcome outcome;
  const JobId id = grid.broker().submit(
      parse_job("Executable = \"mpi_app\"; "
                "JobType = {\"interactive\", \"mpich-p4\"}; NodeNumber = 2;"),
      UserId{1}, lrms::Workload::cpu(30_s), GridScenario::ui_endpoint(),
      watch(outcome)).value();
  grid.sim().run();
  EXPECT_TRUE(outcome.completed);
  const JobRecord* record = grid.broker().record(id);
  ASSERT_EQ(record->subjobs.size(), 2u);
  EXPECT_EQ(record->subjobs[0].site, record->subjobs[1].site);
}

TEST_F(BrokerFixture, MpichP4TooBigForAnySiteFails) {
  GridScenarioConfig config = default_config();
  config.sites = 3;
  config.nodes_per_site = 2;
  GridScenario grid{config};
  Outcome outcome;
  (void)grid.broker().submit(
      parse_job("Executable = \"mpi_app\"; "
                "JobType = {\"interactive\", \"mpich-p4\"}; NodeNumber = 4;"),
      UserId{1}, lrms::Workload::cpu(30_s), GridScenario::ui_endpoint(),
      watch(outcome));
  grid.sim().run();
  EXPECT_TRUE(outcome.failed);
}

TEST_F(BrokerFixture, RequirementsExcludeIncompatibleSites) {
  GridScenario grid{default_config()};
  Outcome outcome;
  (void)grid.broker().submit(
      parse_job("Executable = \"app\"; JobType = \"interactive\"; "
                "Requirements = other.Arch == \"ia64\";"),
      UserId{1}, lrms::Workload::cpu(10_s), GridScenario::ui_endpoint(),
      watch(outcome));
  grid.sim().run();
  // No ia64 site exists in the default scenario.
  EXPECT_TRUE(outcome.failed);
  EXPECT_EQ(outcome.error_code, "broker.no_resources");
}

TEST_F(BrokerFixture, MatchLeasesPreventDoubleBookingConcurrentSubmissions) {
  // Two interactive jobs submitted simultaneously into a grid with exactly
  // one free node each at two sites: without exclusive temporal access both
  // would pile onto the highest-ranked site.
  GridScenarioConfig config = default_config();
  config.sites = 2;
  config.nodes_per_site = 1;
  GridScenario grid{config};
  Outcome a;
  Outcome b;
  (void)grid.broker().submit(parse_job("Executable = \"i1\"; JobType = \"interactive\";"),
                       UserId{1}, lrms::Workload::cpu(600_s),
                       GridScenario::ui_endpoint(), watch(a));
  (void)grid.broker().submit(parse_job("Executable = \"i2\"; JobType = \"interactive\";"),
                       UserId{2}, lrms::Workload::cpu(600_s),
                       GridScenario::ui_endpoint(), watch(b));
  grid.sim().run_until(SimTime::from_seconds(300));
  EXPECT_TRUE(a.running);
  EXPECT_TRUE(b.running);
  const auto records = grid.broker().all_records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_NE(records[0]->subjobs[0].site, records[1]->subjobs[0].site);
}

TEST_F(BrokerFixture, PreloadAgentWarmsThePool) {
  GridScenarioConfig config = default_config();
  config.broker.dismiss_idle_agents = false;
  GridScenario grid{config};
  grid.broker().preload_agent(grid.site(0).id());
  grid.sim().run_until(SimTime::from_seconds(60));
  EXPECT_EQ(grid.broker().agents().running_agents(), 1);
  // A shared interactive job takes the warm VM immediately.
  Outcome outcome;
  const JobId id = grid.broker().submit(
      parse_job("Executable = \"viz\"; JobType = \"interactive\"; "
                "MachineAccess = \"shared\";"),
      UserId{1}, lrms::Workload::cpu(5_s), GridScenario::ui_endpoint(),
      watch(outcome)).value();
  grid.sim().run();
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(grid.broker().record(id)->placement, PlacementKind::kInteractiveVm);
}

TEST_F(BrokerFixture, CancelQueuedBatchJob) {
  GridScenarioConfig config = default_config();
  config.sites = 1;
  config.nodes_per_site = 1;
  GridScenario grid{config};
  grid.saturate_with_local_batch(3600_s, UserId{9});
  grid.sim().run_until(SimTime::from_seconds(30));

  Outcome outcome;
  const JobId id = grid.broker().submit(
      parse_job("Executable = \"sim\";"), UserId{1}, lrms::Workload::cpu(20_s),
      GridScenario::ui_endpoint(), watch(outcome)).value();
  grid.sim().run_until(SimTime::from_seconds(120));
  ASSERT_EQ(grid.broker().record(id)->state, JobState::kQueuedBroker);
  EXPECT_TRUE(grid.broker().cancel(id));
  EXPECT_EQ(grid.broker().broker_queue_length(), 0u);
  EXPECT_TRUE(outcome.failed);
  EXPECT_EQ(outcome.error_code, "broker.cancelled");
  EXPECT_FALSE(grid.broker().cancel(id));  // already terminal
  grid.sim().run();
  EXPECT_FALSE(outcome.completed);
}

TEST_F(BrokerFixture, CancelRunningInteractiveOnVmRestoresBatch) {
  GridScenario grid{default_config()};
  Outcome batch;
  const JobId batch_id = grid.broker().submit(
      parse_job("Executable = \"bg\";"), UserId{1},
      lrms::Workload::cpu(1000_s), GridScenario::ui_endpoint(), watch(batch)).value();
  grid.sim().run_until(SimTime::from_seconds(120));
  ASSERT_TRUE(batch.running);

  Outcome inter;
  const JobId inter_id = grid.broker().submit(
      parse_job("Executable = \"viz\"; JobType = \"interactive\"; "
                "MachineAccess = \"shared\"; PerformanceLoss = 10;"),
      UserId{2}, lrms::Workload::cpu(1000_s), GridScenario::ui_endpoint(),
      watch(inter)).value();
  grid.sim().run_until(SimTime::from_seconds(240));
  ASSERT_TRUE(inter.running);

  EXPECT_TRUE(grid.broker().cancel(inter_id));
  EXPECT_TRUE(inter.failed);
  EXPECT_EQ(inter.error_code, "broker.cancelled");
  // The batch job runs on, now undisturbed, and finishes in due course.
  grid.sim().run_until(SimTime::from_seconds(2000));
  EXPECT_TRUE(batch.completed) << to_string(grid.broker().record(batch_id)->state);
}

TEST_F(BrokerFixture, CancelRunningExclusiveKillsAtSite) {
  GridScenario grid{default_config()};
  Outcome outcome;
  const JobId id = grid.broker().submit(
      parse_job("Executable = \"viz\"; JobType = \"interactive\";"),
      UserId{1}, lrms::Workload::cpu(1000_s), GridScenario::ui_endpoint(),
      watch(outcome)).value();
  grid.sim().run_until(SimTime::from_seconds(120));
  ASSERT_TRUE(outcome.running);
  EXPECT_TRUE(grid.broker().cancel(id));
  grid.sim().run();
  EXPECT_FALSE(outcome.completed);
  // The node is free again.
  int free_total = 0;
  for (std::size_t i = 0; i < grid.site_count(); ++i) {
    free_total += grid.site(i).scheduler().free_nodes();
  }
  EXPECT_EQ(free_total, 6);
}

TEST_F(BrokerFixture, CancelUnknownJobReturnsFalse) {
  GridScenario grid{default_config()};
  EXPECT_FALSE(grid.broker().cancel(JobId{12345}));
}

TEST_F(BrokerFixture, MultiprogrammingDegreeHostsSeveralInteractiveJobs) {
  // With interactive_slots = 2 a single busy node can host two interactive
  // jobs at once ("a larger degree of multi-programming").
  GridScenarioConfig config = default_config();
  config.sites = 1;
  config.nodes_per_site = 1;
  config.broker.glidein.interactive_slots = 2;
  config.broker.dismiss_idle_agents = false;
  GridScenario grid{config};
  grid.broker().preload_agent(grid.site(0).id());
  grid.sim().run_until(SimTime::from_seconds(60));
  ASSERT_EQ(grid.broker().agents().running_agents(), 1);

  Outcome a;
  Outcome b;
  const std::string jdl =
      "Executable = \"viz\"; JobType = \"interactive\"; "
      "MachineAccess = \"shared\"; PerformanceLoss = 10;";
  const JobId id_a = grid.broker().submit(parse_job(jdl), UserId{1},
                                          lrms::Workload::cpu(60_s),
                                          GridScenario::ui_endpoint(), watch(a)).value();
  const JobId id_b = grid.broker().submit(parse_job(jdl), UserId{2},
                                          lrms::Workload::cpu(60_s),
                                          GridScenario::ui_endpoint(), watch(b)).value();
  grid.sim().run();
  EXPECT_TRUE(a.completed);
  EXPECT_TRUE(b.completed);
  EXPECT_EQ(grid.broker().record(id_a)->placement, PlacementKind::kInteractiveVm);
  EXPECT_EQ(grid.broker().record(id_b)->placement, PlacementKind::kInteractiveVm);
  // Both ran on the same (single-node) agent.
  EXPECT_EQ(*grid.broker().record(id_a)->subjobs[0].agent,
            *grid.broker().record(id_b)->subjobs[0].agent);
}

TEST_F(BrokerFixture, OutputSandboxDelaysCompletion) {
  GridScenario grid{default_config()};
  Outcome plain;
  Outcome with_output;
  (void)grid.broker().submit(parse_job("Executable = \"sim\";"), UserId{1},
                       lrms::Workload::cpu(60_s), GridScenario::ui_endpoint(),
                       watch(plain));
  const JobId out_id = grid.broker().submit(
      parse_job("Executable = \"sim\"; "
                "OutputSandbox = {\"a.dat\", \"b.dat\", \"c.dat\"};"),
      UserId{2}, lrms::Workload::cpu(60_s), GridScenario::ui_endpoint(),
      watch(with_output)).value();
  grid.sim().run();
  EXPECT_TRUE(plain.completed);
  EXPECT_TRUE(with_output.completed);
  const JobRecord* plain_record = grid.broker().all_records()[0];
  const JobRecord* out_record = grid.broker().record(out_id);
  const double plain_total =
      (*plain_record->timestamps.completed - *plain_record->timestamps.running)
          .to_seconds();
  const double out_total =
      (*out_record->timestamps.completed - *out_record->timestamps.running)
          .to_seconds();
  // 3 x 1 MB over the campus link adds ~0.25 s of stage-out.
  EXPECT_GT(out_total, plain_total + 0.1);
}

TEST_F(BrokerFixture, HeterogeneousGridRespectsRequirements) {
  // Sites 0-1 are i686, site 2 is x86_64; a job demanding x86_64 must land
  // on site 2 every time.
  GridScenarioConfig config = default_config();
  config.customize_site = [](int index, lrms::SiteConfig& site) {
    site.arch = index == 2 ? "x86_64" : "i686";
  };
  GridScenario grid{config};
  for (int round = 0; round < 3; ++round) {
    Outcome outcome;
    const JobId id = grid.broker().submit(
        parse_job("Executable = \"a\"; JobType = \"interactive\"; "
                  "Requirements = other.Arch == \"x86_64\";"),
        UserId{1}, lrms::Workload::cpu(10_s), GridScenario::ui_endpoint(),
        watch(outcome)).value();
    grid.sim().run();
    ASSERT_TRUE(outcome.completed) << "round " << round;
    EXPECT_EQ(grid.broker().record(id)->subjobs[0].site, grid.site(2).id());
  }
}

TEST_F(BrokerFixture, SiteFailureKillsJobAndBrokerRecoversElsewhere) {
  GridScenarioConfig config = default_config();
  config.sites = 2;
  config.nodes_per_site = 2;
  GridScenario grid{config};

  // A batch job lands somewhere (inside an agent).
  Outcome outcome;
  const JobId id = grid.broker().submit(
      parse_job("Executable = \"sim\";"), UserId{1},
      lrms::Workload::cpu(600_s), GridScenario::ui_endpoint(), watch(outcome)).value();
  grid.sim().run_until(SimTime::from_seconds(120));
  ASSERT_TRUE(outcome.running);
  const SiteId first_site = *grid.broker().record(id)->site();

  // That site dies.
  for (std::size_t i = 0; i < grid.site_count(); ++i) {
    if (grid.site(i).id() == first_site) grid.take_site_offline(i);
  }
  grid.sim().run_until(SimTime::from_seconds(1200));

  // The broker resubmitted the batch job; it must complete on the OTHER site.
  const JobRecord* record = grid.broker().record(id);
  EXPECT_TRUE(outcome.completed) << to_string(record->state);
  EXPECT_GE(record->resubmissions, 1);
  EXPECT_NE(*record->site(), first_site);
}

TEST_F(BrokerFixture, TraceRecordsTheFullLifecycle) {
  obs::Observability obs;
  GridScenario grid{default_config()};
  grid.broker().set_observability(&obs);
  const obs::JobTracer& trace = obs.tracer;
  Outcome outcome;
  const JobId id = grid.broker().submit(
      parse_job("Executable = \"sim\";"), UserId{1}, lrms::Workload::cpu(30_s),
      GridScenario::ui_endpoint(), watch(outcome)).value();
  grid.sim().run();
  ASSERT_TRUE(outcome.completed);

  // One submission event, a match per subjob, and the carrying glide-in.
  EXPECT_EQ(trace.count(obs::TraceEventKind::kSubmitted), 1u);
  EXPECT_GE(trace.count(obs::TraceEventKind::kMatched), 1u);
  EXPECT_GE(trace.count(obs::TraceEventKind::kAgentDeployed), 1u);
  // Events are time-ordered.
  for (std::size_t i = 1; i < trace.events().size(); ++i) {
    EXPECT_LE(trace.events()[i - 1].when, trace.events()[i].when);
  }
  // Per-job filtering works, and the job's trail ends with its completion.
  const auto mine = trace.for_job(id);
  ASSERT_FALSE(mine.empty());
  for (const auto& event : mine) EXPECT_EQ(event.job, id);
  EXPECT_EQ(mine.back().kind, obs::TraceEventKind::kCompleted);
  EXPECT_EQ(mine.back().detail, "completed");
  // The rendering names the job.
  EXPECT_NE(trace.render().find("job-" + std::to_string(id.value())),
            std::string::npos);
}

TEST_F(BrokerFixture, TraceRecordsResubmissions) {
  GridScenarioConfig config = default_config();
  config.sites = 2;
  config.nodes_per_site = 1;
  obs::Observability obs;
  GridScenario grid{config};
  grid.broker().set_observability(&obs);

  Outcome outcome;
  const JobId id = grid.broker().submit(
      parse_job("Executable = \"sim\";"), UserId{1},
      lrms::Workload::cpu(600_s), GridScenario::ui_endpoint(), watch(outcome)).value();
  grid.sim().run_until(SimTime::from_seconds(120));
  ASSERT_TRUE(outcome.running);
  const SiteId first_site = *grid.broker().record(id)->site();
  for (std::size_t i = 0; i < grid.site_count(); ++i) {
    if (grid.site(i).id() == first_site) grid.take_site_offline(i);
  }
  grid.sim().run_until(SimTime::from_seconds(2000));
  EXPECT_GE(obs.tracer.count(obs::TraceEventKind::kResubmitted), 1u);
}

TEST_F(BrokerFixture, SupervisionTicksProbeExactlyTheRegisteredAgents) {
  // Both supervision channels tick every interval and must visit each agent
  // whose AgentRegister arrived before the tick, and no other: an agent is
  // first probed by the first tick after it registers, and a dismissed
  // agent is never probed again. Agents are preloaded at staggered times so
  // they register between ticks; the one that runs a job is dismissed.
  const GridScenarioConfig config = default_config();
  const Duration interval = config.broker.agent_heartbeat_interval;
  ASSERT_EQ(config.broker.liveness_probe_interval, interval);
  obs::Observability obs;
  GridScenario grid{config};
  CrossBroker& broker = grid.broker();
  broker.set_observability(&obs);
  const auto heartbeats = [&] {
    return obs.metrics.counter("net.msg.sent", {{"type", "Heartbeat"}}).value();
  };
  const auto liveness_probes = [&] {
    return obs.metrics.counter("broker.liveness_probes").value();
  };
  const auto registrations = [&] {
    return obs.metrics.counter("net.msg.delivered", {{"type", "AgentRegister"}})
        .value();
  };

  // Agents are created, and so register, in preload order.
  std::vector<AgentId> agents;
  const std::array<SimTime, 3> preload_at{SimTime::from_seconds(12),
                                          SimTime::from_seconds(33),
                                          SimTime::from_seconds(51)};
  for (std::size_t i = 0; i < preload_at.size(); ++i) {
    grid.sim().schedule_at(preload_at[i], [&, i] {
      broker.preload_agent(grid.site(i).id());
      agents.push_back(broker.agents().agents().back()->id());
    });
  }
  Outcome outcome;
  JobId job;
  grid.sim().schedule_at(SimTime::from_seconds(75), [&] {
    job = broker
              .submit(parse_job("Executable = \"viz\"; JobType = \"interactive\"; "
                                "MachineAccess = \"shared\";"),
                      UserId{1}, lrms::Workload::cpu(20_s),
                      GridScenario::ui_endpoint(), watch(outcome))
              .value();
  });

  std::map<AgentId, std::uint64_t> ticks_visited;
  std::vector<std::size_t> visited_per_tick;
  for (int k = 1; k <= 15; ++k) {
    const SimTime tick_at = SimTime::zero() + interval * k;
    grid.sim().run_until(tick_at - Duration::micros(1));
    // Every probe of the earlier ticks has been echoed by now: an agent has
    // processed exactly one probe per tick since its registration.
    for (glidein::GlideinAgent* agent : broker.agents().agents()) {
      EXPECT_EQ(agent->last_echoed_probe(), ticks_visited[agent->id()])
          << "agent " << agent->id().value() << " before tick " << k;
    }
    // The tick must visit every registered agent that is still deployed.
    const std::uint64_t registered = registrations();
    ASSERT_LE(registered, agents.size());
    std::vector<AgentId> expected;
    for (std::size_t i = 0; i < registered; ++i) {
      if (broker.agents().find(agents[i]) != nullptr) expected.push_back(agents[i]);
    }
    const std::uint64_t heartbeats_before = heartbeats();
    const std::uint64_t probes_before = liveness_probes();
    grid.sim().run_until(tick_at);
    ASSERT_EQ(registrations(), registered) << "registration at tick " << k;
    EXPECT_EQ(heartbeats() - heartbeats_before, expected.size()) << "tick " << k;
    EXPECT_EQ(liveness_probes() - probes_before, expected.size()) << "tick " << k;
    for (const AgentId id : expected) ++ticks_visited[id];
    visited_per_tick.push_back(expected.size());
  }

  // The staggered registrations and the dismissal all happened between
  // ticks: the visited set grew one agent at a time, then shrank by one.
  ASSERT_TRUE(outcome.completed);
  ASSERT_EQ(agents.size(), 3u);
  const AgentId dismissed = *broker.record(job)->subjobs.front().agent;
  EXPECT_EQ(broker.agents().find(dismissed), nullptr);
  EXPECT_EQ(broker.agents().total_agents(), 2);
  for (const std::size_t n : {0u, 1u, 2u, 3u}) {
    EXPECT_NE(std::find(visited_per_tick.begin(), visited_per_tick.end(), n),
              visited_per_tick.end())
        << "no tick visited " << n << " agents";
  }
  EXPECT_EQ(visited_per_tick.back(), 2u);
}

TEST_F(BrokerFixture, BspWorkloadGatedBySlowestRank) {
  // A 3-rank MPICH-G2 job with barrier supersteps; one site's nodes are half
  // speed, so every superstep takes the slow rank's time for ALL ranks.
  GridScenarioConfig config = default_config();
  config.sites = 3;
  config.nodes_per_site = 1;
  config.customize_site = [](int index, lrms::SiteConfig& site) {
    site.cpu_speed = index == 0 ? 0.5 : 1.0;  // site 0 is half speed
  };
  GridScenario grid{config};

  std::map<int, std::vector<double>> barrier_waits;  // rank -> waits (s)
  Outcome outcome;
  JobCallbacks callbacks = watch(outcome);
  callbacks.phase_observer = [&](const lrms::Phase& phase, Duration measured) {
    if (phase.kind == lrms::PhaseKind::kBarrier) {
      barrier_waits[0].push_back(measured.to_seconds());  // aggregated
    }
  };
  std::optional<SimTime> running_at;
  std::optional<SimTime> completed_at;
  callbacks.on_running = [&](const JobRecord&) {
    outcome.running = true;
    running_at = grid.sim().now();
  };
  callbacks.on_complete = [&](const JobRecord&) {
    outcome.completed = true;
    completed_at = grid.sim().now();
  };

  (void)grid.broker().submit(
      parse_job("Executable = \"bsp\"; JobType = {\"interactive\", "
                "\"mpich-g2\"}; NodeNumber = 3;"),
      UserId{1}, lrms::Workload::bulk_synchronous(4, 10_s),
      GridScenario::ui_endpoint(), callbacks);
  grid.sim().run();
  ASSERT_TRUE(outcome.completed);
  // 4 supersteps gated by the half-speed rank: ~4 x 20 s of compute.
  const double wall = (*completed_at - *running_at).to_seconds();
  EXPECT_NEAR(wall, 80.0, 2.0);
  // Fast ranks waited at barriers (measured wait > 0 for some), slow rank
  // did not; with 3 ranks x 4 barriers = 12 observations.
  ASSERT_EQ(barrier_waits[0].size(), 12u);
  int positive_waits = 0;
  for (const double w : barrier_waits[0]) {
    if (w > 1.0) ++positive_waits;
  }
  EXPECT_EQ(positive_waits, 8);  // the two fast ranks wait at every barrier
}

TEST_F(BrokerFixture, WorkloadGeneratorDrivesMixedLoad) {
  GridScenario grid{default_config()};
  WorkloadGeneratorConfig load;
  load.batch_interarrival = 300_s;
  load.batch_runtime = 600_s;
  load.interactive_interarrival = 600_s;
  load.interactive_runtime = 60_s;
  load.horizon = SimTime::from_seconds(2 * 3600);
  load.seed = 11;
  WorkloadGenerator generator{grid.sim(), grid.broker(), load};
  generator.start();
  grid.sim().run_until(SimTime::from_seconds(3 * 3600));

  const WorkloadStats& stats = generator.stats();
  EXPECT_GT(stats.batch_submitted, 10);
  EXPECT_GT(stats.interactive_submitted, 5);
  // With a lightly loaded 6-node grid everything should complete.
  EXPECT_EQ(stats.batch_completed, stats.batch_submitted);
  EXPECT_EQ(stats.interactive_completed, stats.interactive_submitted);
  EXPECT_EQ(stats.interactive_failed, 0);
  EXPECT_GT(stats.interactive_startup_s.mean(), 0.0);
}

TEST_F(BrokerFixture, WorkloadGeneratorDeterministicPerSeed) {
  const auto run = [this] {
    GridScenario grid{default_config()};
    WorkloadGeneratorConfig load;
    load.horizon = SimTime::from_seconds(3600);
    load.seed = 99;
    WorkloadGenerator generator{grid.sim(), grid.broker(), load};
    generator.start();
    grid.sim().run_until(SimTime::from_seconds(2 * 3600));
    return std::make_tuple(generator.stats().batch_submitted,
                           generator.stats().interactive_submitted,
                           generator.stats().interactive_startup_s.mean());
  };
  EXPECT_EQ(run(), run());
}

TEST_F(BrokerFixture, RetryCountZeroFailsWithoutResubmission) {
  // A job declaring RetryCount = 0 gives up on the first placement failure
  // instead of using the broker's default budget.
  GridScenarioConfig config = default_config();
  config.sites = 2;
  config.nodes_per_site = 1;
  GridScenario grid{config};

  Outcome outcome;
  const JobId id = grid.broker().submit(
      parse_job("Executable = \"sim\"; RetryCount = 0;"), UserId{1},
      lrms::Workload::cpu(600_s), GridScenario::ui_endpoint(), watch(outcome)).value();
  grid.sim().run_until(SimTime::from_seconds(120));
  ASSERT_TRUE(outcome.running);
  const SiteId first_site = *grid.broker().record(id)->site();
  for (std::size_t i = 0; i < grid.site_count(); ++i) {
    if (grid.site(i).id() == first_site) grid.take_site_offline(i);
  }
  grid.sim().run_until(SimTime::from_seconds(2000));
  EXPECT_TRUE(outcome.failed);
  EXPECT_EQ(outcome.error_code, "broker.retries_exhausted");
  EXPECT_EQ(grid.broker().record(id)->resubmissions, 0);
}

TEST_F(BrokerFixture, CancelDuringDiscoveryAbortsCleanly) {
  GridScenario grid{default_config()};
  Outcome outcome;
  const JobId id = grid.broker().submit(
      parse_job("Executable = \"sim\";"), UserId{1}, lrms::Workload::cpu(30_s),
      GridScenario::ui_endpoint(), watch(outcome)).value();
  // The index query takes 0.5 s; cancel at 0.2 s, mid-discovery.
  grid.sim().schedule(Duration::millis(200),
                      [&] { EXPECT_TRUE(grid.broker().cancel(id)); });
  grid.sim().run();
  EXPECT_TRUE(outcome.failed);
  EXPECT_EQ(outcome.error_code, "broker.cancelled");
  EXPECT_FALSE(outcome.running);
  // Nothing leaked: no agents, all nodes idle, no leases.
  EXPECT_EQ(grid.broker().agents().total_agents(), 0);
  EXPECT_EQ(grid.broker().leases().active_leases(), 0u);
}

TEST_F(BrokerFixture, MpichP4SharedRunsOnSingleSiteVms) {
  // Two free interactive VMs on ONE site must be able to host a 2-process
  // MPICH-P4 shared job (single-site constraint + VM path combined).
  GridScenarioConfig config = default_config();
  config.sites = 2;
  config.nodes_per_site = 2;
  config.broker.dismiss_idle_agents = false;
  GridScenario grid{config};
  grid.broker().preload_agent(grid.site(0).id());
  grid.broker().preload_agent(grid.site(0).id());
  grid.broker().preload_agent(grid.site(1).id());
  grid.sim().run_until(SimTime::from_seconds(60));
  ASSERT_EQ(grid.broker().agents().running_agents(), 3);

  Outcome outcome;
  const JobId id = grid.broker().submit(
      parse_job("Executable = \"mpi\"; JobType = {\"interactive\", "
                "\"mpich-p4\"}; NodeNumber = 2; MachineAccess = \"shared\";"),
      UserId{1}, lrms::Workload::cpu(30_s), GridScenario::ui_endpoint(),
      watch(outcome)).value();
  grid.sim().run();
  ASSERT_TRUE(outcome.completed) << outcome.error_code;
  const JobRecord* record = grid.broker().record(id);
  EXPECT_EQ(record->placement, PlacementKind::kInteractiveVm);
  ASSERT_EQ(record->subjobs.size(), 2u);
  // Single-site constraint held on the VM path.
  EXPECT_EQ(record->subjobs[0].site, record->subjobs[1].site);
  EXPECT_EQ(record->subjobs[0].site, grid.site(0).id());
}

TEST_F(BrokerFixture, InteractiveOnVmReducesBatchUsersCharge) {
  // Section 5.1: the batch job forced to yield is charged a_f = PL/100.
  GridScenario grid{default_config()};
  Outcome batch;
  (void)grid.broker().submit(parse_job("Executable = \"bg\";"), UserId{1},
                       lrms::Workload::cpu(3600_s), GridScenario::ui_endpoint(),
                       watch(batch));
  grid.sim().run_until(SimTime::from_seconds(120));
  ASSERT_TRUE(batch.running);
  const double usage_before =
      grid.broker().fair_share().instantaneous_usage(UserId{1});
  ASSERT_GT(usage_before, 0.0);

  Outcome inter;
  (void)grid.broker().submit(
      parse_job("Executable = \"viz\"; JobType = \"interactive\"; "
                "MachineAccess = \"shared\"; PerformanceLoss = 20;"),
      UserId{2}, lrms::Workload::cpu(600_s), GridScenario::ui_endpoint(),
      watch(inter));
  grid.sim().run_until(SimTime::from_seconds(300));
  ASSERT_TRUE(inter.running);
  const double usage_during =
      grid.broker().fair_share().instantaneous_usage(UserId{1});
  // a_f dropped from 1.0 to 0.20 while yielding.
  EXPECT_NEAR(usage_during / usage_before, 0.20, 1e-9);
  // And is restored when the interactive job completes.
  grid.sim().run_until(SimTime::from_seconds(3000));
  EXPECT_TRUE(inter.completed);
  EXPECT_NEAR(grid.broker().fair_share().instantaneous_usage(UserId{1}),
              usage_before, 1e-9);
}

TEST_F(BrokerFixture, InteractiveNeverPreemptsInteractive) {
  // "An interactive application will never pre-empt another already-running
  // interactive application." With the single VM taken by an interactive
  // job and no idle machines, a new shared submission must fail — not evict.
  GridScenarioConfig config = default_config();
  config.sites = 1;
  config.nodes_per_site = 1;
  config.broker.dismiss_idle_agents = false;
  GridScenario grid{config};
  grid.broker().preload_agent(grid.site(0).id());
  grid.sim().run_until(SimTime::from_seconds(60));

  Outcome first;
  (void)grid.broker().submit(
      parse_job("Executable = \"v1\"; JobType = \"interactive\"; "
                "MachineAccess = \"shared\";"),
      UserId{1}, lrms::Workload::cpu(3600_s), GridScenario::ui_endpoint(),
      watch(first));
  grid.sim().run_until(SimTime::from_seconds(120));
  ASSERT_TRUE(first.running);

  Outcome second;
  (void)grid.broker().submit(
      parse_job("Executable = \"v2\"; JobType = \"interactive\"; "
                "MachineAccess = \"shared\";"),
      UserId{2}, lrms::Workload::cpu(60_s), GridScenario::ui_endpoint(),
      watch(second));
  grid.sim().run_until(SimTime::from_seconds(600));
  EXPECT_TRUE(second.failed);
  EXPECT_EQ(second.error_code, "broker.no_resources");
  // The first job was never disturbed.
  EXPECT_FALSE(first.failed);
  grid.sim().run_until(SimTime::from_seconds(5000));
  EXPECT_TRUE(first.completed);
}

TEST_F(BrokerFixture, SubmitValidation) {
  GridScenario grid{default_config()};
  // An invalid user is refused up front with a typed reason, not a throw.
  const auto refused = grid.broker().submit(parse_job("Executable = \"x\";"),
                                            UserId{}, lrms::Workload::cpu(1_s),
                                            "ui", {});
  ASSERT_FALSE(refused);
  EXPECT_EQ(refused.error().kind, SubmitErrorKind::kBadDescription);
  EXPECT_EQ(refused.error().cause.code, "broker.invalid_user");
  EXPECT_EQ(grid.broker().record(JobId{999}), nullptr);
}

}  // namespace
}  // namespace cg::broker
