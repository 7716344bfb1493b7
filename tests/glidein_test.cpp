// Glide-in tests: the VM CPU-sharing model (calibrated against Figure 8),
// agent lifecycle and slot management.
#include <gtest/gtest.h>

#include "glidein/agent.hpp"

namespace cg::glidein {
namespace {

using namespace cg::literals;

// ---------------------------------------------------------------- model ----

TEST(VmModelTest, EmptyMachineNoDilation) {
  const VmDilations d = compute_dilations(VmModelConfig{}, 25, false, false);
  EXPECT_EQ(d.interactive_cpu, 1.0);
  EXPECT_EQ(d.batch_cpu, 1.0);
}

TEST(VmModelTest, LoneJobPaysOnlyAgentOverhead) {
  VmModelConfig config;
  config.agent_overhead = 0.001;
  const VmDilations d = compute_dilations(config, 25, true, false);
  // Fig. 8: exclusive and shared-alone are indistinguishable.
  EXPECT_NEAR(d.interactive_cpu, 1.001, 1e-9);
  EXPECT_NEAR(d.interactive_io, 1.001, 1e-9);
}

// Property sweep over the PerformanceLoss domain (Fig. 8 calibration):
// the measured CPU overhead must land close below the nominal PL, and I/O
// overhead must stay well under the CPU overhead.
class VmModelSweep : public ::testing::TestWithParam<int> {};

TEST_P(VmModelSweep, CpuOverheadTracksPerformanceLoss) {
  const int pl = GetParam();
  const VmDilations d = compute_dilations(VmModelConfig{}, pl, true, true);
  const double cpu_overhead = d.interactive_cpu - 1.0;
  const double nominal = static_cast<double>(pl) / 100.0;
  EXPECT_LE(cpu_overhead, nominal + 0.005) << "PL=" << pl;
  EXPECT_GE(cpu_overhead, nominal * 0.75) << "PL=" << pl;
}

TEST_P(VmModelSweep, IoOverheadSmallerThanCpuOverhead) {
  const int pl = GetParam();
  if (pl == 0) return;
  const VmDilations d = compute_dilations(VmModelConfig{}, pl, true, true);
  EXPECT_LT(d.interactive_io - 1.0, d.interactive_cpu - 1.0);
  EXPECT_GT(d.interactive_io, 1.0);
}

INSTANTIATE_TEST_SUITE_P(PerformanceLoss, VmModelSweep,
                         ::testing::Values(5, 10, 15, 20, 25, 30, 40, 50));

TEST(VmModelTest, PaperNumbersPl10AndPl25) {
  // Paper: PL=10 -> ~8% CPU / ~5% I/O; PL=25 -> ~22% CPU / ~10% I/O.
  const VmDilations pl10 = compute_dilations(VmModelConfig{}, 10, true, true);
  EXPECT_NEAR(pl10.interactive_cpu, 1.08, 0.015);
  EXPECT_NEAR(pl10.interactive_io, 1.05, 0.01);
  const VmDilations pl25 = compute_dilations(VmModelConfig{}, 25, true, true);
  EXPECT_NEAR(pl25.interactive_cpu, 1.22, 0.02);
  EXPECT_NEAR(pl25.interactive_io, 1.10, 0.015);
}

TEST(VmModelTest, BatchJobSlowsHeavilyWhileYielding) {
  const VmDilations d = compute_dilations(VmModelConfig{}, 10, true, true);
  EXPECT_GT(d.batch_cpu, 3.0);  // batch gets ~PL% of the CPU
}

TEST(VmModelTest, InvalidPlThrows) {
  EXPECT_THROW((void)compute_dilations(VmModelConfig{}, -1, true, true),
               std::invalid_argument);
  EXPECT_THROW((void)compute_dilations(VmModelConfig{}, 101, true, true),
               std::invalid_argument);
}

// ---------------------------------------------------------------- agent ----

class AgentFixture : public ::testing::Test {
protected:
  AgentFixture() {
    config.bootstrap_time = 2_s;
    config.job_start_overhead = 500_ms;
  }

  SlotJob make_job(std::uint64_t id, lrms::Workload workload) {
    SlotJob job;
    job.id = JobId{id};
    job.owner = UserId{1};
    job.workload = std::move(workload);
    return job;
  }

  sim::Simulation sim;
  GlideinAgentConfig config;
};

TEST_F(AgentFixture, LifecyclePendingRunningDead) {
  GlideinAgent agent{sim, AgentId{1}, SiteId{1}, config};
  EXPECT_EQ(agent.state(), AgentState::kPending);
  std::vector<AgentState> states;
  agent.set_state_observer([&](AgentState s) { states.push_back(s); });
  agent.on_carrier_started(NodeId{3});
  sim.run();
  EXPECT_EQ(agent.state(), AgentState::kRunning);
  EXPECT_EQ(sim.now().to_seconds(), 2.0);  // bootstrap time
  EXPECT_EQ(agent.node(), NodeId{3});
  agent.on_carrier_killed();
  EXPECT_EQ(agent.state(), AgentState::kDead);
  EXPECT_EQ(states,
            (std::vector<AgentState>{AgentState::kRunning, AgentState::kDead}));
}

TEST_F(AgentFixture, SlotRejectsJobsBeforeRunning) {
  GlideinAgent agent{sim, AgentId{1}, SiteId{1}, config};
  const Status s = agent.start_batch_job(make_job(1, lrms::Workload::cpu(1_s)));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, "glidein.not_running");
}

TEST_F(AgentFixture, SlotBusyRejected) {
  GlideinAgent agent{sim, AgentId{1}, SiteId{1}, config};
  agent.on_carrier_started(NodeId{1});
  sim.run();
  EXPECT_TRUE(agent.start_batch_job(make_job(1, lrms::Workload::cpu(10_s))).ok());
  const Status s = agent.start_batch_job(make_job(2, lrms::Workload::cpu(1_s)));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, "glidein.slot_busy");
}

TEST_F(AgentFixture, InteractiveJobDilatesWithCoResidentBatch) {
  // Reproduce the Fig. 8 structure in miniature: batch on the batch-vm,
  // interactive iterating (IO + CPU) on the interactive-vm at PL=25.
  GlideinAgent agent{sim, AgentId{1}, SiteId{1}, config};
  agent.on_carrier_started(NodeId{1});
  sim.run();

  ASSERT_TRUE(agent.start_batch_job(make_job(1, lrms::Workload::manual())).ok());
  std::vector<double> cpu_times;
  SlotJob interactive = make_job(2, lrms::Workload::iterative(10, 6_ms, 921_ms));
  interactive.phase_observer = [&](const lrms::Phase& phase, Duration measured) {
    if (phase.kind == lrms::PhaseKind::kCpu) {
      cpu_times.push_back(measured.to_seconds());
    }
  };
  bool completed = false;
  interactive.on_complete = [&] { completed = true; };
  ASSERT_TRUE(agent.start_interactive_job(std::move(interactive), 25).ok());
  sim.run();
  ASSERT_TRUE(completed);
  ASSERT_EQ(cpu_times.size(), 10u);
  // PL=25 with default duty cycle -> ~21% dilation (paper measured 22%).
  for (const double t : cpu_times) {
    EXPECT_NEAR(t, 0.921 * 1.2136, 0.01);
  }
}

TEST_F(AgentFixture, BatchSpeedsUpWhenInteractiveCompletes) {
  GlideinAgent agent{sim, AgentId{1}, SiteId{1}, config};
  agent.on_carrier_started(NodeId{1});
  sim.run();
  const SimTime agent_up = sim.now();

  bool batch_done = false;
  SlotJob batch = make_job(1, lrms::Workload::cpu(100_s));
  batch.on_complete = [&] { batch_done = true; };
  ASSERT_TRUE(agent.start_batch_job(std::move(batch)).ok());

  SlotJob interactive = make_job(2, lrms::Workload::cpu(10_s));
  ASSERT_TRUE(agent.start_interactive_job(std::move(interactive), 10).ok());
  sim.run();
  EXPECT_TRUE(batch_done);
  // While the interactive job ran (~11 s), the batch job crawled; its total
  // runtime must far exceed 100 s of an idle machine but be finite.
  const double total = (sim.now() - agent_up).to_seconds();
  EXPECT_GT(total, 100.0);
  EXPECT_LT(total, 160.0);
}

TEST_F(AgentFixture, CancelSlotDropsPendingStart) {
  GlideinAgent agent{sim, AgentId{1}, SiteId{1}, config};
  agent.on_carrier_started(NodeId{1});
  sim.run();
  bool started = false;
  SlotJob job = make_job(1, lrms::Workload::cpu(1_s));
  job.on_start = [&] { started = true; };
  ASSERT_TRUE(agent.start_batch_job(std::move(job)).ok());
  agent.cancel_slot(SlotType::kBatch);  // before job_start_overhead elapses
  sim.run();
  EXPECT_FALSE(started);
  EXPECT_FALSE(agent.batch_vm_busy());
}

TEST_F(AgentFixture, ReusedSlotEpochGuard) {
  // Cancel a pending start, immediately start another job on the same slot:
  // the stale start event must not double-start the new job.
  GlideinAgent agent{sim, AgentId{1}, SiteId{1}, config};
  agent.on_carrier_started(NodeId{1});
  sim.run();
  ASSERT_TRUE(agent.start_batch_job(make_job(1, lrms::Workload::cpu(1_s))).ok());
  agent.cancel_slot(SlotType::kBatch);
  int starts = 0;
  SlotJob job2 = make_job(2, lrms::Workload::cpu(1_s));
  job2.on_start = [&] { ++starts; };
  ASSERT_TRUE(agent.start_batch_job(std::move(job2)).ok());
  sim.run();
  EXPECT_EQ(starts, 1);
}

TEST_F(AgentFixture, CarrierKilledCancelsResidents) {
  GlideinAgent agent{sim, AgentId{1}, SiteId{1}, config};
  agent.on_carrier_started(NodeId{1});
  sim.run();
  bool batch_completed = false;
  SlotJob batch = make_job(1, lrms::Workload::cpu(5_s));
  batch.on_complete = [&] { batch_completed = true; };
  ASSERT_TRUE(agent.start_batch_job(std::move(batch)).ok());
  sim.run_until(sim.now() + 1_s);
  agent.on_carrier_killed();
  sim.run();
  EXPECT_FALSE(batch_completed);
  EXPECT_FALSE(agent.batch_vm_busy());
}

TEST_F(AgentFixture, InteractiveVmFreeSemantics) {
  GlideinAgent agent{sim, AgentId{1}, SiteId{1}, config};
  EXPECT_FALSE(agent.interactive_vm_free());  // not running yet
  agent.on_carrier_started(NodeId{1});
  sim.run();
  EXPECT_TRUE(agent.interactive_vm_free());
  ASSERT_TRUE(
      agent.start_interactive_job(make_job(1, lrms::Workload::cpu(5_s)), 0).ok());
  EXPECT_FALSE(agent.interactive_vm_free());
  sim.run();
  EXPECT_TRUE(agent.interactive_vm_free());  // job done, slot free again
}

TEST_F(AgentFixture, CancelInteractiveJobById) {
  GlideinAgent agent{sim, AgentId{1}, SiteId{1}, config};
  agent.on_carrier_started(NodeId{1});
  sim.run();
  bool completed = false;
  SlotJob job = make_job(5, lrms::Workload::cpu(10_s));
  job.on_complete = [&] { completed = true; };
  ASSERT_TRUE(agent.start_interactive_job(std::move(job), 10).ok());
  EXPECT_FALSE(agent.cancel_interactive_job(JobId{99}));
  EXPECT_TRUE(agent.cancel_interactive_job(JobId{5}));
  sim.run();
  EXPECT_FALSE(completed);
  EXPECT_TRUE(agent.interactive_vm_free());
}

// -- degree of multiprogramming > 1 (the paper's future-work extension) -----

class MultiSlotFixture : public ::testing::Test {
protected:
  MultiSlotFixture() {
    config.interactive_slots = 3;
    config.bootstrap_time = 1_s;
    config.job_start_overhead = 100_ms;
  }

  SlotJob make_job(std::uint64_t id, lrms::Workload workload) {
    SlotJob job;
    job.id = JobId{id};
    job.owner = UserId{1};
    job.workload = std::move(workload);
    return job;
  }

  sim::Simulation sim;
  GlideinAgentConfig config;
};

TEST_F(MultiSlotFixture, SlotAccounting) {
  GlideinAgent agent{sim, AgentId{1}, SiteId{1}, config};
  EXPECT_EQ(agent.interactive_slot_count(), 3);
  EXPECT_EQ(agent.free_interactive_slots(), 0);  // not running yet
  agent.on_carrier_started(NodeId{1});
  sim.run();
  EXPECT_EQ(agent.free_interactive_slots(), 3);

  ASSERT_TRUE(agent.start_interactive_job(
      make_job(1, lrms::Workload::cpu(100_s)), 10).ok());
  ASSERT_TRUE(agent.start_interactive_job(
      make_job(2, lrms::Workload::cpu(100_s)), 25).ok());
  EXPECT_EQ(agent.free_interactive_slots(), 1);
  EXPECT_TRUE(agent.interactive_vm_free());
  ASSERT_TRUE(agent.start_interactive_job(
      make_job(3, lrms::Workload::cpu(100_s)), 0).ok());
  EXPECT_EQ(agent.free_interactive_slots(), 0);
  EXPECT_TRUE(agent.interactive_vm_busy());
  const Status overflow =
      agent.start_interactive_job(make_job(4, lrms::Workload::cpu(1_s)), 0);
  EXPECT_FALSE(overflow.ok());
  EXPECT_EQ(agent.interactive_job_ids().size(), 3u);
}

TEST_F(MultiSlotFixture, TwoResidentsShareTheInteractiveCpu) {
  // Two equal CPU jobs on a degree-2 agent must each run at roughly half
  // speed (plus the agent overhead): equal sharing of the interactive VM
  // capacity.
  config.interactive_slots = 2;
  GlideinAgent agent{sim, AgentId{1}, SiteId{1}, config};
  agent.on_carrier_started(NodeId{1});
  sim.run();
  const SimTime start = sim.now();
  int done = 0;
  for (std::uint64_t i = 1; i <= 2; ++i) {
    SlotJob job = make_job(i, lrms::Workload::cpu(10_s));
    job.on_complete = [&done] { ++done; };
    ASSERT_TRUE(agent.start_interactive_job(std::move(job), 0).ok());
  }
  sim.run();
  EXPECT_EQ(done, 2);
  const double elapsed = (sim.now() - start).to_seconds();
  EXPECT_NEAR(elapsed, 20.0, 0.5);  // 2x dilation for 10 s of work each
}

TEST_F(MultiSlotFixture, LoneResidentRegainsFullSpeedWhenPeerFinishes) {
  config.interactive_slots = 2;
  GlideinAgent agent{sim, AgentId{1}, SiteId{1}, config};
  agent.on_carrier_started(NodeId{1});
  sim.run();
  const SimTime start = sim.now();
  std::vector<double> completion_times;
  for (std::uint64_t i = 1; i <= 2; ++i) {
    // Job 1 is short (4 s of work), job 2 long (10 s).
    SlotJob job = make_job(i, lrms::Workload::cpu(i == 1 ? 4_s : 10_s));
    job.on_complete = [&completion_times, &start, this] {
      completion_times.push_back((sim.now() - start).to_seconds());
    };
    ASSERT_TRUE(agent.start_interactive_job(std::move(job), 0).ok());
  }
  sim.run();
  ASSERT_EQ(completion_times.size(), 2u);
  // Job 1: 4 s at half speed -> ~8 s. Job 2: 4 s of work done by then,
  // remaining 6 s at full speed -> ~14 s total.
  EXPECT_NEAR(completion_times[0], 8.0, 0.4);
  EXPECT_NEAR(completion_times[1], 14.0, 0.6);
}

TEST_F(MultiSlotFixture, BatchYieldsToStrongestResident) {
  config.interactive_slots = 2;
  GlideinAgent agent{sim, AgentId{1}, SiteId{1}, config};
  agent.on_carrier_started(NodeId{1});
  sim.run();
  ASSERT_TRUE(agent.start_batch_job(make_job(9, lrms::Workload::manual())).ok());
  ASSERT_TRUE(agent.start_interactive_job(
      make_job(1, lrms::Workload::cpu(100_s)), 10).ok());
  ASSERT_TRUE(agent.start_interactive_job(
      make_job(2, lrms::Workload::cpu(100_s)), 25).ok());
  sim.run_until(sim.now() + 1_s);
  EXPECT_EQ(agent.max_running_performance_loss(), 25);
}

TEST(GlideinConfigTest, RejectsZeroSlots) {
  sim::Simulation sim;
  GlideinAgentConfig config;
  config.interactive_slots = 0;
  EXPECT_THROW(GlideinAgent(sim, AgentId{1}, SiteId{1}, config),
               std::invalid_argument);
}

}  // namespace
}  // namespace cg::glidein
