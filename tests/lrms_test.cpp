// Local resource management tests: workloads, the dilation-aware task
// runner, worker nodes, the batch scheduler, and the gatekeeper's cost model.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "jdl/parser.hpp"
#include "lrms/site.hpp"
#include "net/control_bus.hpp"
#include "sim/network.hpp"

namespace cg::lrms {
namespace {

using namespace cg::literals;

// -------------------------------------------------------------- workload ----

TEST(WorkloadTest, Shapes) {
  const Workload cpu = Workload::cpu(10_s);
  EXPECT_EQ(cpu.phases.size(), 1u);
  EXPECT_EQ(cpu.total_cpu().to_seconds(), 10.0);
  EXPECT_EQ(cpu.total_io().to_seconds(), 0.0);

  const Workload iter = Workload::iterative(1000, 6_ms, 921_ms);
  EXPECT_EQ(iter.phases.size(), 2000u);
  EXPECT_NEAR(iter.total_cpu().to_seconds(), 921.0, 1e-9);
  EXPECT_NEAR(iter.total_io().to_seconds(), 6.0, 1e-9);

  EXPECT_TRUE(Workload::manual().is_manual());
  EXPECT_FALSE(cpu.is_manual());
  EXPECT_THROW(Workload::cpu(0_s), std::invalid_argument);
  EXPECT_THROW(Workload::iterative(0, 1_ms, 1_ms), std::invalid_argument);
}

// ------------------------------------------------------------ task runner ----

TEST(TaskRunnerTest, RunsUndilatedWorkloadExactly) {
  sim::Simulation sim;
  bool done = false;
  TaskRunner runner{sim, Workload::cpu(5_s), nullptr, [&] { done = true; }};
  runner.start();
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.now().to_seconds(), 5.0);
}

TEST(TaskRunnerTest, ConstantDilationStretchesCpu) {
  sim::Simulation sim;
  bool done = false;
  TaskRunner runner{sim, Workload::cpu(10_s),
                    [](PhaseKind) { return 1.5; },
                    [&] { done = true; }};
  runner.start();
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(sim.now().to_seconds(), 15.0, 1e-6);
}

TEST(TaskRunnerTest, MidPhaseDilationChangeIsExact) {
  // 10 s of work; first 4 s at speed 1, remainder at half speed
  // (dilation 2) => total 4 + 12 = 16 s.
  sim::Simulation sim;
  double dilation = 1.0;
  bool done = false;
  TaskRunner runner{sim, Workload::cpu(10_s),
                    [&](PhaseKind) { return dilation; },
                    [&] { done = true; }};
  runner.start();
  sim.schedule(4_s, [&] {
    dilation = 2.0;
    runner.notify_dilation_changed();
  });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(sim.now().to_seconds(), 16.0, 1e-5);
}

TEST(TaskRunnerTest, DilationRestoredMidPhase) {
  // 10 s of work: 2 s at dilation 2 (consumes 1 s of work), then dilation 1
  // for the remaining 9 s => total 11 s.
  sim::Simulation sim;
  double dilation = 2.0;
  TaskRunner runner{sim, Workload::cpu(10_s),
                    [&](PhaseKind) { return dilation; }, [] {}};
  runner.start();
  sim.schedule(2_s, [&] {
    dilation = 1.0;
    runner.notify_dilation_changed();
  });
  sim.run();
  EXPECT_NEAR(sim.now().to_seconds(), 11.0, 1e-5);
}

TEST(TaskRunnerTest, PhaseObserverSeesMeasuredDurations) {
  sim::Simulation sim;
  std::vector<std::pair<PhaseKind, double>> observed;
  TaskRunner runner{sim, Workload::iterative(3, 10_ms, 100_ms),
                    [](PhaseKind kind) {
                      return kind == PhaseKind::kCpu ? 1.10 : 1.0;
                    },
                    [] {},
                    [&](const Phase& phase, Duration measured) {
                      observed.emplace_back(phase.kind, measured.to_seconds());
                    }};
  runner.start();
  sim.run();
  ASSERT_EQ(observed.size(), 6u);
  EXPECT_EQ(observed[0].first, PhaseKind::kIo);
  EXPECT_NEAR(observed[0].second, 0.010, 1e-9);
  EXPECT_EQ(observed[1].first, PhaseKind::kCpu);
  EXPECT_NEAR(observed[1].second, 0.110, 1e-6);
}

TEST(TaskRunnerTest, ManualWorkloadCompletesOnlyByRequest) {
  sim::Simulation sim;
  bool done = false;
  TaskRunner runner{sim, Workload::manual(), nullptr, [&] { done = true; }};
  runner.start();
  sim.run();
  EXPECT_FALSE(done);
  runner.finish_manual();
  EXPECT_TRUE(done);
  runner.finish_manual();  // idempotent
}

TEST(TaskRunnerTest, CancelSuppressesCompletion) {
  sim::Simulation sim;
  bool done = false;
  TaskRunner runner{sim, Workload::cpu(5_s), nullptr, [&] { done = true; }};
  runner.start();
  sim.schedule(1_s, [&] { runner.cancel(); });
  sim.run();
  EXPECT_FALSE(done);
}

TEST(TaskRunnerTest, InvalidDilationFallsBackToOne) {
  // Noise may legitimately dip a dilation slightly below 1.0, but NaN,
  // infinities, and non-positive values are rejected outright.
  for (const double bogus : {0.0, -1.0, std::nan(""),
                             std::numeric_limits<double>::infinity()}) {
    sim::Simulation sim;
    TaskRunner runner{sim, Workload::cpu(1_s),
                      [bogus](PhaseKind) { return bogus; }, [] {}};
    runner.start();
    sim.run();
    EXPECT_NEAR(sim.now().to_seconds(), 1.0, 1e-9) << bogus;
  }
}

TEST(TaskRunnerTest, SubUnityDilationIsHonoured) {
  // A 10% "speed-up" sample (execution noise) genuinely shortens the phase.
  sim::Simulation sim;
  TaskRunner runner{sim, Workload::cpu(1_s), [](PhaseKind) { return 0.9; },
                    [] {}};
  runner.start();
  sim.run();
  EXPECT_NEAR(sim.now().to_seconds(), 0.9, 1e-9);
}

TEST(TaskRunnerTest, DoubleStartThrows) {
  sim::Simulation sim;
  TaskRunner runner{sim, Workload::cpu(1_s), nullptr, [] {}};
  runner.start();
  EXPECT_THROW(runner.start(), std::logic_error);
}

// ------------------------------------------------------------ worker node ----

TEST(WorkerNodeTest, RunsJobAndFreesItself) {
  sim::Simulation sim;
  WorkerNode node{sim, NodeId{1}};
  EXPECT_TRUE(node.idle());
  bool started = false;
  bool completed = false;
  LocalJob job;
  job.id = JobId{1};
  job.workload = Workload::cpu(2_s);
  job.on_start = [&](NodeId id) {
    started = true;
    EXPECT_EQ(id, NodeId{1});
  };
  job.on_complete = [&] { completed = true; };
  node.run(std::move(job));
  EXPECT_TRUE(started);
  EXPECT_FALSE(node.idle());
  EXPECT_EQ(node.current_job(), JobId{1});
  sim.run();
  EXPECT_TRUE(completed);
  EXPECT_TRUE(node.idle());
}

TEST(WorkerNodeTest, SlowNodeStretchesCpuOnly) {
  sim::Simulation sim;
  WorkerNodeSpec half_speed;
  half_speed.cpu_speed = 0.5;
  WorkerNode node{sim, NodeId{1}, half_speed};
  LocalJob job;
  job.id = JobId{1};
  job.workload = Workload::iterative(1, 1_s, 4_s);  // 1 s IO + 4 s CPU
  node.run(std::move(job));
  sim.run();
  // IO unchanged (1 s) + CPU doubled (8 s).
  EXPECT_NEAR(sim.now().to_seconds(), 9.0, 1e-6);
}

TEST(WorkerNodeTest, KillSuppressesCompletion) {
  sim::Simulation sim;
  WorkerNode node{sim, NodeId{1}};
  bool completed = false;
  LocalJob job;
  job.id = JobId{5};
  job.workload = Workload::cpu(10_s);
  job.on_complete = [&] { completed = true; };
  node.run(std::move(job));
  EXPECT_EQ(node.kill_current(), JobId{5});
  sim.run();
  EXPECT_FALSE(completed);
  EXPECT_TRUE(node.idle());
  EXPECT_FALSE(node.kill_current().has_value());
}

TEST(WorkerNodeTest, BusyNodeRejectsSecondJob) {
  sim::Simulation sim;
  WorkerNode node{sim, NodeId{1}};
  LocalJob a;
  a.id = JobId{1};
  a.workload = Workload::cpu(5_s);
  node.run(std::move(a));
  LocalJob b;
  b.id = JobId{2};
  b.workload = Workload::cpu(5_s);
  EXPECT_THROW(node.run(std::move(b)), std::logic_error);
}

// -------------------------------------------------------------- scheduler ----

class SchedulerFixture : public ::testing::Test {
protected:
  LocalJob make_job(std::uint64_t id, Duration length) {
    LocalJob job;
    job.id = JobId{id};
    job.owner = UserId{1};
    job.workload = Workload::cpu(length);
    job.on_start = [this, id](NodeId) { start_order.push_back(id); };
    job.on_complete = [this, id] { completions.push_back(id); };
    return job;
  }

  sim::Simulation sim;
  std::vector<std::uint64_t> start_order;
  std::vector<std::uint64_t> completions;
};

TEST_F(SchedulerFixture, DispatchLatencyApplies) {
  LocalSchedulerConfig config;
  config.dispatch_latency = 2_s;
  LocalScheduler sched{sim, {WorkerNodeSpec{}}, config};
  SimTime started;
  LocalJob job = make_job(1, 1_s);
  job.on_start = [&](NodeId) { started = sim.now(); };
  ASSERT_TRUE(sched.submit(std::move(job)));
  sim.run();
  EXPECT_EQ(started.to_seconds(), 2.0);
}

TEST_F(SchedulerFixture, FifoOrderAcrossQueue) {
  LocalSchedulerConfig config;
  config.dispatch_latency = Duration::millis(1);
  LocalScheduler sched{sim, {WorkerNodeSpec{}}, config};  // one node
  ASSERT_TRUE(sched.submit(make_job(1, 10_s)));
  ASSERT_TRUE(sched.submit(make_job(2, 1_s)));
  ASSERT_TRUE(sched.submit(make_job(3, 1_s)));
  EXPECT_EQ(sched.queued_jobs(), 2);  // two waiting behind the running one
  sim.run();
  EXPECT_EQ(start_order, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(completions, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST_F(SchedulerFixture, ShortestFirstPolicy) {
  LocalSchedulerConfig config;
  config.policy = QueuePolicy::kShortestFirst;
  config.dispatch_latency = Duration::millis(1);
  LocalScheduler sched{sim, {WorkerNodeSpec{}}, config};
  ASSERT_TRUE(sched.submit(make_job(1, 10_s)));   // runs first (node idle)
  ASSERT_TRUE(sched.submit(make_job(2, 5_s)));
  ASSERT_TRUE(sched.submit(make_job(3, 1_s)));
  sim.run();
  EXPECT_EQ(start_order, (std::vector<std::uint64_t>{1, 3, 2}));
}

TEST_F(SchedulerFixture, ParallelNodesRunConcurrently) {
  LocalScheduler sched{sim, {WorkerNodeSpec{}, WorkerNodeSpec{}, WorkerNodeSpec{}}};
  for (std::uint64_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(sched.submit(make_job(i, 10_s)));
  }
  sim.run();
  // All finish at dispatch + 10 s, not serialized.
  EXPECT_NEAR(sim.now().to_seconds(), 12.0, 0.1);
  EXPECT_EQ(sched.free_nodes(), 3);
}

TEST_F(SchedulerFixture, QueueLimitRejects) {
  LocalSchedulerConfig config;
  config.max_queue_length = 2;
  LocalScheduler sched{sim, {WorkerNodeSpec{}}, config};
  EXPECT_TRUE(sched.submit(make_job(1, 10_s)));  // dispatches to the node
  EXPECT_TRUE(sched.submit(make_job(2, 10_s)));  // queue slot 1
  EXPECT_TRUE(sched.submit(make_job(3, 10_s)));  // queue slot 2
  EXPECT_FALSE(sched.submit(make_job(4, 10_s)));  // queue full, node taken
  sim.run();
  EXPECT_EQ(completions, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST_F(SchedulerFixture, CancelQueuedRemovesOnlyQueued) {
  LocalSchedulerConfig config;
  config.dispatch_latency = Duration::millis(1);
  LocalScheduler sched{sim, {WorkerNodeSpec{}}, config};
  ASSERT_TRUE(sched.submit(make_job(1, 10_s)));
  ASSERT_TRUE(sched.submit(make_job(2, 1_s)));
  sim.run_until(SimTime::from_seconds(1));
  EXPECT_TRUE(sched.cancel_queued(JobId{2}));
  EXPECT_FALSE(sched.cancel_queued(JobId{1}));  // running, not queued
  sim.run();
  EXPECT_EQ(completions, (std::vector<std::uint64_t>{1}));
}

TEST_F(SchedulerFixture, KillRunningNotifiesObserverAndRedispatches) {
  LocalSchedulerConfig config;
  config.dispatch_latency = Duration::millis(1);
  LocalScheduler sched{sim, {WorkerNodeSpec{}}, config};
  std::vector<std::uint64_t> killed;
  sched.set_kill_observer([&](JobId id, NodeId) { killed.push_back(id.value()); });
  ASSERT_TRUE(sched.submit(make_job(1, 100_s)));
  ASSERT_TRUE(sched.submit(make_job(2, 1_s)));
  sim.run_until(SimTime::from_seconds(5));
  EXPECT_TRUE(sched.kill_running(JobId{1}));
  sim.run();
  EXPECT_EQ(killed, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(completions, (std::vector<std::uint64_t>{2}));  // queued job ran
  EXPECT_FALSE(sched.kill_running(JobId{42}));
}

TEST_F(SchedulerFixture, ManualJobFinishedExternally) {
  LocalScheduler sched{sim, {WorkerNodeSpec{}}};
  LocalJob agent = make_job(1, 1_s);
  agent.workload = Workload::manual();
  ASSERT_TRUE(sched.submit(std::move(agent)));
  sim.run();
  EXPECT_EQ(sched.free_nodes(), 0);  // still occupying the node
  EXPECT_TRUE(sched.finish_manual(JobId{1}));
  sim.run();
  EXPECT_EQ(completions, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(sched.free_nodes(), 1);
}

TEST_F(SchedulerFixture, NodeOfReportsLocation) {
  LocalScheduler sched{sim, {WorkerNodeSpec{}, WorkerNodeSpec{}}};
  ASSERT_TRUE(sched.submit(make_job(1, 10_s)));
  sim.run_until(SimTime::from_seconds(3));
  EXPECT_TRUE(sched.node_of(JobId{1}).has_value());
  EXPECT_FALSE(sched.node_of(JobId{2}).has_value());
}

// -- Condor-style matchmaking policy ----------------------------------------

class MatchmakingFixture : public ::testing::Test {
protected:
  static WorkerNodeSpec gpu_node() {
    WorkerNodeSpec spec;
    spec.extra_attributes = {{"HasGPU", "true"}};
    return spec;
  }
  static WorkerNodeSpec plain_node() {
    WorkerNodeSpec spec;
    spec.extra_attributes = {{"HasGPU", "false"}};
    return spec;
  }

  LocalJob job_with_requirements(std::uint64_t id, const std::string& req,
                                 Duration length = 10_s) {
    LocalJob job;
    job.id = JobId{id};
    job.workload = Workload::cpu(length);
    auto ad = std::make_shared<jdl::ClassAd>();
    ad->set(std::string{"Requirements"}, jdl::parse_expression(req).value());
    job.job_ad = std::move(ad);
    job.on_start = [this, id](NodeId node) { starts.emplace_back(id, node); };
    job.on_complete = [this, id] { completions.push_back(id); };
    return job;
  }

  sim::Simulation sim;
  std::vector<std::pair<std::uint64_t, NodeId>> starts;
  std::vector<std::uint64_t> completions;
};

TEST_F(MatchmakingFixture, JobRunsOnMatchingNodeOnly) {
  LocalSchedulerConfig config;
  config.policy = QueuePolicy::kMatchmaking;
  config.dispatch_latency = Duration::millis(10);
  LocalScheduler sched{sim, {plain_node(), gpu_node()}, config};
  const NodeId gpu_node_id = sched.node(1).id();

  ASSERT_TRUE(sched.submit(
      job_with_requirements(1, "other.HasGPU == true")));
  sim.run();
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts[0].second, gpu_node_id);
}

TEST_F(MatchmakingFixture, NonMatchingJobWaitsDoesNotBlockOthers) {
  // Head-of-line: a GPU job is first in the queue but only a plain node is
  // free; a later CPU-only job must run around it (Condor semantics, unlike
  // strict FIFO).
  LocalSchedulerConfig config;
  config.policy = QueuePolicy::kMatchmaking;
  config.dispatch_latency = Duration::millis(10);
  LocalScheduler sched{sim, {plain_node()}, config};

  ASSERT_TRUE(sched.submit(job_with_requirements(1, "other.HasGPU == true")));
  ASSERT_TRUE(sched.submit(job_with_requirements(2, "other.MemoryMB >= 512")));
  sim.run();
  // Only job 2 ran; job 1 still waits for a GPU that never comes.
  EXPECT_EQ(completions, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(sched.queued_jobs(), 1);
}

TEST_F(MatchmakingFixture, AdlessJobsMatchAnywhere) {
  LocalSchedulerConfig config;
  config.policy = QueuePolicy::kMatchmaking;
  config.dispatch_latency = Duration::millis(10);
  LocalScheduler sched{sim, {gpu_node()}, config};
  LocalJob job;
  job.id = JobId{1};
  job.workload = Workload::cpu(1_s);
  job.on_complete = [this] { completions.push_back(1); };
  ASSERT_TRUE(sched.submit(std::move(job)));
  sim.run();
  EXPECT_EQ(completions, (std::vector<std::uint64_t>{1}));
}

TEST_F(MatchmakingFixture, MachineAdExportsNodeFacts) {
  WorkerNodeSpec spec;
  spec.memory_mb = 2048;
  spec.cpu_speed = 1.5;
  spec.extra_attributes = {{"Pool", "\"physics\""}};
  WorkerNode node{sim, NodeId{7}, spec};
  EXPECT_EQ(node.machine_ad().get_int("MemoryMB"), 2048);
  EXPECT_EQ(node.machine_ad().get_real("CpuSpeed"), 1.5);
  EXPECT_EQ(node.machine_ad().get_string("Pool"), "physics");
  EXPECT_EQ(node.machine_ad().get_int("NodeId"), 7);
}

TEST_F(MatchmakingFixture, BadAttributeExpressionThrows) {
  WorkerNodeSpec spec;
  spec.extra_attributes = {{"Broken", "((("}};
  EXPECT_THROW(WorkerNode(sim, NodeId{1}, spec), std::invalid_argument);
}

TEST(LocalSchedulerTest, RequiresNodes) {
  sim::Simulation sim;
  EXPECT_THROW(LocalScheduler(sim, {}), std::invalid_argument);
}

// -------------------------------------------------------------- gatekeeper ----

class GatekeeperFixture : public ::testing::Test {
protected:
  GatekeeperFixture()
      : network{Rng{1}},
        bus{sim, network},
        scheduler{sim, {WorkerNodeSpec{}}, fast_lrms()},
        gatekeeper{sim, bus, "site:test", scheduler, config()} {
    network.add_link("ui", "site:test", sim::LinkSpec::campus());
  }

  static LocalSchedulerConfig fast_lrms() {
    LocalSchedulerConfig c;
    c.dispatch_latency = Duration::millis(10);
    return c;
  }
  static GatekeeperConfig config() {
    GatekeeperConfig c;
    c.gsi_auth_latency = 1_s;
    c.jobmanager_latency = 2_s;
    c.prepare_overhead = 500_ms;
    return c;
  }

  GridJobRequest make_request(std::uint64_t id) {
    GridJobRequest r;
    r.job.id = JobId{id};
    r.job.owner = UserId{1};
    r.job.workload = Workload::cpu(1_s);
    r.submitter_endpoint = "ui";
    return r;
  }

  sim::Simulation sim;
  sim::Network network;
  net::ControlBus bus;
  LocalScheduler scheduler;
  Gatekeeper gatekeeper;
};

TEST_F(GatekeeperFixture, PrepareCostsAuthPlusOverhead) {
  SimTime prepared_at;
  gatekeeper.prepare(make_request(1), [&](Status s) {
    EXPECT_TRUE(s.ok());
    prepared_at = sim.now();
  });
  sim.run();
  EXPECT_NEAR(prepared_at.to_seconds(), 1.5, 1e-6);
}

TEST_F(GatekeeperFixture, DirectSubmissionSkipsPrepareOverhead) {
  GridJobRequest request = make_request(1);
  SimTime started;
  request.job.on_start = [&](NodeId) { started = sim.now(); };
  gatekeeper.submit_direct(std::move(request), [](Status s) {
    EXPECT_TRUE(s.ok());
  });
  sim.run();
  // auth (1 s) + jobmanager (2 s) + dispatch (10 ms); no staging (0 bytes).
  EXPECT_NEAR(started.to_seconds(), 3.01, 1e-3);
}

TEST_F(GatekeeperFixture, StagingPaysLinkTransfer) {
  GridJobRequest request = make_request(1);
  request.stage_bytes = 12'500'000;  // 1 s on the 100 Mb/s campus link
  SimTime started;
  request.job.on_start = [&](NodeId) { started = sim.now(); };
  gatekeeper.submit_direct(std::move(request), [](Status) {});
  sim.run();
  EXPECT_NEAR(started.to_seconds(), 4.01, 0.02);
}

TEST_F(GatekeeperFixture, PrepareDetectsFullSite) {
  // Saturate node + queue.
  LocalSchedulerConfig tiny;
  tiny.max_queue_length = 0;
  LocalScheduler full_sched{sim, {WorkerNodeSpec{}}, tiny};
  Gatekeeper gk{sim, bus, "site:full", full_sched, config()};
  bool rejected = false;
  gk.prepare(make_request(1), [&](Status s) {
    rejected = !s.ok();
    if (!s.ok()) {
      EXPECT_EQ(s.error().code, "gatekeeper.full");
    }
  });
  sim.run();
  // One free node -> accepted. Occupy it first:
  LocalJob blocker;
  blocker.id = JobId{77};
  blocker.workload = Workload::manual();
  full_sched.submit(std::move(blocker));
  sim.run();
  bool second_rejected = false;
  gk.prepare(make_request(2), [&](Status s) { second_rejected = !s.ok(); });
  sim.run();
  EXPECT_FALSE(rejected);
  EXPECT_TRUE(second_rejected);
}

TEST_F(GatekeeperFixture, FiledRequestActsOncePerPhase) {
  // Every leg of the exchange arrives twice; each phase of the filed
  // request still runs once, and the LRMS receives the job once.
  const EndpointId ui = bus.endpoint("ui");
  const EndpointId site = gatekeeper.endpoint();
  int prepared = 0;
  int committed = 0;
  int started = 0;
  GridJobRequest request = make_request(1);
  request.job.on_start = [&](NodeId) { ++started; };
  request.on_prepared = [&](Status s) {
    EXPECT_TRUE(s.ok());
    ++prepared;
    for (int copy = 0; copy < 2; ++copy) {
      bus.send(ui, site, net::SubmitJob{JobId{1}, net::SubmitPhase::kCommit});
    }
    return true;
  };
  request.on_committed = [&](Status s) {
    EXPECT_TRUE(s.ok());
    ++committed;
  };
  gatekeeper.file(std::move(request));
  // One request per id, and a filed request reports both phases.
  GridJobRequest twin = make_request(1);
  twin.on_prepared = [](Status) { return false; };
  twin.on_committed = [](Status) {};
  EXPECT_THROW(gatekeeper.file(std::move(twin)), std::logic_error);
  EXPECT_THROW(gatekeeper.file(make_request(2)), std::invalid_argument);
  for (int copy = 0; copy < 2; ++copy) {
    bus.send(ui, site, net::SubmitJob{JobId{1}, net::SubmitPhase::kPrepare});
  }
  sim.run();
  // A late copy of the input sandbox finds the job handed over already.
  bus.send(ui, site, net::StageSandbox{JobId{1}, 0, /*inbound=*/true});
  sim.run();
  EXPECT_EQ(prepared, 1);
  EXPECT_EQ(committed, 1);
  EXPECT_EQ(started, 1);
  EXPECT_EQ(scheduler.running_jobs(), 0);
}

TEST_F(GatekeeperFixture, RefusedPrepareDropsTheFiledRequest) {
  const EndpointId site = gatekeeper.endpoint();
  GridJobRequest request = make_request(1);
  request.on_prepared = [](Status) { return false; };
  request.on_committed = [](Status) { FAIL() << "never committed"; };
  gatekeeper.file(std::move(request));
  bus.send(bus.endpoint("broker"), site,
           net::SubmitJob{JobId{1}, net::SubmitPhase::kPrepare});
  sim.run();
  // Gone: a commit naming it acts on nothing, and the id may be filed again.
  bus.send(bus.endpoint("broker"), site,
           net::SubmitJob{JobId{1}, net::SubmitPhase::kCommit});
  sim.run();
  GridJobRequest again = make_request(1);
  again.on_prepared = [](Status) { return false; };
  again.on_committed = [](Status) {};
  EXPECT_NO_THROW(gatekeeper.file(std::move(again)));
}

TEST_F(GatekeeperFixture, CancelJobWithdrawsAFiledRequest) {
  // Withdrawn during its direct submission's authentication, and during a
  // filed request's input staging: neither reaches the LRMS, and neither
  // reports a status.
  const EndpointId broker = bus.endpoint("broker");
  const EndpointId site = gatekeeper.endpoint();
  GridJobRequest direct = make_request(1);
  direct.job.on_start = [](NodeId) { FAIL() << "withdrawn job started"; };
  gatekeeper.submit_direct(std::move(direct),
                           [](Status) { FAIL() << "withdrawn job reported"; });
  bus.send(broker, site, net::CancelJob{JobId{1}, /*queued_only=*/false});

  GridJobRequest filed = make_request(2);
  filed.job.on_start = [](NodeId) { FAIL() << "withdrawn job started"; };
  filed.on_prepared = [&](Status) {
    bus.send(broker, site, net::SubmitJob{JobId{2}, net::SubmitPhase::kCommit});
    // The commit leg sent the input sandbox: cancel while it travels.
    bus.send(broker, site, net::CancelJob{JobId{2}, /*queued_only=*/true});
    return true;
  };
  filed.on_committed = [](Status) { FAIL() << "withdrawn job reported"; };
  gatekeeper.file(std::move(filed));
  bus.send(broker, site, net::SubmitJob{JobId{2}, net::SubmitPhase::kPrepare});
  sim.run();
  EXPECT_EQ(scheduler.running_jobs(), 0);
  EXPECT_EQ(scheduler.free_nodes(), 1);
  EXPECT_FALSE(gatekeeper.cancel(JobId{2}, false));
}

TEST_F(GatekeeperFixture, AgentSideMessagesGoToTheGlideinHost) {
  std::vector<net::MsgType> hosted;
  gatekeeper.set_glidein_host([&](const net::Envelope& envelope) {
    hosted.push_back(net::type_of(envelope.payload));
  });
  const EndpointId broker = bus.endpoint("broker");
  const EndpointId site = gatekeeper.endpoint();
  bus.send(broker, site, net::EvictNotice{JobId{2}, AgentId{1}});
  bus.send(broker, site, net::KillJob{JobId{3}, AgentId{1}});
  // The gatekeeper's own messages stay with it.
  bus.send(broker, site, net::CancelJob{JobId{3}, false});
  sim.run();
  EXPECT_EQ(hosted, (std::vector<net::MsgType>{net::MsgType::kEvictNotice,
                                               net::MsgType::kKillJob}));
}

// ------------------------------------------------------------------- site ----

TEST(SiteTest, SnapshotTracksSchedulerState) {
  sim::Simulation sim;
  sim::Network network{Rng{3}};
  net::ControlBus bus{sim, network};
  SiteConfig config;
  config.name = "uab";
  config.worker_nodes = 3;
  Site site{sim, bus, SiteId{1}, config};
  EXPECT_EQ(site.endpoint(), "site:uab");

  auto snap = site.snapshot();
  EXPECT_EQ(snap.dynamic_info.free_cpus, 3);
  EXPECT_EQ(snap.static_info.total_cpus(), 3);

  lrms::LocalJob job;
  job.id = JobId{1};
  job.workload = Workload::cpu(Duration::seconds(100));
  site.scheduler().submit(std::move(job));
  sim.run_until(SimTime::from_seconds(10));
  snap = site.snapshot();
  EXPECT_EQ(snap.dynamic_info.free_cpus, 2);
  EXPECT_EQ(snap.dynamic_info.running_jobs, 1);

  site.set_interactive_vm_counter([] { return 5; });
  EXPECT_EQ(site.snapshot().dynamic_info.free_interactive_vms, 5);
}

TEST(SiteTest, Validation) {
  sim::Simulation sim;
  sim::Network network{Rng{3}};
  net::ControlBus bus{sim, network};
  SiteConfig bad;
  bad.name = "";
  EXPECT_THROW(Site(sim, bus, SiteId{1}, bad), std::invalid_argument);
  SiteConfig no_nodes;
  no_nodes.name = "x";
  no_nodes.worker_nodes = 0;
  EXPECT_THROW(Site(sim, bus, SiteId{1}, no_nodes), std::invalid_argument);
}

}  // namespace
}  // namespace cg::lrms
