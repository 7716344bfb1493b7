// Scenario-based failure regression suite driven by the deterministic
// fault-injection subsystem (sim/fault): link partitions during streaming,
// glide-in agent crashes mid-job, worker-node crashes under exclusive
// interactive jobs, and spool I/O failures in the real interpose layer.
// Every simulated scenario must be bit-for-bit reproducible for a fixed
// seed, and every reliable-mode session must recover without losing frames.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <optional>
#include <sstream>
#include <thread>

#include "broker/fault_bridge.hpp"
#include "broker/grid_scenario.hpp"
#include "interpose/interactive_session.hpp"
#include "sim/fault.hpp"
#include "stream/grid_console.hpp"

namespace cg {
namespace {

using namespace cg::literals;

// --------------------------------------------------- streaming scenarios ----

/// Extracts every "tick <n>" id from a blob, in order of appearance.
std::vector<int> tick_ids(std::string_view blob) {
  std::vector<int> ids;
  std::size_t pos = 0;
  while ((pos = blob.find("tick ", pos)) != std::string::npos) {
    pos += 5;
    int id = 0;
    std::from_chars(blob.data() + pos, blob.data() + blob.size(), id);
    ids.push_back(id);
  }
  return ids;
}

struct StreamRun {
  std::string screen;
  std::string timeline;
  std::size_t events = 0;
  std::vector<int> delivered;
  std::size_t bytes_lost = 0;
  bool agent_failed = false;
};

/// One console session with a 20 s partition injected while 30 one-second
/// ticks stream from the worker node.
StreamRun run_partitioned_stream(std::uint64_t seed, jdl::StreamingMode mode) {
  sim::Simulation sim;
  sim::Network network{Rng{seed}};
  network.add_link("ui", "wn", sim::LinkSpec::campus());

  sim::FaultInjector injector{sim, &network};
  sim::FaultPlan plan;
  plan.partition_link("ui", "wn", SimTime::from_seconds(5.0),
                      Duration::seconds(20));
  injector.arm(plan);

  StreamRun result;
  stream::GridConsoleConfig config;
  config.mode = mode;
  config.retry.retry_interval = 1_s;
  config.retry.max_retries = 60;
  stream::GridConsole console{sim, network, config, "ui",
                              [&](std::string d) { result.screen += d; },
                              Rng{seed ^ 0x5a5a}};
  console.shadow().set_frame_observer(
      [&](int, stream::StdStream, std::string_view data) {
        for (const int id : tick_ids(data)) result.delivered.push_back(id);
      });
  auto& agent = console.add_agent(0, "wn");
  for (int i = 0; i < 30; ++i) {
    sim.schedule(Duration::seconds(i), [&agent, i] {
      agent.write_stdout("tick " + std::to_string(i) + "\n");
    });
  }
  sim.run();
  result.timeline = injector.timeline_digest();
  result.events = sim.processed_events();
  result.bytes_lost = agent.output_bytes_lost();
  result.agent_failed = agent.failed();
  return result;
}

TEST(FaultInjectionTest, PartitionDuringReliableStreamLosesNothing) {
  const StreamRun run =
      run_partitioned_stream(11, jdl::StreamingMode::kReliable);
  std::string expected;
  std::vector<int> all_ids;
  for (int i = 0; i < 30; ++i) {
    expected += "tick " + std::to_string(i) + "\n";
    all_ids.push_back(i);
  }
  // Spool-and-replay: every frame arrives, exactly once, in order.
  EXPECT_EQ(run.screen, expected);
  EXPECT_EQ(run.delivered, all_ids);
  EXPECT_EQ(run.bytes_lost, 0u);
  EXPECT_FALSE(run.agent_failed);
}

TEST(FaultInjectionTest, PartitionedReliableStreamIsBitForBitReproducible) {
  const StreamRun a = run_partitioned_stream(7, jdl::StreamingMode::kReliable);
  const StreamRun b = run_partitioned_stream(7, jdl::StreamingMode::kReliable);
  EXPECT_EQ(a.screen, b.screen);
  EXPECT_EQ(a.timeline, b.timeline);
  EXPECT_EQ(a.events, b.events);  // same event count, same recovery timeline
  EXPECT_FALSE(a.timeline.empty());
}

TEST(FaultInjectionTest, PartitionDuringFastStreamIsLossyButOrdered) {
  const StreamRun run = run_partitioned_stream(11, jdl::StreamingMode::kFast);
  // The lossy contract of fast mode: frames sent into the outage vanish…
  EXPECT_GT(run.bytes_lost, 0u);
  EXPECT_LT(run.delivered.size(), 30u);
  // …but what does arrive is unique and in write order.
  for (std::size_t i = 1; i < run.delivered.size(); ++i) {
    EXPECT_LT(run.delivered[i - 1], run.delivered[i]);
  }
}

// ------------------------------------------------------- grid scenarios ----

jdl::JobDescription parse_job(const std::string& source) {
  auto jd = jdl::JobDescription::parse(source);
  EXPECT_TRUE(jd.has_value()) << (jd ? "" : jd.error().to_string());
  return jd.value();
}

struct Outcome {
  bool running = false;
  bool completed = false;
  bool failed = false;
  std::string error_code;
};

broker::JobCallbacks watch(Outcome& outcome) {
  broker::JobCallbacks cb;
  cb.on_running = [&outcome](const broker::JobRecord&) { outcome.running = true; };
  cb.on_complete = [&outcome](const broker::JobRecord&) {
    outcome.completed = true;
  };
  cb.on_failed = [&outcome](const broker::JobRecord&, const Error& e) {
    outcome.failed = true;
    outcome.error_code = e.code;
  };
  return cb;
}

struct AgentCrashRun {
  bool interactive_completed = false;
  int interactive_resubmissions = 0;
  std::optional<SimTime> resubmit_at;
  std::string digest;
  std::string decisions;
};

/// Timing-free projection of the trace: the sequence of decisions the broker
/// took, without the virtual timestamps.
std::string decision_digest(const obs::JobTracer& trace) {
  std::string out;
  for (const obs::JobTraceEvent& event : trace.events()) {
    out += std::to_string(event.job.value()) + "|" +
           std::string{obs::to_string(event.kind)} + "|" + event.detail + "|" +
           event.attrs.to_string() + "\n";
  }
  return out;
}

/// FNV-1a-64 over the bytes of `text`.
std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Shared-mode interactive job riding an agent whose carrier is killed at
/// t = 300 s by an injected agent-crash fault, with the victim named through
/// the FaultPlan victim-query DSL ("agent_of(job:N)") and resolved at fire
/// time by the FaultBridge. Recovery is opt-in via
/// resubmit_interactive_on_agent_death.
AgentCrashRun run_agent_crash_scenario() {
  broker::GridScenarioConfig config;
  config.sites = 3;
  config.nodes_per_site = 2;
  config.broker.resubmit_interactive_on_agent_death = true;
  obs::Observability obs;
  broker::GridScenario grid{config};
  grid.broker().set_observability(&obs);

  Outcome batch;
  (void)grid.broker().submit(parse_job("Executable = \"sim\";"), UserId{1},
                       lrms::Workload::cpu(1200_s),
                       broker::GridScenario::ui_endpoint(), watch(batch));
  grid.sim().run_until(SimTime::from_seconds(120));

  Outcome inter;
  const JobId inter_id = grid.broker().submit(
      parse_job("Executable = \"viz\"; JobType = \"interactive\"; "
                "MachineAccess = \"shared\"; PerformanceLoss = 10;"),
      UserId{2}, lrms::Workload::cpu(600_s),
      broker::GridScenario::ui_endpoint(), watch(inter)).value();
  grid.sim().run_until(SimTime::from_seconds(240));
  EXPECT_TRUE(inter.running);

  sim::FaultInjector injector{grid.sim(), &grid.network()};
  broker::FaultBridge bridge{grid, injector};
  sim::FaultPlan plan;
  plan.crash_agent("agent_of(job:" + std::to_string(inter_id.value()) + ")",
                   SimTime::from_seconds(300.0));
  injector.arm(plan);

  grid.sim().run_until(SimTime::from_seconds(1800));

  AgentCrashRun result;
  result.interactive_completed = inter.completed;
  const broker::JobRecord* record = grid.broker().record(inter_id);
  result.interactive_resubmissions = record->resubmissions;
  if (const obs::JobTraceEvent* resubmit =
          obs.tracer.first(inter_id, obs::TraceEventKind::kResubmitted)) {
    result.resubmit_at = resubmit->when;
  }
  std::ostringstream digest;
  digest << obs.tracer.to_jsonl() << "events=" << grid.sim().processed_events();
  result.digest = digest.str();
  result.decisions = decision_digest(obs.tracer);
  return result;
}

TEST(FaultInjectionTest, AgentCrashMidJobResubmitsInteractiveWithinBackoff) {
  const AgentCrashRun run = run_agent_crash_scenario();
  EXPECT_TRUE(run.interactive_completed);
  EXPECT_GE(run.interactive_resubmissions, 1);
  // The resubmission decision lands within the backoff cap of the crash
  // instant (attempt 1 waits only kResubmitBackoffBase).
  ASSERT_TRUE(run.resubmit_at.has_value());
  EXPECT_GE(*run.resubmit_at, SimTime::from_seconds(300.0));
  EXPECT_LE(*run.resubmit_at,
            SimTime::from_seconds(300.0) + broker::kResubmitBackoffMax);
}

TEST(FaultInjectionTest, AgentCrashScenarioIsBitForBitReproducible) {
  const AgentCrashRun a = run_agent_crash_scenario();
  const AgentCrashRun b = run_agent_crash_scenario();
  EXPECT_EQ(a.digest, b.digest);
}

TEST(FaultInjectionTest, AgentCrashDecisionsAgreeAcrossMatchmakerPaths) {
  // Pinned from the last commit that still ran the ClassAd interpreter
  // beside the compiled matchmaker, where both paths took these decisions.
  const AgentCrashRun run = run_agent_crash_scenario();
  EXPECT_EQ(fnv1a64(run.decisions), 0x2b5a773fa92c81f6ULL)
      << "0x" << std::hex << fnv1a64(run.decisions);
}

struct DuplicateProbeRun {
  int completed = 0;
  std::vector<std::string> failures;  ///< error codes, in submission order
  std::uint64_t dispatches = 0;       ///< jobs the LRMSes started
};

/// The control-plane probe: 3 sites x 2 nodes with one agent preloaded on
/// site 0, and six 60 s CPU jobs (2 batch, 2 shared interactive, 2 exclusive
/// interactive) submitted 7 s apart from t = 5 s. `duplicated` names one
/// message type duplicated on every endpoint pair during the first 200 s
/// (empty: fault-free). Runs to t = 20,000 s.
DuplicateProbeRun run_duplicate_probe(const std::string& duplicated) {
  broker::GridScenarioConfig config;
  config.sites = 3;
  config.nodes_per_site = 2;
  obs::Observability obs;  // outlives the grid, whose LRMSes count into it
  broker::GridScenario grid{config};
  grid.broker().set_observability(&obs);
  for (std::size_t i = 0; i < grid.site_count(); ++i) {
    grid.site(i).scheduler().set_metrics(
        &obs.metrics, obs::LabelSet{{"site", std::to_string(i)}});
  }
  sim::FaultInjector injector{grid.sim(), &grid.network()};
  injector.register_message_sink(&grid.bus());
  if (!duplicated.empty()) {
    sim::FaultPlan plan;
    plan.duplicate_messages(duplicated, "", "", SimTime::zero(), 200_s);
    injector.arm(plan);
  }
  grid.broker().preload_agent(grid.site(0).id());

  const std::array<const char*, 6> jobs{
      "Executable = \"sim\";",
      "Executable = \"sim\";",
      "Executable = \"viz\"; JobType = \"interactive\"; "
      "MachineAccess = \"shared\";",
      "Executable = \"viz\"; JobType = \"interactive\"; "
      "MachineAccess = \"shared\";",
      "Executable = \"shell\"; JobType = \"interactive\"; "
      "MachineAccess = \"exclusive\";",
      "Executable = \"shell\"; JobType = \"interactive\"; "
      "MachineAccess = \"exclusive\";",
  };
  std::array<Outcome, 6> outcomes;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    grid.sim().schedule_at(
        SimTime::from_seconds(5.0 + 7.0 * static_cast<double>(i)), [&, i] {
          (void)grid.broker().submit(parse_job(jobs[i]),
                                     UserId{static_cast<std::uint64_t>(i + 1)},
                                     lrms::Workload::cpu(60_s),
                                     broker::GridScenario::ui_endpoint(),
                                     watch(outcomes[i]));
        });
  }
  grid.sim().run_until(SimTime::from_seconds(20'000));

  DuplicateProbeRun run;
  for (const Outcome& outcome : outcomes) {
    if (outcome.completed) ++run.completed;
    if (outcome.failed) run.failures.push_back(outcome.error_code);
  }
  run.dispatches = obs.metrics.counter_total("lrms.dispatches");
  return run;
}

TEST(FaultInjectionTest, DuplicateProbeBaselineDispatchesEachJobOnce) {
  const DuplicateProbeRun run = run_duplicate_probe("");
  EXPECT_EQ(run.completed, 6);
  EXPECT_TRUE(run.failures.empty());
  // Three agent carriers (the preloaded one and one per batch job) plus the
  // two exclusive jobs; the shared jobs start on glide-in VMs.
  EXPECT_EQ(run.dispatches, 5u);
}

TEST(FaultInjectionTest, DuplicatedSubmitJobSubmitsEachRequestOnce) {
  // Each SubmitJob leg arrives twice; the gatekeeper prepares and commits a
  // filed request once, so no carrier or job reaches an LRMS twice.
  const DuplicateProbeRun run = run_duplicate_probe("SubmitJob");
  EXPECT_EQ(run.completed, 6);
  EXPECT_TRUE(run.failures.empty());
  EXPECT_EQ(run.dispatches, 5u);
}

TEST(FaultInjectionTest, DuplicatedStageSandboxSubmitsEachRequestOnce) {
  // Each inbound sandbox arrives twice; the second copy finds the request
  // already handed to the LRMS. The outbound copies find the job complete.
  const DuplicateProbeRun run = run_duplicate_probe("StageSandbox");
  EXPECT_EQ(run.completed, 6);
  EXPECT_TRUE(run.failures.empty());
  EXPECT_EQ(run.dispatches, 5u);
}

TEST(FaultInjectionTest, DuplicatedHeartbeatChangesNothing) {
  // Each keepalive arrives twice; hearing from an agent twice in one tick
  // is hearing from it once, so supervision and every job run as without
  // the fault.
  const DuplicateProbeRun run = run_duplicate_probe("Heartbeat");
  EXPECT_EQ(run.completed, 6);
  EXPECT_TRUE(run.failures.empty());
  EXPECT_EQ(run.dispatches, 5u);
}

TEST(FaultInjectionTest, NodeCrashDuringExclusiveInteractiveRecovers) {
  broker::GridScenarioConfig config;
  config.sites = 2;
  config.nodes_per_site = 2;
  broker::GridScenario grid{config};

  Outcome outcome;
  const JobId id = grid.broker().submit(
      parse_job("Executable = \"shell\"; JobType = \"interactive\"; "
                "MachineAccess = \"exclusive\";"),
      UserId{1}, lrms::Workload::cpu(120_s),
      broker::GridScenario::ui_endpoint(), watch(outcome)).value();
  grid.sim().run_until(SimTime::from_seconds(30));
  ASSERT_TRUE(outcome.running);

  // The victim node ("whichever node runs the job") is named declaratively;
  // the FaultBridge resolves the query when the fault fires.
  sim::FaultInjector injector{grid.sim(), &grid.network()};
  broker::FaultBridge bridge{grid, injector};
  sim::FaultPlan plan;
  plan.crash_node("node_of(job:" + std::to_string(id.value()) + ")",
                  SimTime::from_seconds(40.0), Duration::seconds(60));
  injector.arm(plan);

  grid.sim().run_until(SimTime::from_seconds(70));
  int failed = 0;
  for (std::size_t s = 0; s < grid.site_count(); ++s) {
    failed += grid.site(s).scheduler().failed_nodes();
  }
  EXPECT_EQ(failed, 1);

  grid.sim().run_until(SimTime::from_seconds(600));
  // The broker saw the kill, resubmitted, and the job finished elsewhere;
  // the crashed node was revived and is back in service.
  EXPECT_TRUE(outcome.completed);
  EXPECT_GE(grid.broker().record(id)->resubmissions, 1);
  for (std::size_t s = 0; s < grid.site_count(); ++s) {
    EXPECT_EQ(grid.site(s).scheduler().failed_nodes(), 0);
  }
  EXPECT_EQ(injector.injected_faults(), 1u);
  EXPECT_EQ(injector.recoveries(), 1u);
}

// ----------------------------------------------- real interpose scenario ----

TEST(FaultInjectionRealTest, SpoolWriteFailureRecoversWithoutLoss) {
  using namespace std::chrono_literals;
  const std::string spool =
      "/tmp/cg-fault-spool-" + std::to_string(::getpid());
  std::remove(spool.c_str());
  std::remove((spool + ".cursor").c_str());

  auto shadow = interpose::ConsoleShadow::listen();
  ASSERT_TRUE(shadow.has_value());
  std::mutex mu;
  std::string received;
  (*shadow)->set_output_handler(
      [&](std::uint32_t, interpose::FrameType, std::string_view data) {
        const std::lock_guard lock{mu};
        received += data;
      });

  interpose::ConsoleAgentConfig config;
  config.mode = jdl::StreamingMode::kReliable;
  config.shadow_port = (*shadow)->port();
  config.spool_path = spool;
  config.retry_interval_ms = 100;
  config.max_retries = 100;
  config.flush_timeout_ms = 20;

  // The child prints one line before the fault window and one inside it.
  auto agent = interpose::ConsoleAgent::launch(
      {"/bin/sh", "-c", "echo first; sleep 1; echo second; sleep 0.2"}, config);
  ASSERT_TRUE(agent.has_value()) << agent.error().to_string();
  ASSERT_NE((*agent)->spool(), nullptr);

  std::this_thread::sleep_for(300ms);
  (*agent)->spool()->set_fail_appends(true);  // the disk "fails"
  std::this_thread::sleep_for(1200ms);
  (*agent)->spool()->set_fail_appends(false);  // …and recovers

  (*agent)->wait_for_exit();
  for (int i = 0; i < 200; ++i) {
    {
      const std::lock_guard lock{mu};
      if (received.find("second") != std::string::npos) break;
    }
    std::this_thread::sleep_for(20ms);
  }
  const std::lock_guard lock{mu};
  EXPECT_NE(received.find("first"), std::string::npos);
  EXPECT_NE(received.find("second"), std::string::npos);
  EXPECT_FALSE((*agent)->gave_up());
  std::remove(spool.c_str());
  std::remove((spool + ".cursor").c_str());
}

}  // namespace
}  // namespace cg
