// Chaos scenario suite for agent supervision and partition-aware job
// eviction: a wedged agent on a healthy link (its heartbeats stop though no
// message is lost), heartbeats blackholed by a message fault, partitions
// that heal inside and outside the running-job grace, and spool faults
// during reliable streaming. Each
// scenario asserts a full filtered trace-event digest against a golden
// sequence and byte-identical same-seed typed-trace exports.
//
// The binary has a custom main: `--list-scenarios` prints the registry (one
// scenario per line, name <TAB> description) and exits; anything else runs
// the gtest suite. Setting CG_DUMP_DIGESTS=1 prints each scenario's digest
// to stderr, which is how the goldens below were pinned.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "broker/fault_bridge.hpp"
#include "broker/grid_scenario.hpp"
#include "obs/observability.hpp"
#include "sim/fault.hpp"
#include "stream/grid_console.hpp"

namespace cg {
namespace {

using namespace cg::literals;

// ---------------------------------------------------------------- registry --

struct ScenarioInfo {
  const char* name;
  const char* description;
};

constexpr ScenarioInfo kScenarios[] = {
    {"wedged-agent-healthy-link",
     "agent event loop stalls on a healthy link; its heartbeats stop, the "
     "agent is suspected, and its residents are evicted"},
    {"partition-heal-within-grace",
     "broker<->site partition heals before running_job_grace expires; the "
     "agent is restored and nothing is evicted"},
    {"partition-past-grace",
     "partition outlives running_job_grace; running residents are evicted "
     "with reason=partition and resubmitted elsewhere"},
    {"liveness-echo-blackhole",
     "a message fault drops only Heartbeat on the broker<->site pair while "
     "the link stays up; the lost keepalives alone drive suspicion and "
     "eviction"},
    {"spool-fault-during-streaming",
     "worker-node disk fails mid reliable stream; appends are rejected and "
     "retried until the disk heals, losing nothing"},
    {"suspected-site-avoidance",
     "partition-past-grace eviction drives the site past the SiteHealth "
     "exclusion threshold; the replacement provably lands elsewhere and the "
     "site is used again once suspicion decays below the threshold"},
};

// ------------------------------------------------------------ grid harness --

jdl::JobDescription parse_job(const std::string& source) {
  auto jd = jdl::JobDescription::parse(source);
  EXPECT_TRUE(jd.has_value()) << (jd ? "" : jd.error().to_string());
  return jd.value();
}

struct Outcome {
  bool running = false;
  bool completed = false;
  bool failed = false;
};

broker::JobCallbacks watch(Outcome& outcome) {
  broker::JobCallbacks cb;
  cb.on_running = [&outcome](const broker::JobRecord&) { outcome.running = true; };
  cb.on_complete = [&outcome](const broker::JobRecord&) {
    outcome.completed = true;
  };
  cb.on_failed = [&outcome](const broker::JobRecord&, const Error&) {
    outcome.failed = true;
  };
  return cb;
}

/// The filtered trace digest a scenario pins: every supervision and recovery
/// event, in simulation order, without timestamps (timing is covered by the
/// byte-identical jsonl assertion). One token per line, "kind" or "kind(jN)".
std::string kinds_digest(const obs::JobTracer& tracer) {
  std::string out;
  for (const obs::JobTraceEvent& event : tracer.events()) {
    switch (event.kind) {
      case obs::TraceEventKind::kHeartbeatMiss:
      case obs::TraceEventKind::kLivenessMiss:
      case obs::TraceEventKind::kAgentSuspected:
      case obs::TraceEventKind::kAgentRestored:
      case obs::TraceEventKind::kJobEvicted:
      case obs::TraceEventKind::kResubmitted:
      case obs::TraceEventKind::kSpoolFull:
      case obs::TraceEventKind::kCompleted:
      case obs::TraceEventKind::kFailed:
        out += to_string(event.kind);
        if (event.job != JobId::none()) {
          out += "(j" + std::to_string(event.job.value()) + ")";
        }
        out += "\n";
        break;
      default:
        break;
    }
  }
  return out;
}

void maybe_dump(const char* scenario, const std::string& digest) {
  if (std::getenv("CG_DUMP_DIGESTS") != nullptr) {
    std::cerr << "=== digest[" << scenario << "] ===\n" << digest << "===\n";
  }
}

struct ScenarioResult {
  Outcome batch;
  Outcome inter;
  int inter_resubmissions = 0;
  std::string digest;  ///< filtered trace-kind sequence (kinds_digest)
  std::string jsonl;   ///< full typed trace export (byte-comparable)
  std::uint64_t heartbeat_misses = 0;
  std::uint64_t msg_drops = 0;  ///< net.msg.dropped across all types/reasons
  std::uint64_t partition_drops = 0;  ///< drops a link outage caused
  std::uint64_t suspected = 0;
  std::uint64_t restored = 0;
  std::uint64_t evictions = 0;
  std::optional<SimTime> suspected_at;
  std::optional<SimTime> inter_evicted_at;
  std::size_t active_leases = 0;
};

/// Context handed to a scenario's fault author: enough to name victims via
/// the DSL and to find the link carrying the victim agent's supervision.
struct FaultContext {
  broker::GridScenario& grid;
  broker::FaultBridge& bridge;
  JobId inter_id;

  [[nodiscard]] std::string inter_query() const {
    return "agent_of(job:" + std::to_string(inter_id.value()) + ")";
  }
  /// Endpoint of the site hosting the interactive job's agent.
  [[nodiscard]] std::string inter_site_endpoint() const {
    const auto agent_id = bridge.resolve_agent(inter_query());
    EXPECT_TRUE(agent_id.has_value());
    const glidein::GlideinAgent* agent =
        grid.broker().agents().find(*agent_id);
    EXPECT_NE(agent, nullptr);
    for (std::size_t i = 0; i < grid.site_count(); ++i) {
      if (grid.site(i).id() == agent->site()) return grid.site(i).endpoint();
    }
    ADD_FAILURE() << "agent site not found";
    return "";
  }
};

/// One grid chaos run: a long batch job plus a shared-mode interactive job
/// riding a glide-in agent, faults injected at t >= 300 s, supervision via
/// the agents' heartbeats, eviction after a 60 s grace.
ScenarioResult run_grid_scenario(
    const char* name,
    const std::function<void(sim::FaultPlan&, const FaultContext&)>& author) {
  broker::GridScenarioConfig config;
  config.sites = 2;
  config.nodes_per_site = 2;
  config.broker.running_job_grace = Duration::seconds(60);
  obs::Observability obs;
  broker::GridScenario grid{config};
  grid.broker().set_observability(&obs);

  ScenarioResult result;
  (void)grid.broker().submit(parse_job("Executable = \"sim\";"), UserId{1},
                             lrms::Workload::cpu(1200_s),
                             broker::GridScenario::ui_endpoint(),
                             watch(result.batch));
  grid.sim().run_until(SimTime::from_seconds(120));

  const JobId inter_id =
      grid.broker()
          .submit(parse_job("Executable = \"viz\"; JobType = \"interactive\"; "
                            "MachineAccess = \"shared\"; PerformanceLoss = 10;"),
                  UserId{2}, lrms::Workload::cpu(600_s),
                  broker::GridScenario::ui_endpoint(), watch(result.inter))
          .value();
  grid.sim().run_until(SimTime::from_seconds(240));
  EXPECT_TRUE(result.inter.running);

  sim::FaultInjector injector{grid.sim(), &grid.network()};
  injector.register_message_sink(&grid.bus());
  broker::FaultBridge bridge{grid, injector};
  sim::FaultPlan plan;
  author(plan, FaultContext{grid, bridge, inter_id});
  injector.arm(plan);

  grid.sim().run_until(SimTime::from_seconds(2400));

  result.inter_resubmissions = grid.broker().record(inter_id)->resubmissions;
  result.digest = kinds_digest(obs.tracer);
  result.jsonl = obs.tracer.to_jsonl();
  result.heartbeat_misses =
      obs.metrics.counter_total("broker.heartbeat_misses");
  result.msg_drops = obs.metrics.counter_total("net.msg.dropped");
  for (const obs::JobTraceEvent& event :
       obs.tracer.of_kind(obs::TraceEventKind::kMsgDropped)) {
    if (event.detail == "partition") ++result.partition_drops;
  }
  result.suspected = obs.metrics.counter_total("broker.agents_suspected");
  result.restored = obs.metrics.counter_total("broker.agents_restored");
  result.evictions = obs.metrics.counter_total("broker.jobs_evicted");
  for (const obs::JobTraceEvent& event :
       obs.tracer.of_kind(obs::TraceEventKind::kAgentSuspected)) {
    if (!result.suspected_at) result.suspected_at = event.when;
  }
  for (const obs::JobTraceEvent& event :
       obs.tracer.of_kind(obs::TraceEventKind::kJobEvicted)) {
    if (event.job == inter_id && !result.inter_evicted_at) {
      result.inter_evicted_at = event.when;
    }
  }
  result.active_leases = grid.broker().leases().active_leases();
  maybe_dump(name, result.digest);
  return result;
}

// -------------------------------------- scenario: wedged agent, healthy link

ScenarioResult run_wedged_agent() {
  return run_grid_scenario(
      "wedged-agent-healthy-link",
      [](sim::FaultPlan& plan, const FaultContext& ctx) {
        plan.wedge_agent(ctx.inter_query(), SimTime::from_seconds(300.0),
                         Duration::seconds(200));
      });
}

TEST(LivenessScenarioTest, WedgedAgentOnHealthyLinkIsSuspectedAndEvicts) {
  const ScenarioResult run = run_wedged_agent();
  // The link never went down and not one message was lost: the wedged
  // event loop simply stopped sending heartbeats.
  EXPECT_EQ(run.msg_drops, 0u);
  EXPECT_GE(run.heartbeat_misses, 3u);
  EXPECT_EQ(run.suspected, 1u);
  // Suspected within (miss_limit + 1) supervision intervals of the wedge:
  // the acceptance bound of the liveness tentpole.
  ASSERT_TRUE(run.suspected_at.has_value());
  EXPECT_GE(*run.suspected_at, SimTime::from_seconds(300.0));
  EXPECT_LE(*run.suspected_at,
            SimTime::from_seconds(300.0) +
                broker::kSupervisionInterval *
                    (broker::kSupervisionMissLimit + 1));
  // The running resident was evicted after the 60 s grace, resubmitted, and
  // finished elsewhere; the unwedged agent was eventually restored.
  ASSERT_TRUE(run.inter_evicted_at.has_value());
  EXPECT_GE(*run.inter_evicted_at, *run.suspected_at + Duration::seconds(60));
  EXPECT_GE(run.evictions, 1u);
  EXPECT_GE(run.inter_resubmissions, 1);
  EXPECT_TRUE(run.inter.completed);
  EXPECT_EQ(run.restored, 1u);
  EXPECT_EQ(run.active_leases, 0u);
}

TEST(LivenessScenarioTest, WedgedAgentScenarioIsByteIdenticalAcrossRuns) {
  const ScenarioResult a = run_wedged_agent();
  const ScenarioResult b = run_wedged_agent();
  EXPECT_EQ(a.jsonl, b.jsonl);
  EXPECT_FALSE(a.jsonl.empty());
}

// -------------------------------- scenario: heartbeat blackhole (kMsgDrop)

/// The message-fault twin of the wedge: the agent is perfectly healthy and
/// sends every heartbeat, but a kMsgDrop fault blackholes Heartbeat — and
/// only Heartbeat — on the broker<->site pair while the link stays up. The
/// scenario keeps the name it had when supervision also echoed probes.
ScenarioResult run_heartbeat_blackhole() {
  return run_grid_scenario(
      "liveness-echo-blackhole",
      [](sim::FaultPlan& plan, const FaultContext& ctx) {
        plan.drop_messages("Heartbeat", "broker", ctx.inter_site_endpoint(),
                           SimTime::from_seconds(300.0),
                           Duration::seconds(200));
      });
}

TEST(LivenessScenarioTest, HeartbeatBlackholeSuspectsOnAHealthyLink) {
  const ScenarioResult run = run_heartbeat_blackhole();
  // The link never failed: not one message was lost to a partition.
  EXPECT_EQ(run.partition_drops, 0u);
  EXPECT_GE(run.heartbeat_misses, 3u);
  // The bus counted each blackholed heartbeat (reason=fault) on the shared
  // registry — the fault fired through the typed delivery path, not around
  // it — and every miss stands for one of them.
  EXPECT_GE(run.msg_drops, run.heartbeat_misses);
  EXPECT_EQ(run.suspected, 1u);
  ASSERT_TRUE(run.suspected_at.has_value());
  EXPECT_GE(*run.suspected_at, SimTime::from_seconds(300.0));
  EXPECT_LE(*run.suspected_at,
            SimTime::from_seconds(300.0) +
                broker::kSupervisionInterval *
                    (broker::kSupervisionMissLimit + 1));
  // Grace expired behind the blackhole: residents evicted and resubmitted,
  // and the agent restored once the fault healed and a heartbeat got
  // through.
  ASSERT_TRUE(run.inter_evicted_at.has_value());
  EXPECT_GE(*run.inter_evicted_at, *run.suspected_at + Duration::seconds(60));
  EXPECT_GE(run.evictions, 1u);
  EXPECT_GE(run.inter_resubmissions, 1);
  EXPECT_TRUE(run.inter.completed);
  EXPECT_EQ(run.restored, 1u);
  EXPECT_EQ(run.active_leases, 0u);
}

TEST(LivenessScenarioTest, HeartbeatBlackholeIsByteIdenticalAcrossRuns) {
  const ScenarioResult a = run_heartbeat_blackhole();
  const ScenarioResult b = run_heartbeat_blackhole();
  EXPECT_EQ(a.jsonl, b.jsonl);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_FALSE(a.jsonl.empty());
}

// ------------------------------------ scenario: partition heals within grace

ScenarioResult run_partition_within_grace() {
  return run_grid_scenario(
      "partition-heal-within-grace",
      [](sim::FaultPlan& plan, const FaultContext& ctx) {
        plan.partition_link("broker", ctx.inter_site_endpoint(),
                            SimTime::from_seconds(300.0),
                            Duration::seconds(40));
      });
}

TEST(LivenessScenarioTest, PartitionHealedWithinGraceEvictsNothing) {
  const ScenarioResult run = run_partition_within_grace();
  // The partition was long enough to suspect the agent…
  EXPECT_EQ(run.suspected, 1u);
  EXPECT_GE(run.heartbeat_misses, 3u);
  EXPECT_GE(run.partition_drops, 3u);
  // …but healed before running_job_grace expired, so the armed eviction
  // timer found the agent restored and stood down: nothing was evicted, the
  // resident kept running where it was, and no resubmission happened.
  EXPECT_EQ(run.evictions, 0u);
  EXPECT_EQ(run.inter_resubmissions, 0);
  EXPECT_EQ(run.restored, 1u);
  EXPECT_TRUE(run.inter.completed);
  EXPECT_TRUE(run.batch.completed);
  EXPECT_EQ(run.active_leases, 0u);
}

// -------------------------------------- scenario: partition outlives grace

ScenarioResult run_partition_past_grace() {
  return run_grid_scenario(
      "partition-past-grace",
      [](sim::FaultPlan& plan, const FaultContext& ctx) {
        plan.partition_link("broker", ctx.inter_site_endpoint(),
                            SimTime::from_seconds(300.0),
                            Duration::seconds(150));
      });
}

TEST(LivenessScenarioTest, PartitionPastGraceEvictsAndResubmitsRunningJob) {
  const ScenarioResult run = run_partition_past_grace();
  // SiteHealth hard-excludes the partitioned site after suspicion + eviction,
  // so the replacement agent is deployed elsewhere and is never suspected:
  // exactly one suspicion cycle, exact sequence pinned by the golden digest.
  EXPECT_EQ(run.suspected, 1u);
  // The grace expired behind the partition: the running interactive resident
  // was timed out, evicted with reason=partition, and resubmitted.
  ASSERT_TRUE(run.inter_evicted_at.has_value());
  ASSERT_TRUE(run.suspected_at.has_value());
  EXPECT_GE(*run.inter_evicted_at, *run.suspected_at + Duration::seconds(60));
  EXPECT_GE(run.evictions, 1u);
  EXPECT_GE(run.inter_resubmissions, 1);
  EXPECT_TRUE(run.inter.completed);
  // Every healed agent re-registered once its heartbeats got through again.
  EXPECT_GE(run.restored, 1u);
  EXPECT_EQ(run.restored, run.suspected);
  EXPECT_EQ(run.active_leases, 0u);
}

TEST(LivenessScenarioTest, PartitionPastGraceIsByteIdenticalAcrossRuns) {
  const ScenarioResult a = run_partition_past_grace();
  const ScenarioResult b = run_partition_past_grace();
  EXPECT_EQ(a.jsonl, b.jsonl);
  EXPECT_EQ(a.digest, b.digest);
}

// ------------------------- scenario: suspicion steers placement off-site --

struct AvoidanceRun {
  std::uint64_t original_site = 0;     ///< site the interactive job started on
  std::uint64_t replacement_site = 0;  ///< site after the eviction resubmit
  std::uint64_t late_site = 0;         ///< site of the post-recovery probe job
  bool excluded_mid_partition = false;
  bool excluded_at_probe = false;
  Outcome inter;
  Outcome probe;
  std::string digest;
  std::string jsonl;
};

/// Partition-past-grace chaos with site-identity assertions: the suspected
/// site is hard-excluded by SiteHealth, so the evicted job's replacement
/// provably lands on the other site; once suspicion decays below the
/// exclusion threshold a late probe job — with the healthy site kept full by
/// a long filler — returns to the recovered site.
AvoidanceRun run_suspected_site_avoidance() {
  broker::GridScenarioConfig config;
  config.sites = 2;
  config.nodes_per_site = 2;
  config.broker.running_job_grace = Duration::seconds(60);
  obs::Observability obs;
  broker::GridScenario grid{config};
  grid.broker().set_observability(&obs);

  // Live capture through the typed subscription API: every match, as it
  // happens, without scanning the tracer afterwards.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> matches;  // (job, site)
  obs.tracer.subscribe(
      obs::TraceEventKind::kMatched, [&matches](const obs::JobTraceEvent& e) {
        const std::string* site = e.attrs.find("site");
        ASSERT_NE(site, nullptr);
        matches.emplace_back(e.job.value(), std::stoull(*site));
      });
  const auto site_of = [&matches](JobId job, bool last) {
    std::optional<std::uint64_t> found;
    for (const auto& [j, site] : matches) {
      if (j != job.value()) continue;
      found = site;
      if (!last) break;
    }
    EXPECT_TRUE(found.has_value()) << "no match recorded for j" << job.value();
    return found.value_or(~std::uint64_t{0});
  };

  AvoidanceRun result;
  Outcome batch;
  (void)grid.broker().submit(parse_job("Executable = \"sim\";"), UserId{1},
                             lrms::Workload::cpu(3000_s),
                             broker::GridScenario::ui_endpoint(), watch(batch));
  grid.sim().run_until(SimTime::from_seconds(120));

  const JobId inter_id =
      grid.broker()
          .submit(parse_job("Executable = \"viz\"; JobType = \"interactive\"; "
                            "MachineAccess = \"shared\"; PerformanceLoss = 10;"),
                  UserId{2}, lrms::Workload::cpu(600_s),
                  broker::GridScenario::ui_endpoint(), watch(result.inter))
          .value();
  grid.sim().run_until(SimTime::from_seconds(240));
  EXPECT_TRUE(result.inter.running);
  result.original_site = site_of(inter_id, /*last=*/false);

  std::string endpoint;
  for (std::size_t i = 0; i < grid.site_count(); ++i) {
    if (grid.site(i).id().value() == result.original_site) {
      endpoint = grid.site(i).endpoint();
    }
  }
  EXPECT_FALSE(endpoint.empty());

  sim::FaultInjector injector{grid.sim(), &grid.network()};
  sim::FaultPlan plan;
  plan.partition_link("broker", endpoint, SimTime::from_seconds(300.0),
                      Duration::seconds(150));
  injector.arm(plan);

  // By 600 s the grace has expired behind the partition: the residents were
  // evicted, the site crossed the exclusion threshold, and the replacement
  // was matched somewhere it is allowed to go.
  grid.sim().run_until(SimTime::from_seconds(600));
  result.excluded_mid_partition =
      grid.broker().site_health().hard_excluded(SiteId{result.original_site});
  result.replacement_site = site_of(inter_id, /*last=*/true);

  // Fill the healthy site's remaining node for the rest of the run: the late
  // probe can only start if the recovered site is matchable again.
  Outcome filler;
  (void)grid.broker().submit(parse_job("Executable = \"sim\";"), UserId{3},
                             lrms::Workload::cpu(4000_s),
                             broker::GridScenario::ui_endpoint(), watch(filler));

  // Suspicion decays with a 600 s half-life: by 3000 s it is far below the
  // exclusion threshold and the original site is eligible again.
  grid.sim().run_until(SimTime::from_seconds(3000));
  result.excluded_at_probe =
      grid.broker().site_health().hard_excluded(SiteId{result.original_site});
  const JobId probe_id =
      grid.broker()
          .submit(parse_job("Executable = \"probe\";"), UserId{4},
                  lrms::Workload::cpu(300_s),
                  broker::GridScenario::ui_endpoint(), watch(result.probe))
          .value();
  grid.sim().run_until(SimTime::from_seconds(6000));

  result.late_site = site_of(probe_id, /*last=*/false);
  result.digest = kinds_digest(obs.tracer);
  result.jsonl = obs.tracer.to_jsonl();
  maybe_dump("suspected-site-avoidance", result.digest);
  return result;
}

TEST(LivenessScenarioTest, EvictionReplacementAvoidsSuspectedSiteUntilDecay) {
  const AvoidanceRun run = run_suspected_site_avoidance();
  // Mid-partition the suspected site sits above the exclusion threshold and
  // the evicted interactive job's replacement landed on the other site.
  EXPECT_TRUE(run.excluded_mid_partition);
  EXPECT_NE(run.replacement_site, run.original_site);
  EXPECT_TRUE(run.inter.completed);
  // After ~4 half-lives the exclusion has lapsed; with the healthy site kept
  // full, the probe job's only home is the recovered site — and it got it.
  EXPECT_FALSE(run.excluded_at_probe);
  EXPECT_EQ(run.late_site, run.original_site);
  EXPECT_TRUE(run.probe.completed);
}

TEST(LivenessScenarioTest, SuspectedSiteAvoidanceIsByteIdenticalAcrossRuns) {
  const AvoidanceRun a = run_suspected_site_avoidance();
  const AvoidanceRun b = run_suspected_site_avoidance();
  EXPECT_EQ(a.jsonl, b.jsonl);
  EXPECT_EQ(a.digest, b.digest);
}

// ---------------------------------- scenario: spool fault during streaming

struct SpoolRun {
  std::string screen;
  std::size_t spool_rejections = 0;
  std::size_t bytes_lost = 0;
  bool agent_failed = false;
  std::uint64_t spool_full_events = 0;
  std::uint64_t spool_full_metric = 0;
  std::string jsonl;
};

/// Reliable-mode console session whose worker-node disk fails for 10 s while
/// 30 one-second ticks stream; the kSpoolFail fault flips the registered
/// DiskModel's health, so every append in the window is rejected through the
/// real spool state and retried until the disk heals.
SpoolRun run_spool_fault_stream(std::uint64_t seed) {
  sim::Simulation sim;
  sim::Network network{Rng{seed}};
  network.add_link("ui", "wn", sim::LinkSpec::campus());

  obs::Observability obs;
  SpoolRun result;
  stream::GridConsoleConfig config;
  config.mode = jdl::StreamingMode::kReliable;
  config.retry.retry_interval = 1_s;
  config.retry.max_retries = 60;
  config.obs = &obs;
  config.job = JobId{1};
  stream::GridConsole console{sim, network, config, "ui",
                              [&](std::string d) { result.screen += d; },
                              Rng{seed ^ 0x5a5a}};
  auto& agent = console.add_agent(0, "wn");

  sim::FaultInjector injector{sim, &network};
  injector.register_disk("wn-disk", &console.wn_disk(0));
  sim::FaultPlan plan;
  plan.fail_spool("wn-disk", SimTime::from_seconds(5.0),
                  Duration::seconds(10));
  injector.arm(plan);

  for (int i = 0; i < 30; ++i) {
    sim.schedule(Duration::seconds(i), [&agent, i] {
      agent.write_stdout("tick " + std::to_string(i) + "\n");
    });
  }
  sim.run();

  result.bytes_lost = agent.output_bytes_lost();
  result.agent_failed = agent.failed();
  result.spool_full_events =
      obs.tracer.count(obs::TraceEventKind::kSpoolFull);
  result.spool_full_metric = obs.metrics.counter_total("stream.spool_full");
  result.jsonl = obs.tracer.to_jsonl();
  maybe_dump("spool-fault-during-streaming", kinds_digest(obs.tracer));
  return result;
}

TEST(LivenessScenarioTest, SpoolFaultDuringStreamingRetriesWithoutLoss) {
  const SpoolRun run = run_spool_fault_stream(11);
  std::string expected;
  for (int i = 0; i < 30; ++i) expected += "tick " + std::to_string(i) + "\n";
  // Appends failed through real disk state while the fault was live…
  EXPECT_GE(run.spool_full_events, 1u);
  EXPECT_GE(run.spool_full_metric, 1u);
  // …yet the retry loop delivered every frame once the disk healed.
  EXPECT_EQ(run.screen, expected);
  EXPECT_EQ(run.bytes_lost, 0u);
  EXPECT_FALSE(run.agent_failed);
}

TEST(LivenessScenarioTest, SpoolFaultStreamIsByteIdenticalAcrossRuns) {
  const SpoolRun a = run_spool_fault_stream(7);
  const SpoolRun b = run_spool_fault_stream(7);
  EXPECT_EQ(a.jsonl, b.jsonl);
  EXPECT_EQ(a.screen, b.screen);
}

/// A bounded spool also rejects appends with a healthy disk: capacity
/// pressure during an outage exercises the same retry machinery.
TEST(LivenessScenarioTest, SpoolCapacityPressureDuringPartitionLosesNothing) {
  sim::Simulation sim;
  sim::Network network{Rng{11}};
  network.add_link("ui", "wn", sim::LinkSpec::campus());

  sim::FaultInjector injector{sim, &network};
  sim::FaultPlan plan;
  plan.partition_link("ui", "wn", SimTime::from_seconds(5.0),
                      Duration::seconds(20));
  injector.arm(plan);

  std::string screen;
  stream::GridConsoleConfig config;
  config.mode = jdl::StreamingMode::kReliable;
  config.retry.retry_interval = 1_s;
  config.retry.max_retries = 60;
  // Room for roughly two frames: the partition backlog overflows it.
  config.retry.spool_capacity_bytes = 16;
  stream::GridConsole console{sim, network, config, "ui",
                              [&](std::string d) { screen += d; },
                              Rng{11 ^ 0x5a5a}};
  auto& agent = console.add_agent(0, "wn");
  for (int i = 0; i < 30; ++i) {
    sim.schedule(Duration::seconds(i), [&agent, i] {
      agent.write_stdout("tick " + std::to_string(i) + "\n");
    });
  }
  sim.run();

  std::string expected;
  for (int i = 0; i < 30; ++i) expected += "tick " + std::to_string(i) + "\n";
  EXPECT_EQ(screen, expected);
  EXPECT_EQ(agent.output_bytes_lost(), 0u);
  EXPECT_FALSE(agent.failed());
}

// ----------------------- fast-mode wedge: dropped frames stay accountable --

/// Broker-free victim resolution for pure stream tests: the DSL target names
/// one console agent directly, so fault plans drive stream scenarios through
/// sim::install_victim_handlers without a grid or a FaultBridge.
class ConsoleAgentResolver final : public sim::FaultVictimResolver {
public:
  ConsoleAgentResolver(std::string name, stream::ConsoleAgent& agent)
      : name_{std::move(name)}, agent_{agent} {}

  bool set_agent_wedged(const std::string& target, bool wedged) override {
    if (target != name_) return false;
    agent_.set_wedged(wedged);
    return true;
  }
  bool crash_agent(const std::string&) override { return false; }
  bool set_node_failed(const std::string&, bool) override { return false; }

private:
  std::string name_;
  stream::ConsoleAgent& agent_;
};

TEST(LivenessScenarioTest, FastModeWedgeDropsFramesVisiblyOnShadow) {
  sim::Simulation sim;
  sim::Network network{Rng{11}};
  network.add_link("ui", "wn", sim::LinkSpec::campus());

  obs::Observability obs;
  std::string screen;
  stream::GridConsoleConfig config;
  config.mode = jdl::StreamingMode::kFast;
  config.obs = &obs;
  config.job = JobId{1};
  stream::GridConsole console{sim, network, config, "ui",
                              [&](std::string d) { screen += d; },
                              Rng{11 ^ 0x5a5a}};
  auto& agent = console.add_agent(0, "wn");

  // The wedge stalls the agent's relay loop on a *healthy* link; the shared
  // victim-handler wiring resolves the DSL target through a stream-side
  // resolver (no grid, so no FaultBridge).
  sim::FaultInjector injector{sim, &network};
  ConsoleAgentResolver resolver{"console-agent", agent};
  sim::install_victim_handlers(injector, resolver);
  sim::FaultPlan plan;
  plan.wedge_agent("console-agent", SimTime::from_seconds(5.0),
                   Duration::seconds(10));
  injector.arm(plan);

  for (int i = 0; i < 30; ++i) {
    sim.schedule(Duration::seconds(i), [&agent, i] {
      agent.write_stdout("tick " + std::to_string(i) + "\n");
    });
  }
  sim.run();

  // Frames flushed during the wedge were dropped and counted on the agent…
  EXPECT_GT(agent.frames_dropped(), 0u);
  EXPECT_GT(agent.output_bytes_lost(), 0u);
  // …and the post-unwedge reconnect report made the loss visible on the
  // shadow's snapshot counters, exactly like a link outage would.
  EXPECT_EQ(console.shadow().frames_dropped(), agent.frames_dropped());
  EXPECT_GE(console.shadow().drop_reports(), 1u);
  EXPECT_EQ(obs.metrics.counter_total("stream.frames_dropped"),
            agent.frames_dropped());
  EXPECT_GE(obs.tracer.count(obs::TraceEventKind::kFrameDropped), 1u);
}

// ----------------------------------------------------------------- goldens --

// Pinned from the first deterministic run (CG_DUMP_DIGESTS=1); the fixed
// scenario seed (20060915) makes these exact. A change here means the
// supervision/eviction event sequence changed and must be reviewed.
// Wedged agent, healthy link: the silent agent's missed heartbeats drive
// suspicion, eviction, resubmission, and eventual restoration.
constexpr std::string_view kWedgedAgentGolden = R"(heartbeat_miss
heartbeat_miss
heartbeat_miss
agent_suspected
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
job_evicted(j4)
resubmitted(j4)
job_evicted(j1)
resubmitted(j1)
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
agent_restored
completed(j4)
completed(j1)
)";

// Heartbeat blackhole: the kMsgDrop message fault reproduces the wedge's
// signature — suspicion with the link up — through the typed delivery path.
constexpr std::string_view kHeartbeatBlackholeGolden = R"(heartbeat_miss
heartbeat_miss
heartbeat_miss
agent_suspected
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
job_evicted(j4)
resubmitted(j4)
job_evicted(j1)
resubmitted(j1)
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
agent_restored
completed(j4)
completed(j1)
)";

// Partition healed inside the grace: suspicion but no job_evicted anywhere.
constexpr std::string_view kPartitionWithinGraceGolden = R"(heartbeat_miss
heartbeat_miss
heartbeat_miss
agent_suspected
heartbeat_miss
agent_restored
completed(j4)
completed(j1)
)";

// Partition past the grace: residents evicted and resubmitted mid-partition.
// SiteHealth hard-excludes the partitioned site (suspicion + eviction push it
// past the exclusion threshold), so the replacement agent provably lands on
// the *other* site: exactly one agent_suspected / agent_restored pair, where
// before suspicion-aware placement the replacement was re-suspected on the
// still-partitioned site (two cycles).
constexpr std::string_view kPartitionPastGraceGolden = R"(heartbeat_miss
heartbeat_miss
heartbeat_miss
agent_suspected
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
job_evicted(j4)
resubmitted(j4)
job_evicted(j1)
resubmitted(j1)
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
agent_restored
completed(j4)
completed(j1)
)";

// Suspected-site avoidance: one suspicion cycle (the replacement lands on
// the healthy site, so no re-suspicion), then the filler (j10) and the
// post-recovery probe (j13) complete alongside the original pair.
constexpr std::string_view kSuspectedSiteAvoidanceGolden = R"(heartbeat_miss
heartbeat_miss
heartbeat_miss
agent_suspected
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
job_evicted(j4)
resubmitted(j4)
job_evicted(j1)
resubmitted(j1)
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
heartbeat_miss
agent_restored
completed(j4)
completed(j13)
completed(j1)
completed(j10)
)";

TEST(LivenessScenarioTest, WedgedAgentTraceDigestMatchesGolden) {
  EXPECT_EQ(run_wedged_agent().digest, kWedgedAgentGolden);
}

TEST(LivenessScenarioTest, HeartbeatBlackholeTraceDigestMatchesGolden) {
  EXPECT_EQ(run_heartbeat_blackhole().digest, kHeartbeatBlackholeGolden);
}

TEST(LivenessScenarioTest, PartitionWithinGraceTraceDigestMatchesGolden) {
  EXPECT_EQ(run_partition_within_grace().digest, kPartitionWithinGraceGolden);
}

TEST(LivenessScenarioTest, PartitionPastGraceTraceDigestMatchesGolden) {
  EXPECT_EQ(run_partition_past_grace().digest, kPartitionPastGraceGolden);
}

TEST(LivenessScenarioTest, SuspectedSiteAvoidanceTraceDigestMatchesGolden) {
  EXPECT_EQ(run_suspected_site_avoidance().digest,
            kSuspectedSiteAvoidanceGolden);
}

}  // namespace
}  // namespace cg

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view{argv[i]} == "--list-scenarios") {
      for (const cg::ScenarioInfo& scenario : cg::kScenarios) {
        std::cout << scenario.name << "\t" << scenario.description << "\n";
      }
      return 0;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
