// Observability subsystem tests: metric primitives (histogram percentiles,
// labeled-counter merging), the typed job tracer and its exports, the
// determinism contract (two same-seed runs produce byte-identical exports),
// and the acceptance scenario — a link partition during fast-mode streaming
// whose trace shows the drops, the ConsoleShadow counter incrementing, and
// the recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "grid/grid.hpp"
#include "obs/observability.hpp"
#include "sim/fault.hpp"
#include "stream/grid_console.hpp"
#include "util/stats.hpp"

namespace cg {
namespace {

using namespace cg::literals;
using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::JobTraceEvent;
using obs::JobTracer;
using obs::LabelSet;
using obs::MetricsRegistry;
using obs::TraceEventKind;

// ----------------------------------------------------------- primitives ----

TEST(LabelSetTest, OrderingIsCanonical) {
  const LabelSet a{{"site", "1"}, {"user", "7"}};
  const LabelSet b{{"user", "7"}, {"site", "1"}};
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.to_string(), "{site=\"1\",user=\"7\"}");
  EXPECT_TRUE(LabelSet{}.to_string().empty());

  // A key given twice keeps its last value; set() overwrites.
  LabelSet c{{"user", "1"}, {"site", "2"}, {"user", "3"}};
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.to_string(), "{site=\"2\",user=\"3\"}");
  c.set("site", "9");
  c.set("agent", "4");
  EXPECT_EQ(c.size(), 3u);
  ASSERT_NE(c.find("site"), nullptr);
  EXPECT_EQ(*c.find("site"), "9");
  EXPECT_EQ(c.find("zone"), nullptr);
  EXPECT_EQ(c.find("a"), nullptr);
  EXPECT_EQ(LabelSet{}.find("site"), nullptr);

  std::vector<std::string> keys;
  for (const auto& [k, v] : c.entries()) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<std::string>{"agent", "site", "user"}));

  // Lexicographic over the sorted labels, as a key-sorted map compares.
  const LabelSet a1{{"a", "1"}};
  const LabelSet a1b2{{"b", "2"}, {"a", "1"}};
  const LabelSet a2{{"a", "2"}};
  const LabelSet b0{{"b", "0"}};
  EXPECT_LT(LabelSet{}, a1);
  EXPECT_LT(a1, a1b2);
  EXPECT_LT(a1b2, a2);
  EXPECT_LT(a2, b0);
  EXPECT_GT(b0, a1);
}

TEST(HistogramTest, MomentsAreExact) {
  Histogram h;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) h.observe(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 10.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
}

TEST(HistogramTest, PercentilesApproximateTheDistribution) {
  Histogram h;
  // 1..1000 ms uniformly.
  for (int i = 1; i <= 1000; ++i) h.observe(i / 1000.0);
  EXPECT_DOUBLE_EQ(h.percentile(0), h.min());
  EXPECT_DOUBLE_EQ(h.percentile(100), h.max());
  // Log-spaced buckets: estimates land within one bucket (~6%) of truth.
  EXPECT_NEAR(h.percentile(50), 0.5, 0.5 * 0.08);
  EXPECT_NEAR(h.percentile(95), 0.95, 0.95 * 0.08);
  // Percentiles never step outside the observed range.
  EXPECT_GE(h.percentile(99.9), h.min());
  EXPECT_LE(h.percentile(99.9), h.max());
}

TEST(HistogramTest, EmptyAndOutOfRangeValues) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  // Values outside the bucket span clamp into edge buckets; min/max stay
  // exact because they come from RunningStats.
  h.observe(1e-9);
  h.observe(1e9);
  EXPECT_DOUBLE_EQ(h.min(), 1e-9);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
  EXPECT_GE(h.percentile(50), h.min());
  EXPECT_LE(h.percentile(50), h.max());
}

TEST(HistogramTest, MergeCombinesMomentsAndBuckets) {
  Histogram a;
  Histogram b;
  for (int i = 1; i <= 100; ++i) a.observe(i / 100.0);
  for (int i = 1; i <= 100; ++i) b.observe(10.0 + i / 100.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_DOUBLE_EQ(a.max(), 10.0 + 1.0);
  // The median sits at the boundary between the halves; the bucketed
  // estimate may land one log-spaced bucket (factor 10^0.1) above it.
  EXPECT_NEAR(a.percentile(50), 1.0, 0.3);
  EXPECT_GT(a.percentile(75), 10.0 * 0.9);        // upper half from b
}

TEST(MetricsRegistryTest, LabeledCountersAreIndependentInstruments) {
  MetricsRegistry registry;
  registry.counter("jobs", {{"site", "1"}}).inc(3);
  registry.counter("jobs", {{"site", "2"}}).inc(4);
  registry.counter("jobs").inc();  // unlabeled is its own instrument
  EXPECT_EQ(registry.counter("jobs", {{"site", "1"}}).value(), 3u);
  EXPECT_EQ(registry.counter("jobs", {{"site", "2"}}).value(), 4u);
  EXPECT_EQ(registry.counter_total("jobs"), 8u);
  EXPECT_EQ(registry.find_counter("jobs", {{"site", "3"}}), nullptr);
}

TEST(MetricsRegistryTest, MergeAddsCountersByLabelSet) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.counter("jobs", {{"site", "1"}}).inc(2);
  b.counter("jobs", {{"site", "1"}}).inc(5);
  b.counter("jobs", {{"site", "2"}}).inc(1);
  b.gauge("depth", {{"site", "1"}}).set(4.0);
  a.gauge("depth", {{"site", "1"}}).set(9.0);
  b.histogram("lat").observe(1.0);
  a.merge(b);
  // Counters add per label set; missing sets are created.
  EXPECT_EQ(a.counter("jobs", {{"site", "1"}}).value(), 7u);
  EXPECT_EQ(a.counter("jobs", {{"site", "2"}}).value(), 1u);
  // Gauges keep the high-water mark.
  EXPECT_DOUBLE_EQ(a.gauge("depth", {{"site", "1"}}).value(), 9.0);
  // Histograms fold their moments in.
  EXPECT_EQ(a.histogram("lat").count(), 1u);
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndQueryable) {
  MetricsRegistry registry;
  registry.counter("z.last").inc();
  registry.counter("a.first", {{"k", "v"}}).inc(2);
  registry.histogram("m.hist").observe(0.5);
  const auto snap = registry.snapshot(SimTime::from_seconds(42));
  ASSERT_EQ(snap.samples.size(), 3u);
  EXPECT_EQ(snap.samples[0].name, "a.first");
  EXPECT_EQ(snap.samples[2].name, "z.last");
  const auto* sample = snap.find("a.first", {{"k", "v"}});
  ASSERT_NE(sample, nullptr);
  EXPECT_DOUBLE_EQ(sample->value, 2.0);
  EXPECT_FALSE(snap.to_jsonl().empty());
  EXPECT_FALSE(snap.render().empty());
}

TEST(MetricsRegistryTest, RebindingASeriesReusesItsSlot) {
  MetricsRegistry registry;
  const LabelSet labels{{"rank", "0"}, {"side", "agent"}};
  obs::CounterHandle first = registry.counter_handle("stream.flushes", labels);
  for (int i = 0; i < 10000; ++i) {
    obs::CounterHandle again = registry.counter_handle("stream.flushes", labels);
    ASSERT_TRUE(again);
  }
  EXPECT_EQ(registry.handle_slot_count(), 1u);
  // Binding alone still creates no instrument.
  EXPECT_EQ(registry.instrument_count(), 0u);
  // The kind is part of the series: a gauge of the same name is its own.
  ASSERT_TRUE(registry.gauge_handle("stream.flushes", labels));
  EXPECT_EQ(registry.handle_slot_count(), 2u);
  EXPECT_EQ(registry.instrument_count(), 0u);
  // Every handle of a series updates the one instrument.
  first.inc();
  registry.counter_handle("stream.flushes", labels).inc(2);
  ASSERT_NE(registry.find_counter("stream.flushes", labels), nullptr);
  EXPECT_EQ(registry.find_counter("stream.flushes", labels)->value(), 3u);
  EXPECT_EQ(registry.find_gauge("stream.flushes", labels), nullptr);
  EXPECT_EQ(registry.instrument_count(), 1u);
}

TEST(MetricsRegistryTest, HandleBoundAfterTheInstrumentWritesIntoIt) {
  MetricsRegistry registry;
  const LabelSet site{{"site", "1"}};
  registry.counter("lrms.dispatches", site).inc(2);
  registry.gauge("lrms.queue_depth", site).set(4.0);
  registry.histogram("lrms.dispatch_latency_s", site).observe(1.0);
  registry.counter_handle("lrms.dispatches", site).inc();
  registry.gauge_handle("lrms.queue_depth", site).add(1.0);
  registry.histogram_handle("lrms.dispatch_latency_s", site).observe(3.0);
  EXPECT_EQ(registry.counter("lrms.dispatches", site).value(), 3u);
  EXPECT_DOUBLE_EQ(registry.gauge("lrms.queue_depth", site).value(), 5.0);
  EXPECT_EQ(registry.histogram("lrms.dispatch_latency_s", site).count(), 2u);
  EXPECT_EQ(registry.instrument_count(), 3u);
}

// --------------------------------------------------------------- tracer ----

TEST(JobTracerTest, RecordsAndQueriesTypedEvents) {
  JobTracer tracer;
  const JobId job{7};
  tracer.record(SimTime::from_seconds(1), job, TraceEventKind::kSubmitted, "");
  tracer.record(SimTime::from_seconds(2), job, TraceEventKind::kMatched,
                "site 3", {{"site", "3"}});
  tracer.record(SimTime::from_seconds(3), JobId{8}, TraceEventKind::kSubmitted,
                "");
  EXPECT_EQ(tracer.events().size(), 3u);
  EXPECT_EQ(tracer.for_job(job).size(), 2u);
  EXPECT_EQ(tracer.count(TraceEventKind::kSubmitted), 2u);
  const auto* match = tracer.first(job, TraceEventKind::kMatched);
  ASSERT_NE(match, nullptr);
  ASSERT_NE(match->attrs.find("site"), nullptr);
  EXPECT_EQ(*match->attrs.find("site"), "3");
  EXPECT_EQ(tracer.first(job, TraceEventKind::kFailed), nullptr);
}

TEST(JobTracerTest, ExportsAreWellFormed) {
  JobTracer tracer;
  tracer.record(SimTime::from_seconds(1), JobId{1}, TraceEventKind::kSubmitted,
                "a \"quoted\" detail", {{"user", "u\\1"}});
  std::string jsonl = tracer.to_jsonl();
  EXPECT_NE(jsonl.find("\"kind\":\"submitted\""), std::string::npos);
  EXPECT_NE(jsonl.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_EQ(jsonl,
            "{\"ts_us\":1000000,\"job\":1,\"kind\":\"submitted\","
            "\"detail\":\"a \\\"quoted\\\" detail\",\"attrs\":{\"user\":\"u\\\\1\"}}\n");

  // The JSON-lines export is measured before it is written: one allocation
  // of exactly its size, never a doubled buffer.
  for (int i = 0; i < 300; ++i) {
    tracer.record(SimTime::from_seconds(2 + i), JobId{static_cast<std::uint64_t>(i)},
                  TraceEventKind::kStarted, "rank " + std::to_string(i % 4),
                  {{"site", std::to_string(i % 7)}, {"agent", std::to_string(i)}});
  }
  jsonl = tracer.to_jsonl();
  EXPECT_EQ(jsonl.capacity(), jsonl.size());
  EXPECT_EQ(static_cast<std::size_t>(std::count(jsonl.begin(), jsonl.end(), '\n')),
            tracer.events().size());
  const std::string chrome = tracer.to_chrome_trace();
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\""), std::string::npos);
}

// ------------------------------------------------- facade + determinism ----

/// A small grid run with one interactive job; returns the Grid's exports.
struct RunArtifacts {
  std::string trace_jsonl;
  std::string chrome;
  std::string metrics_jsonl;
  bool completed = false;
};

RunArtifacts run_instrumented_grid(std::uint64_t seed) {
  GridConfig config;
  config.sites = 2;
  config.nodes_per_site = 2;
  config.seed = seed;
  Grid grid{config};

  auto jd = jdl::JobDescription::parse(
      "Executable = \"viz\"; JobType = \"interactive\";");
  auto job = grid.submit(jd.value(), UserId{1}, lrms::Workload::cpu(60_s));
  EXPECT_TRUE(job.has_value());

  RunArtifacts artifacts;
  artifacts.completed = job && job->await().has_value();
  grid.run();
  artifacts.trace_jsonl = grid.export_trace_jsonl();
  artifacts.chrome = grid.export_chrome_trace();
  artifacts.metrics_jsonl = grid.metrics_snapshot().to_jsonl();
  return artifacts;
}

TEST(GridFacadeTest, JobLifecycleIsTraced) {
  GridConfig config;
  config.sites = 2;
  config.nodes_per_site = 2;
  Grid grid{config};
  auto jd = jdl::JobDescription::parse("Executable = \"app\";");
  auto job = grid.submit(jd.value(), UserId{1}, lrms::Workload::cpu(30_s));
  ASSERT_TRUE(job.has_value());
  // Live subscriptions, installed before virtual time runs: the per-job
  // handle filter plus a grid-wide kind subscription see the lifecycle as it
  // happens instead of scanning the tracer afterwards.
  int matched = 0;
  int completed_events = 0;
  job->on_event(TraceEventKind::kMatched,
                [&matched](const JobTraceEvent&) { ++matched; });
  const auto sub = grid.subscribe(
      TraceEventKind::kCompleted,
      [&completed_events](const JobTraceEvent&) { ++completed_events; });
  const auto done = job->await();
  ASSERT_TRUE(done.has_value()) << to_string(done.error().kind);
  EXPECT_EQ((*done)->state, broker::JobState::kCompleted);

  const auto events = job->trace();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().kind, TraceEventKind::kSubmitted);
  EXPECT_GE(matched, 1);
  EXPECT_GE(completed_events, 1);
  grid.unsubscribe(sub);
  // The after-the-fact queries agree with what the subscriptions saw.
  EXPECT_NE(grid.tracer().first(job->id(), TraceEventKind::kMatched), nullptr);
  EXPECT_NE(grid.tracer().first(job->id(), TraceEventKind::kCompleted),
            nullptr);
  // Hot paths fed the registry along the way.
  EXPECT_GE(grid.metrics().counter_total("broker.jobs_submitted"), 1u);
  EXPECT_GE(grid.metrics().counter_total("broker.jobs_completed"), 1u);
  EXPECT_NE(grid.metrics().find_histogram(
                "broker.match_latency_s",
                {{"placement", to_string((*done)->placement)}}),
            nullptr);
}

TEST(GridFacadeTest, TypedRefusalForUnmatchableJob) {
  GridConfig config;
  config.sites = 1;
  config.nodes_per_site = 1;
  Grid grid{config};
  // Needs 4 nodes; the grid has 1: async no-match classified by await().
  auto jd = jdl::JobDescription::parse(
      "Executable = \"mpi\"; JobType = {\"interactive\", \"mpich-g2\"}; "
      "NodeNumber = 4;");
  auto job = grid.submit(jd.value(), UserId{1}, lrms::Workload::cpu(30_s));
  ASSERT_TRUE(job.has_value());
  const auto done = job->await();
  ASSERT_FALSE(done.has_value());
  EXPECT_EQ(done.error().kind, broker::SubmitErrorKind::kNoMatch);
}

TEST(ObsDeterminismTest, SameSeedRunsYieldByteIdenticalExports) {
  const RunArtifacts a = run_instrumented_grid(1234);
  const RunArtifacts b = run_instrumented_grid(1234);
  EXPECT_TRUE(a.completed);
  ASSERT_FALSE(a.trace_jsonl.empty());
  EXPECT_EQ(a.trace_jsonl, b.trace_jsonl);
  EXPECT_EQ(a.chrome, b.chrome);
  EXPECT_EQ(a.metrics_jsonl, b.metrics_jsonl);
}

TEST(InstrumentCountTest, BoundedBySitesNotAgentsOrJobs) {
  // Per-agent or per-job series would make a long run's registry grow with
  // its traffic. Everything the stack binds is global or per site (and per
  // label value of a fixed enum), so the count stays under a per-site bound
  // however many agents and jobs the run churns through.
  GridConfig config;
  config.sites = 2;
  config.nodes_per_site = 2;
  Grid grid{config};
  auto batch = jdl::JobDescription::parse("Executable = \"sim\";");
  auto interactive = jdl::JobDescription::parse(
      "Executable = \"viz\"; JobType = \"interactive\";");
  ASSERT_TRUE(batch.has_value());
  ASSERT_TRUE(interactive.has_value());
  // Every batch job travels inside a fresh glide-in agent.
  constexpr int kJobs = 100;
  for (int i = 0; i < kJobs; ++i) {
    const jdl::JobDescription& jd = i % 2 == 0 ? batch.value() : interactive.value();
    grid.sim().schedule(Duration::seconds(100 * i), [&grid, &jd] {
      EXPECT_TRUE(grid.submit(jd, UserId{1}, lrms::Workload::cpu(60_s)).has_value());
    });
  }
  grid.run();
  EXPECT_EQ(grid.metrics().counter_total("broker.jobs_completed"),
            static_cast<std::uint64_t>(kJobs));
  const std::uint64_t agents = grid.metrics().counter_total("broker.agents_deployed");
  // This run ends with 50 instruments; on 1 and 4 sites it ends with 44 and 62.
  constexpr std::size_t kGlobalSeries = 40;
  constexpr std::size_t kSeriesPerSite = 10;
  const std::size_t bound = kGlobalSeries + kSeriesPerSite * 2;
  EXPECT_LE(grid.metrics().instrument_count(), bound);
  // Two series per agent would have broken the bound.
  EXPECT_GT(2 * agents, bound);
}

TEST(ChunkPoolGaugeTest, GaugesSumEveryConsolesPool) {
  // Consoles bind one shared, unlabelled pool series: the gauges must add
  // up every live pool rather than echo whichever pool changed last.
  sim::Simulation sim;
  sim::Network network{Rng{5}};
  network.add_link("ui", "wn0", sim::LinkSpec::campus());
  network.add_link("ui", "wn1", sim::LinkSpec::campus());
  obs::Observability obs;
  stream::GridConsoleConfig config;
  config.obs = &obs;
  std::string screen;
  const auto sink = [&screen](std::string data) { screen += data; };
  auto first = std::make_unique<stream::GridConsole>(sim, network, config, "ui",
                                                     sink, Rng{1});
  stream::GridConsole second{sim, network, config, "ui", sink, Rng{2}};
  first->add_agent(0, "wn0").write_stdout("first console, first line\n");
  stream::ConsoleAgent& agent = second.add_agent(0, "wn1");
  agent.write_stdout("second console, first line\n");
  agent.write_stdout("second console, second line\n");
  sim.run();

  const auto gauge = [&obs](const char* name) {
    const Gauge* g = obs.metrics.find_gauge(name);
    return g != nullptr ? g->value() : -1.0;
  };
  const stream::ChunkPool& a = first->chunk_pool();
  const stream::ChunkPool& b = second.chunk_pool();
  ASSERT_GT(a.in_use_chunks(), 0u);
  ASSERT_GT(b.in_use_chunks(), 0u);
  EXPECT_DOUBLE_EQ(gauge("stream.chunk_pool.in_use"),
                   static_cast<double>(a.in_use_chunks() + b.in_use_chunks()));
  EXPECT_DOUBLE_EQ(gauge("stream.chunk_pool.allocated"),
                   static_cast<double>(a.allocated_chunks() + b.allocated_chunks()));
  // A per-pool peak cannot be summed, so there is no high-water gauge.
  EXPECT_EQ(obs.metrics.find_gauge("stream.chunk_pool.high_water"), nullptr);

  // A destroyed console withdraws what its pool still held.
  first.reset();
  EXPECT_DOUBLE_EQ(gauge("stream.chunk_pool.in_use"),
                   static_cast<double>(b.in_use_chunks()));
  EXPECT_DOUBLE_EQ(gauge("stream.chunk_pool.allocated"),
                   static_cast<double>(b.allocated_chunks()));
}

// ----------------------------------- partition during fast streaming ------

/// The acceptance scenario: a 20 s link partition while an agent fast-streams
/// one frame per second. Returns the observability bundle's exports plus the
/// shadow counters.
struct PartitionRun {
  std::size_t shadow_frames_dropped = 0;
  std::size_t shadow_drop_reports = 0;
  std::size_t agent_frames_dropped = 0;
  std::string screen;
  std::string trace_jsonl;
  std::vector<obs::JobTraceEvent> drop_events;
  std::vector<obs::JobTraceEvent> reconnect_events;
  std::uint64_t dropped_counter = 0;
};

PartitionRun run_partitioned_fast_stream(std::uint64_t seed) {
  sim::Simulation sim;
  sim::Network network{Rng{seed}};
  network.add_link("ui", "wn", sim::LinkSpec::campus());

  sim::FaultInjector injector{sim, &network};
  sim::FaultPlan plan;
  plan.partition_link("ui", "wn", SimTime::from_seconds(5.0),
                      Duration::seconds(20));
  injector.arm(plan);

  obs::Observability obs;
  PartitionRun result;
  stream::GridConsoleConfig config;
  config.mode = jdl::StreamingMode::kFast;
  config.retry.retry_interval = 1_s;
  config.retry.max_retries = 60;
  config.obs = &obs;
  config.job = JobId{42};
  stream::GridConsole console{sim, network, config, "ui",
                              [&](std::string d) { result.screen += d; },
                              Rng{seed ^ 0x5a5a}};
  auto& agent = console.add_agent(0, "wn");
  for (int i = 0; i < 30; ++i) {
    sim.schedule(Duration::seconds(i), [&agent, i] {
      agent.write_stdout("tick " + std::to_string(i) + "\n");
    });
  }
  sim.run();

  result.shadow_frames_dropped = console.shadow().frames_dropped();
  result.shadow_drop_reports = console.shadow().drop_reports();
  result.agent_frames_dropped = agent.frames_dropped();
  result.trace_jsonl = obs.tracer.to_jsonl();
  result.drop_events = obs.tracer.of_kind(obs::TraceEventKind::kFrameDropped);
  result.reconnect_events =
      obs.tracer.of_kind(obs::TraceEventKind::kReconnected);
  result.dropped_counter = obs.metrics.counter_total("stream.frames_dropped");
  return result;
}

TEST(PartitionObservabilityTest, FastModeDropsAreCountedTracedAndReported) {
  const PartitionRun run = run_partitioned_fast_stream(11);

  // Frames written into the outage vanished — and were *counted*, on the
  // agent, on the shadow, in the registry, and in the trace.
  ASSERT_GT(run.agent_frames_dropped, 0u);
  EXPECT_EQ(run.shadow_frames_dropped, run.agent_frames_dropped);
  EXPECT_EQ(run.dropped_counter, run.agent_frames_dropped);
  EXPECT_EQ(run.drop_events.size(), run.agent_frames_dropped);

  // Recovery: the first delivery after the outage carried the drop report.
  ASSERT_GE(run.reconnect_events.size(), 1u);
  EXPECT_GE(run.shadow_drop_reports, 1u);

  // The trace tells the whole story in order: drops happen strictly inside
  // the outage, the reconnect strictly after it began.
  const SimTime partition_start = SimTime::from_seconds(5.0);
  const SimTime partition_end = partition_start + Duration::seconds(20);
  for (const auto& event : run.drop_events) {
    EXPECT_GE(event.when, partition_start);
    EXPECT_LE(event.when, partition_end + Duration::seconds(2));
    EXPECT_EQ(event.job, JobId{42});
  }
  EXPECT_GT(run.reconnect_events.front().when, partition_start);

  // Post-recovery frames still reached the screen.
  EXPECT_NE(run.screen.find("tick 29"), std::string::npos);

  // And the export shows it all without touching internals.
  EXPECT_NE(run.trace_jsonl.find("\"kind\":\"frame_dropped\""),
            std::string::npos);
  EXPECT_NE(run.trace_jsonl.find("\"kind\":\"reconnected\""),
            std::string::npos);
}

TEST(PartitionObservabilityTest, PartitionedRunExportIsDeterministic) {
  const PartitionRun a = run_partitioned_fast_stream(7);
  const PartitionRun b = run_partitioned_fast_stream(7);
  ASSERT_FALSE(a.trace_jsonl.empty());
  EXPECT_EQ(a.trace_jsonl, b.trace_jsonl);
  EXPECT_EQ(a.shadow_frames_dropped, b.shadow_frames_dropped);
}

}  // namespace
}  // namespace cg
