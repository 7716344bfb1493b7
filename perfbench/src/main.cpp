// gridbench: the repository's full-stack benchmark.
//
//   gridbench --workload grid_mixed --seed 1 --seconds 10 --trace 0
//             [--smoke] [--spans FILE]
//
// Draws the workload's inputs from the seed, then replays them through fresh
// cg::Grid instances ("episodes") until --seconds of host time have passed.
// Every episode of a seed is the same virtual-time run; the gate below
// checks that their digests agree.
//
//   --trace 0  untraced episodes; host metrics are medians over episodes.
//              Prints the end-to-end metrics.
//   --trace 1  one untraced episode (exact counts, the digest baseline, the
//              untraced wall), then traced episodes that step the engine one
//              event at a time and attribute host time to layers. Prints
//              the per-layer metrics.
//
// A human-readable report goes first; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "episode.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

namespace gridbench {
namespace {

struct Args {
  WorkloadKind workload = WorkloadKind::kGridMixed;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string spans_path;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "gridbench: %s\nusage: gridbench --workload "
               "grid_mixed|console_stream|grid_chaos --seed N --seconds S "
               "--trace 0|1 [--smoke] [--spans FILE]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      const auto kind = workload_from_name(value());
      if (!kind) usage("unknown workload");
      args.workload = *kind;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--spans") {
      args.spans_path = value();
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return args;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Set-up-only repetitions before each untraced episode, on top of the
/// episode's own set-up.
constexpr int kExtraSetups = 4;

std::vector<double> collect(const std::vector<EpisodeResult>& eps,
                            const std::function<double(const EpisodeResult&)>& f) {
  std::vector<double> out;
  out.reserve(eps.size());
  for (const auto& e : eps) out.push_back(f(e));
  return out;
}

/// End-to-end metrics: host figures are medians over the untraced
/// episodes (setup_s also over the set-up-only samples); simulated figures
/// come from the first episode (all are identical). The peak resident set
/// is read right after the first episode: later episodes only add allocator
/// fragmentation, so the process peak would grow with the episode count.
std::vector<Metric> end_to_end(const std::vector<EpisodeResult>& eps,
                               const std::vector<double>& extra_setups,
                               double first_peak_rss_mb) {
  const EpisodeResult& e = eps.front();
  std::vector<Metric> m;
  m.push_back({"jobs_per_s", "jobs/s", median(collect(eps, [](const EpisodeResult& r) {
                 return per(static_cast<double>(r.jobs_terminal), r.run_s);
               }))});
  m.push_back({"lines_per_s", "lines/s", median(collect(eps, [](const EpisodeResult& r) {
                 return per(static_cast<double>(r.lines_delivered), r.run_s);
               }))});
  m.push_back({"sim_s_per_wall_s", "s/s", median(collect(eps, [](const EpisodeResult& r) {
                 return per(r.sim_s, r.run_s);
               }))});
  std::vector<double> setups = extra_setups;
  for (const auto& r : eps) setups.push_back(r.setup_s);
  m.push_back({"setup_s", "s", median(setups)});
  m.push_back({"peak_rss_mb", "MiB", first_peak_rss_mb});
  m.push_back({"interactive_startup_p50_s", "s", percentile(e.interactive_startup_s, 50)});
  m.push_back({"interactive_startup_p99_s", "s", percentile(e.interactive_startup_s, 99)});
  m.push_back({"batch_startup_p50_s", "s", percentile(e.batch_startup_s, 50)});
  m.push_back({"echo_rtt_p50_ms", "ms", percentile(e.echo_rtt_ms, 50)});
  m.push_back({"echo_rtt_p99_ms", "ms", percentile(e.echo_rtt_ms, 99)});
  const double attempted =
      static_cast<double>(e.jobs_submitted + e.jobs_refused);
  m.push_back({"job_success_ratio", "ratio",
               per(static_cast<double>(e.jobs_completed), attempted)});
  m.push_back({"lines_delivered_ratio", "ratio",
               per(static_cast<double>(e.lines_delivered),
                   static_cast<double>(e.lines_written))});
  return m;
}

const EpisodeResult& median_by_run(const std::vector<EpisodeResult>& eps) {
  std::vector<const EpisodeResult*> sorted;
  for (const auto& e : eps) sorted.push_back(&e);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return a->run_s < b->run_s; });
  return *sorted[(sorted.size() - 1) / 2];
}

/// Per-layer metrics: exact counts from the untraced episode, host times
/// from the traced episode with the median run time.
std::vector<Metric> per_layer(const EpisodeResult& plain,
                              const std::vector<EpisodeResult>& traced) {
  const EpisodeResult& t = median_by_run(traced);
  const auto& c = plain.counts;
  const auto layer_s = [&](Layer layer) {
    return static_cast<double>(t.trace.layer_ns[static_cast<std::size_t>(layer)]) * 1e-9;
  };
  const auto call_p = [&](Call call, double p) {
    return percentile(t.trace.call_ns[static_cast<std::size_t>(call)], p);
  };
  const double jobs = static_cast<double>(plain.jobs_submitted);
  std::vector<Metric> m;
  const auto count = [&](const char* name, const char* unit = "count") {
    m.push_back({name, unit, c.at(name)});
  };
  count("sim.events_per_job");
  m.push_back({"sim.host_ns_per_event", "ns",
               per(plain.run_s * 1e9, static_cast<double>(plain.events))});
  m.push_back({"sim.pending_high_water", "count",
               static_cast<double>(t.trace.pending_high_water)});
  m.push_back({"broker.submit_host_us_p50", "us", call_p(Call::kSubmit, 50) * 1e-3});
  m.push_back({"broker.submit_host_us_p99", "us", call_p(Call::kSubmit, 99) * 1e-3});
  m.push_back({"broker.host_s", "s", layer_s(Layer::kBroker)});
  count("broker.discovery_s_p50", "s");
  count("broker.selection_s_p50", "s");
  count("broker.dispatch_s_p50", "s");
  count("broker.resubmissions_per_job");
  count("broker.lease_conflicts_per_job");
  count("broker.shared_vm_placement_ratio", "ratio");
  m.push_back({"broker.queue_high_water", "count",
               static_cast<double>(t.trace.broker_queue_high_water)});
  count("broker.match.sites_scanned_per_match");
  count("broker.match.cache_hit_ratio", "ratio");
  count("infosys.index_queries_per_job");
  count("infosys.site_queries_per_job");
  count("infosys.republishes_per_sim_s", "1/s");
  m.push_back({"infosys.host_s", "s", layer_s(Layer::kInfosys)});
  count("net.msgs_per_job");
  count("net.supervision_msgs_per_job");
  count("net.dropped_ratio", "ratio");
  m.push_back({"net.in_flight_high_water", "count",
               static_cast<double>(t.trace.in_flight_high_water)});
  m.push_back({"net.host_s", "s", layer_s(Layer::kNet)});
  count("glidein.agents_per_job");
  m.push_back({"glidein.agents_alive_high_water", "count",
               static_cast<double>(t.trace.agents_high_water)});
  count("glidein.demotions_per_interactive_job");
  m.push_back({"glidein.host_s", "s", layer_s(Layer::kGlidein)});
  count("lrms.dispatches_per_job");
  m.push_back({"lrms.queue_depth_high_water", "count",
               static_cast<double>(t.trace.lrms_queue_high_water)});
  count("lrms.dispatch_latency_s_p50", "s");
  m.push_back({"lrms.host_s", "s", layer_s(Layer::kLrms)});
  m.push_back({"stream.write_host_ns_p50", "ns", call_p(Call::kWrite, 50)});
  m.push_back({"stream.write_host_ns_p99", "ns", call_p(Call::kWrite, 99)});
  m.push_back({"stream.type_line_host_ns_p50", "ns", call_p(Call::kTypeLine, 50)});
  count("stream.flushes_per_line");
  count("stream.spooled_bytes_per_line", "bytes");
  count("stream.retries_per_line");
  count("stream.chunk_pool_high_water");
  count("stream.oversize_allocs");
  count("stream.frames_dropped");
  m.push_back({"stream.host_s", "s", layer_s(Layer::kStream)});
  count("obs.trace_events_per_job");
  count("obs.instruments");
  m.push_back({"obs.snapshot_host_ms", "ms", plain.snapshot_ms});
  m.push_back({"obs.export_host_ms", "ms", plain.export_ms});
  m.push_back({"jdl.parse_host_us_p50", "us", call_p(Call::kParse, 50) * 1e-3});
  m.push_back({"jdl.host_s", "s", layer_s(Layer::kJdl)});
  m.push_back({"grid.allocs_per_job", "count",
               per(static_cast<double>(plain.run_allocs), jobs)});
  m.push_back({"other.host_s", "s", layer_s(Layer::kOther)});
  m.push_back({"trace.step_s", "s", static_cast<double>(t.trace.step_ns) * 1e-9});
  m.push_back({"trace.overhead_ratio", "ratio", per(t.run_s, plain.run_s)});
  m.push_back({"interactive_startup.samples", "count",
               static_cast<double>(plain.interactive_startup_s.size())});
  m.push_back({"batch_startup.samples", "count",
               static_cast<double>(plain.batch_startup_s.size())});
  m.push_back({"echo_rtt.samples", "count", static_cast<double>(plain.echo_rtt_ms.size())});
  return m;
}

void print_report(const std::vector<Metric>& metrics, const char* title) {
  std::printf("-- %s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::string json_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  return out;
}

}  // namespace
}  // namespace gridbench

int main(int argc, char** argv) {
  using namespace gridbench;
  const Args args = parse_args(argc, argv);
  cg::Logger::instance().set_level(cg::LogLevel::kOff);

  const Inputs inputs = make_inputs(args.workload, args.seed, args.smoke);
  std::printf("gridbench %s seed %llu: %zu jobs over %.0f s, %d sites x %d nodes%s\n",
              std::string{to_string(args.workload)}.c_str(),
              static_cast<unsigned long long>(args.seed), inputs.jobs.size(),
              inputs.shape.horizon_s, inputs.shape.sites, inputs.shape.nodes_per_site,
              args.smoke ? " (smoke)" : "");

  const auto start = Clock::now();
  const auto elapsed = [&] { return seconds_between(start, Clock::now()); };
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto absorb = [&](const EpisodeResult& r, std::uint64_t digest0) {
    attempted += r.operations;
    failed += r.failed_operations;
    for (const auto& f : r.failures) failures.push_back(f);
    if (r.digest != digest0) {
      failures.push_back("determinism: episode digest differs from the first");
      ++failed;
    }
  };

  std::vector<Metric> metrics;
  // An exception escaping the stack is a failed run, reported like any
  // other failed check (the episode tears its grid down on the way out).
  try {
    EpisodeResult plain = run_episode(inputs, EpisodeOptions{false});
    const double first_peak_rss_mb = peak_rss_mib();
    absorb(plain, plain.digest);
    if (!args.trace) {
      std::vector<EpisodeResult> episodes;
      const std::uint64_t digest0 = plain.digest;
      episodes.push_back(std::move(plain));
      // At least three episodes, so every host figure is a median. Set-up-only
      // samples are interleaved with the episodes so both see the same load.
      std::vector<double> setups;
      while (episodes.size() < 3 || elapsed() < args.seconds) {
        for (int k = 0; k < kExtraSetups; ++k) setups.push_back(measure_setup(inputs));
        episodes.push_back(run_episode(inputs, EpisodeOptions{false}));
        absorb(episodes.back(), digest0);
      }
      metrics = end_to_end(episodes, setups, first_peak_rss_mb);
      print_report(metrics, "end-to-end (median over episodes)");
      for (const auto& [code, n] : episodes.front().failed_by_code) {
        std::printf("  jobs ended unsuccessfully: %-28s %llu\n", code.c_str(),
                    static_cast<unsigned long long>(n));
      }
      std::printf("  episodes %zu, digest %016llx, run seconds:", episodes.size(),
                  static_cast<unsigned long long>(digest0));
      for (const auto& e : episodes) std::printf(" %.3f", e.run_s);
      std::printf("\n");
    } else {
      std::vector<EpisodeResult> traced;
      while (traced.empty() || elapsed() < args.seconds) {
        traced.push_back(run_episode(inputs, EpisodeOptions{true}));
        absorb(traced.back(), plain.digest);
        const auto& t = traced.back().trace;
        std::int64_t sum = 0;
        for (const auto ns : t.layer_ns) sum += ns;
        if (sum != t.step_ns) {
          failures.push_back("trace: layer times do not sum to the step total");
          ++failed;
        }
      }
      metrics = per_layer(plain, traced);
      print_report(metrics, "per-layer (traced episodes)");
      std::printf("  traced episodes %zu, digest %016llx\n", traced.size(),
                  static_cast<unsigned long long>(plain.digest));
      if (!args.spans_path.empty()) {
        std::ofstream spans{args.spans_path};
        spans << median_by_run(traced).spans_jsonl;
      }
    }
  } catch (const std::exception& e) {
    failures.push_back(std::string{"the program threw: "} + e.what());
    ++failed;
  }
  for (const auto& f : failures) std::printf("  CHECK FAILED: %s\n", f.c_str());
  std::printf("%s\n", json_result(failures.empty(), std::max(attempted, failed), failed,
                                   metrics).c_str());
  std::fflush(stdout);
  return failures.empty() ? 0 : 1;
}
