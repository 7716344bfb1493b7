#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>

#include "util/rng.hpp"

namespace gridbench {
namespace {

/// Message types the chaos plan arms drop/dup/reorder windows on. A type
/// left out here is a finding recorded in NOTES.md, not a silent gap.
constexpr const char* kFaultedMessageTypes[] = {
    "SubmitJob",     "DispatchJob",  "CancelJob",     "KillJob",
    "JobStatus",     "AgentRegister", "Heartbeat",    "LivenessProbe",
    "LivenessEcho",  "EvictNotice",  "StageSandbox"};

/// Faults left out of the chaos plan because they break an invariant or
/// crash the run (NOTES.md, "Findings"): a dropped message of the first
/// five types is never retransmitted or timed out, so its job stays
/// non-terminal forever; a duplicated SubmitJob or StageSandbox submits the
/// same LRMS job twice, and a glide-in carrier started twice aborts the
/// process.
constexpr const char* kExcludedMessageFaults[] = {
    "SubmitJob:drop",     "DispatchJob:drop",  "JobStatus:drop",
    "AgentRegister:drop", "StageSandbox:drop", "SubmitJob:dup",
    "StageSandbox:dup"};

WorkloadShape shape_for(WorkloadKind kind, bool smoke) {
  WorkloadShape s;
  switch (kind) {
    case WorkloadKind::kGridMixed:
      // The paper's scenario: tens of sites under ~80% Poisson batch load,
      // interactive jobs on top, light consoles.
      s.sites = smoke ? 8 : 32;
      s.horizon_s = smoke ? 1800.0 : 4.0 * 3600.0;
      s.batch_runtime_s = 1800.0;
      s.batch_interarrival_s =
          s.batch_runtime_s / (0.8 * s.sites * s.nodes_per_site);
      s.interactive_interarrival_s = smoke ? 20.0 : 12.0;
      s.interactive_runtime_s = 90.0;
      s.interactive_warmup_s = smoke ? 300.0 : 900.0;
      s.exclusive_share = 0.10;
      s.mpi_share = 0.05;
      s.reliable_share = 0.20;
      s.write_gap_s = 0.5;
      s.burst_lines = 1;
      s.type_gap_s = 15.0;
      break;
    case WorkloadKind::kConsoleStream:
      // A few large sites: a burst of long batch jobs whose glide-ins then
      // host hundreds of concurrent shared console sessions (the rest land
      // on fresh agents on idle nodes).
      s.sites = smoke ? 2 : 6;
      s.nodes_per_site = smoke ? 48 : 96;
      s.horizon_s = smoke ? 400.0 : 900.0;
      // Batch carriers take ~3/4 of the nodes: their interactive VMs then
      // outnumber the concurrent sessions, so placement rarely meets the
      // VM-lookup race (NOTES.md, "Findings").
      s.batch_interarrival_s = 0.5;
      s.batch_window_s = 0.37 * s.sites * s.nodes_per_site;
      s.batch_runtime_s = 1200.0;
      s.batch_runtime_min_s = 600.0;
      s.batch_runtime_max_s = 2400.0;
      s.interactive_interarrival_s = smoke ? 2.0 : 0.7;
      s.interactive_runtime_s = 240.0;
      s.interactive_warmup_s = 150.0;
      // 40% reliable: with an even split the echo median would sit on the
      // boundary between the fast and reliable clusters.
      s.reliable_share = 0.4;
      s.drain_s = 300.0;
      s.write_gap_s = 2.5;
      s.burst_lines = 12;
      s.type_gap_s = 8.0;
      break;
    case WorkloadKind::kGridChaos:
      // The grid_mixed mix on a smaller grid, with seeded faults.
      s.sites = smoke ? 6 : 12;
      s.horizon_s = smoke ? 1800.0 : 4.0 * 3600.0;
      s.batch_runtime_s = 1800.0;
      // ~70% load: on a grid this small, 80% would leave batch jobs
      // queueing often enough to make their median startup bimodal.
      s.batch_interarrival_s =
          s.batch_runtime_s / (0.7 * s.sites * s.nodes_per_site);
      s.interactive_interarrival_s = smoke ? 20.0 : 12.0;
      s.interactive_runtime_s = 90.0;
      s.interactive_warmup_s = smoke ? 300.0 : 900.0;
      s.exclusive_share = 0.10;
      s.mpi_share = 0.05;
      s.reliable_share = 0.20;
      s.write_gap_s = 0.5;
      s.burst_lines = 1;
      s.type_gap_s = 15.0;
      s.chaos = true;
      break;
  }
  return s;
}

/// Arrival instants of a Poisson process over [from, to) conditioned on its
/// expected count: that many uniform instants, sorted. Fixing the count
/// keeps the offered load from varying with the seed.
std::vector<double> poisson_arrivals(cg::Rng& rng, double mean_gap, double from,
                                     double to) {
  std::vector<double> out;
  if (mean_gap <= 0.0 || to <= from) return out;
  const auto n = static_cast<std::size_t>(std::lround((to - from) / mean_gap));
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(rng.uniform(from, to));
  std::sort(out.begin(), out.end());
  return out;
}

/// `n` exponential runtimes drawn by stratified sampling (one draw per
/// 1/n-quantile band, then shuffled) and clamped to [lo, hi]: the marginal
/// distribution is unchanged, the total work barely varies with the seed.
std::vector<double> stratified_exponential(cg::Rng& rng, std::size_t n, double mean,
                                           double lo, double hi) {
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double p = (static_cast<double>(k) + rng.uniform01()) / static_cast<double>(n);
    out.push_back(std::clamp(-mean * std::log1p(-p), lo, hi));
  }
  rng.shuffle(out);
  return out;
}

/// A deck of `n` flags with exactly round(n * share) set, shuffled.
std::vector<bool> exact_deck(cg::Rng& rng, std::size_t n, double share) {
  std::vector<bool> deck(n, false);
  const auto set = static_cast<std::size_t>(std::lround(share * static_cast<double>(n)));
  for (std::size_t i = 0; i < set && i < n; ++i) deck[i] = true;
  rng.shuffle(deck);
  return deck;
}

std::string batch_jdl(cg::Rng& rng, std::size_t index) {
  char buf[512];
  switch (rng.uniform_int(0, 2)) {
    case 0:
      std::snprintf(buf, sizeof buf,
                    "Executable = \"reco_%zu\";\nArguments = \"--events %d\";\n",
                    index % 97, static_cast<int>(rng.uniform_int(1000, 99999)));
      break;
    case 1:
      std::snprintf(buf, sizeof buf,
                    "Executable = \"mc_gen\";\nArguments = \"--seed %d\";\n"
                    "Requirements = other.Arch == \"i686\";\n"
                    "Rank = other.FreeCPUs;\n",
                    static_cast<int>(rng.uniform_int(1, 1 << 20)));
      break;
    default:
      std::snprintf(buf, sizeof buf,
                    "Executable = \"lhc_reco\";\nJobType = \"batch\";\n"
                    "RetryCount = 2;\n"
                    "Requirements = other.Arch == \"i686\" && other.FreeCPUs >= 0;\n"
                    "Rank = other.FreeCPUs - other.QueuedJobs;\n"
                    "VirtualOrganisation = \"crossgrid-hep\";\n");
      break;
  }
  return buf;
}

std::string interactive_jdl(std::size_t index, bool exclusive, bool mpi,
                            bool reliable) {
  const char* mode = reliable ? "reliable" : "fast";
  char buf[512];
  if (mpi) {
    std::snprintf(buf, sizeof buf,
                  "Executable = \"steer_mpi_%zu\";\n"
                  "JobType = {\"interactive\", \"mpich-p4\"};\n"
                  "NodeNumber = 4;\nMachineAccess = \"shared\";\n"
                  "PerformanceLoss = 10;\nStreamingMode = \"%s\";\n",
                  index % 13, mode);
  } else if (exclusive) {
    std::snprintf(buf, sizeof buf,
                  "Executable = \"hep_visualizer\";\n"
                  "Arguments = \"--session %zu\";\n"
                  "JobType = \"interactive\";\nMachineAccess = \"exclusive\";\n"
                  "StreamingMode = \"%s\";\n"
                  "Requirements = other.Arch == \"i686\" && other.FreeCPUs >= 1;\n"
                  "Rank = other.FreeCPUs;\n",
                  index, mode);
  } else {
    std::snprintf(buf, sizeof buf,
                  "Executable = \"viz_%zu\";\nJobType = \"interactive\";\n"
                  "MachineAccess = \"shared\";\nPerformanceLoss = 10;\n"
                  "StreamingMode = \"%s\";\n",
                  index % 31, mode);
  }
  return buf;
}

ConsoleScript make_script(cg::Rng& rng, const WorkloadShape& s, double runtime) {
  ConsoleScript script;
  script.payload_seed = rng.next_u64();
  // The first write is the application's banner, right at start-up.
  for (double t = 0.0; t < runtime; t += rng.exponential(s.write_gap_s)) {
    script.write_at.push_back(static_cast<float>(t));
    script.write_lines.push_back(
        static_cast<std::uint8_t>(rng.uniform_int(1, s.burst_lines)));
  }
  // Typing stops a couple of seconds before the job ends so each echo has
  // time to come back while the application still runs.
  for (double t = rng.exponential(s.type_gap_s); t < runtime - 2.0;
       t += rng.exponential(s.type_gap_s)) {
    script.type_at.push_back(static_cast<float>(t));
  }
  return script;
}

void add_chaos_plan(cg::Rng& rng, Inputs& in) {
  const WorkloadShape& s = in.shape;
  in.ui_outages.assign(static_cast<std::size_t>(s.sites), {});
  const double span = s.horizon_s;
  // Site connectivity outages: the site's links to the broker and to the UI
  // machine go down together. Kept under the reliable channel's retry
  // budget (12 x 5 s) so reliable consoles ride them out.
  const int outages = std::max(3, static_cast<int>(span / 900.0));
  for (int i = 0; i < outages; ++i) {
    const int site = static_cast<int>(rng.uniform_int(0, s.sites - 1));
    const double at = rng.uniform(300.0, span);
    const double len = rng.uniform(5.0, 40.0);
    const std::string endpoint = "site:site" + std::to_string(site);
    in.faults.partition_link("broker", endpoint, cg::SimTime::from_seconds(at),
                             cg::Duration::from_seconds(len));
    in.faults.partition_link("ui", endpoint, cg::SimTime::from_seconds(at),
                             cg::Duration::from_seconds(len));
    in.ui_outages[static_cast<std::size_t>(site)].emplace_back(at, at + len);
  }
  // Agent wedges and crashes, aimed at the glide-in running a chosen
  // interactive job part-way through its run. "job:N" names the N-th input
  // job; the episode maps it to the broker's job id at fire time.
  std::vector<std::size_t> victims;
  for (std::size_t i = 0; i < in.jobs.size(); ++i) {
    const JobInput& job = in.jobs[i];
    if (job.interactive && job.shared && !job.mpi && job.runtime_s > 40.0) {
      victims.push_back(i);
    }
  }
  rng.shuffle(victims);
  const std::size_t wedges = std::min<std::size_t>(victims.size() / 2,
                                                   static_cast<std::size_t>(span / 900.0));
  const std::size_t crashes = std::min<std::size_t>(victims.size() / 2, wedges);
  for (std::size_t k = 0; k < wedges + crashes && k < victims.size(); ++k) {
    const JobInput& job = in.jobs[victims[k]];
    // Start-up takes seconds; aim well inside the running window.
    const double at = job.arrival_s + 20.0 + rng.uniform(0.0, job.runtime_s - 30.0);
    const std::string target = "agent_of(job:" + std::to_string(victims[k]) + ")";
    if (k < wedges) {
      in.faults.wedge_agent(target, cg::SimTime::from_seconds(at),
                            cg::Duration::from_seconds(rng.uniform(40.0, 90.0)));
    } else {
      in.faults.crash_agent(target, cg::SimTime::from_seconds(at));
    }
  }
  // Message-level faults: short drop / duplicate / reorder windows across
  // the control-plane catalog, each on the broker's path to one site.
  for (const char* type : kFaultedMessageTypes) {
    // Windows are drawn for every type, so leaving one out does not move
    // the rest of the plan.
    const auto window = [&] {
      return std::pair{cg::SimTime::from_seconds(rng.uniform(300.0, span)),
                       cg::Duration::from_seconds(rng.uniform(10.0, 45.0))};
    };
    const auto drop = window();
    const auto dup = window();
    const auto reorder = window();
    const auto delay = cg::Duration::from_seconds(rng.uniform(0.5, 3.0));
    // Each window hits the broker's path to one site.
    const std::string site =
        "site:site" + std::to_string(rng.uniform_int(0, s.sites - 1));
    const std::string name{type};
    const auto armed = [&](const char* kind) {
      return std::find(std::begin(kExcludedMessageFaults),
                       std::end(kExcludedMessageFaults),
                       name + ":" + kind) == std::end(kExcludedMessageFaults);
    };
    if (armed("drop")) {
      in.faults.drop_messages(name, "broker", site, drop.first, drop.second);
    }
    if (armed("dup")) {
      in.faults.duplicate_messages(name, "broker", site, dup.first, dup.second);
    }
    if (armed("reorder")) {
      in.faults.reorder_messages(name, "broker", site, reorder.first, reorder.second,
                                 delay);
    }
  }
}

}  // namespace

std::optional<WorkloadKind> workload_from_name(std::string_view name) {
  if (name == "grid_mixed") return WorkloadKind::kGridMixed;
  if (name == "console_stream") return WorkloadKind::kConsoleStream;
  if (name == "grid_chaos") return WorkloadKind::kGridChaos;
  return std::nullopt;
}

std::string_view to_string(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kGridMixed: return "grid_mixed";
    case WorkloadKind::kConsoleStream: return "console_stream";
    case WorkloadKind::kGridChaos: return "grid_chaos";
  }
  return "unknown";
}

Inputs make_inputs(WorkloadKind kind, std::uint64_t seed, bool smoke) {
  Inputs in;
  in.seed = seed;
  in.shape = shape_for(kind, smoke);
  const WorkloadShape& s = in.shape;
  cg::Rng rng{seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(kind) + 1};

  const std::vector<double> batch = poisson_arrivals(
      rng, s.batch_interarrival_s, 0.0,
      s.batch_window_s > 0.0 ? s.batch_window_s : s.horizon_s);
  const std::vector<double> inter = poisson_arrivals(
      rng, s.interactive_interarrival_s, s.interactive_warmup_s, s.horizon_s);
  const std::vector<bool> exclusive = exact_deck(rng, inter.size(), s.exclusive_share);
  const std::vector<bool> mpi = exact_deck(rng, inter.size(), s.mpi_share);
  const std::vector<bool> reliable = exact_deck(rng, inter.size(), s.reliable_share);

  const std::vector<double> batch_runtime = stratified_exponential(
      rng, batch.size(), s.batch_runtime_s, s.batch_runtime_min_s, s.batch_runtime_max_s);
  const std::vector<double> inter_runtime = stratified_exponential(
      rng, inter.size(), s.interactive_runtime_s, 20.0, 5.0 * s.interactive_runtime_s);
  in.jobs.reserve(batch.size() + inter.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    JobInput job;
    job.arrival_s = batch[i];
    job.jdl = batch_jdl(rng, i);
    job.user = static_cast<std::uint32_t>(rng.uniform_int(1, s.users));
    job.runtime_s = std::min(
        batch_runtime[i],
        std::max(s.batch_runtime_min_s, s.horizon_s + s.drain_s - job.arrival_s));
    in.jobs.push_back(std::move(job));
  }
  for (std::size_t i = 0; i < inter.size(); ++i) {
    JobInput job;
    job.arrival_s = inter[i];
    job.interactive = true;
    job.mpi = mpi[i];
    job.shared = job.mpi || !exclusive[i];
    job.reliable = reliable[i];
    job.jdl = interactive_jdl(i, !job.shared, job.mpi, job.reliable);
    job.user = static_cast<std::uint32_t>(rng.uniform_int(1, s.users));
    job.runtime_s = std::min(inter_runtime[i],
                             std::max(20.0, s.horizon_s + s.drain_s - job.arrival_s));
    job.script = make_script(rng, s, job.runtime_s);
    in.jobs.push_back(std::move(job));
  }
  std::stable_sort(in.jobs.begin(), in.jobs.end(),
                   [](const JobInput& a, const JobInput& b) {
                     return a.arrival_s < b.arrival_s;
                   });
  if (s.chaos) add_chaos_plan(rng, in);
  return in;
}

}  // namespace gridbench
