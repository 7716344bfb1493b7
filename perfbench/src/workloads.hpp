// The benchmark's three workloads and their seeded input generator. Every
// input a run feeds the grid — arrival times, runtimes, JDL texts, users,
// console scripts and the fault plan — is drawn here from the workload seed
// before the clock starts; the episode only replays the list.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/fault.hpp"

namespace gridbench {

enum class WorkloadKind { kGridMixed, kConsoleStream, kGridChaos };

[[nodiscard]] std::optional<WorkloadKind> workload_from_name(std::string_view name);
[[nodiscard]] std::string_view to_string(WorkloadKind kind);

/// Size and mix of one workload. Shares are exact: the generator deals job
/// kinds from a shuffled deck, so the mix does not vary with the seed.
struct WorkloadShape {
  int sites = 0;
  int nodes_per_site = 8;
  int users = 16;
  /// Arrivals are drawn over [0, horizon); the episode then runs to
  /// quiescence.
  double horizon_s = 0.0;
  double batch_interarrival_s = 0.0;  ///< Poisson batch load; 0 = none
  double batch_window_s = 0.0;        ///< batch arrivals stop here (0: horizon)
  double batch_runtime_s = 1800.0;    ///< exponential mean, clamped to
  double batch_runtime_min_s = 60.0;  ///< [min, max]
  double batch_runtime_max_s = 9000.0;
  /// Runtimes are cut so every job can finish by horizon + drain: the
  /// episode's virtual length then barely varies with the seed.
  double drain_s = 1800.0;
  double interactive_interarrival_s = 0.0;
  double interactive_runtime_s = 120.0;  ///< exponential mean
  double interactive_warmup_s = 0.0;  ///< no interactive arrivals before this
  double exclusive_share = 0.0;       ///< of interactive jobs
  double mpi_share = 0.0;             ///< 4-rank MPICH-P4, shared access
  double reliable_share = 0.0;        ///< reliable streaming mode
  /// Console script: output writes every `write_gap_s` (exponential), each
  /// carrying 1..`burst_lines` lines; a typed line every `type_gap_s`.
  double write_gap_s = 0.5;
  int burst_lines = 1;
  double type_gap_s = 20.0;
  bool chaos = false;
};

/// What the user and the application do once an interactive job runs:
/// offsets (seconds after the job starts running) of each output write and
/// of each typed line. Line contents derive from `payload_seed`.
struct ConsoleScript {
  std::vector<float> write_at;
  std::vector<std::uint8_t> write_lines;  ///< lines per write
  std::vector<float> type_at;
  std::uint64_t payload_seed = 0;
};

struct JobInput {
  double arrival_s = 0.0;
  std::string jdl;
  std::uint32_t user = 1;
  double runtime_s = 0.0;
  bool interactive = false;
  bool shared = false;
  bool mpi = false;
  bool reliable = false;
  ConsoleScript script;  ///< interactive jobs only
};

struct Inputs {
  std::uint64_t seed = 0;
  WorkloadShape shape;
  std::vector<JobInput> jobs;  ///< ascending arrival time
  cg::sim::FaultPlan faults;   ///< empty outside grid_chaos
  /// Injected link outages on the UI <-> site links, per site index: the
  /// windows in which fast-mode console loss is legitimate.
  std::vector<std::vector<std::pair<double, double>>> ui_outages;
};

/// `smoke` selects the seconds-long size used by the benchmark's own tests;
/// the mix and every code path stay the same.
[[nodiscard]] Inputs make_inputs(WorkloadKind kind, std::uint64_t seed, bool smoke);

}  // namespace gridbench
