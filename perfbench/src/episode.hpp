// One episode: build a grid, replay a workload's pre-drawn inputs through
// the public cg::Grid / CrossBroker / GridConsole APIs, run virtual time to
// quiescence, check the outputs and read every layer's public counters.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "layer_trace.hpp"
#include "workloads.hpp"

namespace gridbench {

struct EpisodeResult {
  // -- host clock ------------------------------------------------------------
  double setup_s = 0.0;  ///< build grid + register users + schedule inputs
  double run_s = 0.0;    ///< the run phase (stepped, when traced)
  double snapshot_ms = 0.0;
  double export_ms = 0.0;
  std::uint64_t run_allocs = 0;

  // -- virtual time and exact outcomes ----------------------------------------
  double sim_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t jobs_submitted = 0;  ///< accepted by the broker
  std::uint64_t jobs_refused = 0;    ///< refused at submit
  std::uint64_t jobs_terminal = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t interactive_jobs = 0;
  std::uint64_t lines_written = 0;
  std::uint64_t lines_delivered = 0;
  std::uint64_t lines_lost_in_outages = 0;
  std::uint64_t lines_typed = 0;
  std::uint64_t operations = 0;  ///< submissions + writes + typed lines

  std::vector<double> interactive_startup_s;
  std::vector<double> shared_startup_s;     ///< sequential shared jobs
  std::vector<double> exclusive_startup_s;
  std::vector<double> batch_startup_s;
  std::vector<double> echo_rtt_ms;
  std::vector<double> echo_fast_ms;
  std::vector<double> echo_reliable_ms;

  /// Jobs that ended failed or rejected, by the broker's error code.
  std::map<std::string, std::uint64_t> failed_by_code;

  /// Exact per-layer counts (name -> value), deterministic for a seed.
  std::map<std::string, double> counts;

  /// Correctness violations; empty when every check passed.
  std::vector<std::string> failures;
  std::uint64_t failed_operations = 0;

  /// FNV-1a over the tracer JSONL, the metrics snapshot and the simulated
  /// metrics: equal digests mean equal virtual-time runs.
  std::uint64_t digest = 0;

  LayerTrace::Result trace;  ///< traced episodes only
  std::string spans_jsonl;
};

struct EpisodeOptions {
  bool traced = false;
};

[[nodiscard]] EpisodeResult run_episode(const Inputs& inputs,
                                        const EpisodeOptions& options);

/// Host seconds to set up an episode (grid, users, scheduled inputs), with
/// nothing run: extra set-up samples for a steadier setup_s.
[[nodiscard]] double measure_setup(const Inputs& inputs);

}  // namespace gridbench
