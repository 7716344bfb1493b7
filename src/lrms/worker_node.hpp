// A worker node: one execution resource managed by a site's local batch
// system. A node runs one local job at a time natively; when that job is a
// glide-in agent, the agent layers its two lightweight virtual machines on
// top (src/glidein) without the LRMS knowing.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "jdl/classad.hpp"
#include "lrms/task_runner.hpp"
#include "lrms/workload.hpp"
#include "sim/simulation.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace cg::lrms {

/// A job as seen by the local scheduler.
struct LocalJob {
  JobId id;
  UserId owner;
  Workload workload;
  /// Optional job ClassAd for Condor-style local matchmaking (see
  /// QueuePolicy::kMatchmaking): the job's Requirements are evaluated
  /// against each candidate node's machine ad.
  std::shared_ptr<const jdl::ClassAd> job_ad;
  /// Fires when the job begins executing on a node.
  std::function<void(NodeId)> on_start;
  /// Fires when the workload completes (not on cancel/kill).
  std::function<void()> on_complete;
  /// Observes each executed phase (Fig. 8 instrumentation).
  TaskRunner::PhaseObserver phase_observer;
  /// Dilation factors while running; defaults to 1.0 (dedicated node).
  TaskRunner::DilationFn dilation;
  /// Barrier handler for parallel (BSP) workloads; see TaskRunner.
  TaskRunner::BarrierFn barrier_handler;
};

struct WorkerNodeSpec {
  std::int64_t memory_mb = 1024;
  /// Relative CPU speed (1.0 = reference Pentium III of the testbed).
  double cpu_speed = 1.0;
  /// Per-phase multiplicative execution noise, off by default (virtual time
  /// is exact). The Fig. 8 harness enables it with the paper's measured
  /// scatter: sd 0.001 s on a 0.921 s burst, 6.9e-5 s on a 6 ms I/O op.
  double cpu_noise_fraction = 0.0;
  double io_noise_fraction = 0.0;
  /// Free-form machine attributes exported in the node's ClassAd (Condor
  /// style), e.g. {"HasGPU", "true"} or {"Pool", "\"physics\""} — values
  /// are JDL expressions.
  std::vector<std::pair<std::string, std::string>> extra_attributes;
};

class WorkerNode {
public:
  WorkerNode(sim::Simulation& sim, NodeId id, WorkerNodeSpec spec = {});

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const WorkerNodeSpec& spec() const { return spec_; }
  /// The node's machine ClassAd (Condor-style), built once at construction.
  [[nodiscard]] const jdl::ClassAd& machine_ad() const { return machine_ad_; }
  [[nodiscard]] bool idle() const { return !failed_ && !runner_ && !reserved_; }
  [[nodiscard]] bool reserved() const { return reserved_; }
  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] std::optional<JobId> current_job() const;

  /// Marks the node as promised to an in-flight dispatch so concurrent
  /// dispatches cannot double-book it.
  void reserve();

  /// Starts a job. The node must be idle or reserved.
  void run(LocalJob job);

  /// Forcibly removes the current job (machine failure, scheduler kill).
  /// Does not fire on_complete. Returns the killed job's id, if any.
  std::optional<JobId> kill_current();

  /// Takes the node out of service (machine crash): the resident job is
  /// killed, any reservation is dropped, and the node refuses work until
  /// revive(). Returns the killed job's id, if any.
  std::optional<JobId> fail();

  /// Returns a crashed node to service (repair / reboot).
  void revive() { failed_ = false; }

  /// Completes a manual-workload job (glide-in agent leaving the machine).
  void finish_current_manual();

  /// Re-times the current job after a dilation change.
  void notify_dilation_changed();

  /// Releases the current job from a barrier (parallel-job coordination).
  void release_barrier();

private:
  sim::Simulation& sim_;
  NodeId id_;
  WorkerNodeSpec spec_;
  jdl::ClassAd machine_ad_;
  Rng rng_;  ///< execution-noise stream, seeded from the node id
  bool reserved_ = false;
  bool failed_ = false;
  std::optional<LocalJob> job_;
  std::unique_ptr<TaskRunner> runner_;
};

}  // namespace cg::lrms
