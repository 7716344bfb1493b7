// The glide-in agent (Condor Glide-In style, Section 5.2). Submitted through
// the normal batch path as an ordinary local job; once running on a worker
// node it splits the node into a batch-vm and an interactive-vm, reports
// directly to the broker (bypassing Globus and the LRMS for subsequent
// interactive submissions), and enforces the PerformanceLoss CPU split.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "glidein/vm_model.hpp"
#include "lrms/task_runner.hpp"
#include "net/message.hpp"
#include "obs/metrics.hpp"
#include "sim/simulation.hpp"
#include "util/expected.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace cg::net {
class ControlBus;
}  // namespace cg::net

namespace cg::glidein {

enum class SlotType { kBatch, kInteractive };

/// A job handed to one of the agent's virtual machines.
struct SlotJob {
  JobId id;
  UserId owner;
  lrms::Workload workload;
  std::function<void()> on_start;
  std::function<void()> on_complete;
  lrms::TaskRunner::PhaseObserver phase_observer;
  lrms::TaskRunner::BarrierFn barrier_handler;
};

struct GlideinAgentConfig {
  VmModelConfig vm;
  /// Degree of multiprogramming: how many interactive VMs the agent creates
  /// beside the batch-vm. The paper uses 1 and names a larger, dynamic
  /// degree as future work ("our multi-programming system could allow a
  /// larger degree of multi-programming, creating dynamically more than two
  /// virtual machines").
  int interactive_slots = 1;
  /// Agent bootstrap on the worker node after the LRMS starts it (unpacking,
  /// creating the VM slots, registering with the broker).
  Duration bootstrap_time = Duration::millis(2500);
  /// Receiving a job on a VM and spawning it (fork/exec, sandbox setup).
  Duration job_start_overhead = Duration::millis(900);
  /// Size of the agent bundle staged with the carrying batch submission.
  std::size_t binary_bytes = 10u << 20;
};

enum class AgentState { kPending, kRunning, kDead };

/// One agent instance bound to a worker node. Owned by the broker's agent
/// table (broker::AgentRegistry).
class GlideinAgent {
public:
  using StateObserver = std::function<void(AgentState)>;

  GlideinAgent(sim::Simulation& sim, AgentId id, SiteId site,
               GlideinAgentConfig config = {});
  ~GlideinAgent();
  GlideinAgent(const GlideinAgent&) = delete;
  GlideinAgent& operator=(const GlideinAgent&) = delete;

  [[nodiscard]] AgentId id() const { return id_; }
  [[nodiscard]] SiteId site() const { return site_; }
  [[nodiscard]] AgentState state() const { return state_; }
  [[nodiscard]] const GlideinAgentConfig& config() const { return config_; }
  /// The LRMS job id the agent occupies on the node (valid once submitted).
  [[nodiscard]] JobId carrier_job_id() const { return carrier_job_id_; }
  void set_carrier_job_id(JobId id) { carrier_job_id_ = id; }
  [[nodiscard]] std::optional<NodeId> node() const { return node_; }

  /// Called when the LRMS starts the carrier job on a node. After
  /// `bootstrap_time` the agent becomes kRunning and the VMs exist.
  void on_carrier_started(NodeId node);

  /// Called when the carrier job is killed (scheduler kill, node failure).
  /// Both resident jobs die with it.
  void on_carrier_killed();

  /// Installed by the registry/broker to track availability.
  void set_state_observer(StateObserver observer);

  /// Wires the agent onto the control-plane bus. Once connected, the agent
  /// announces itself with an AgentRegister message when it reaches
  /// kRunning, and sends its Heartbeat messages over the broker <-> agent
  /// channel. The bus must outlive the agent (or be disconnected with
  /// nullptr).
  void connect_control_plane(net::ControlBus* bus, EndpointId site_endpoint,
                             EndpointId broker_endpoint,
                             Duration channel_latency);

  /// The gatekeeper endpoint of the agent's site, as connected.
  [[nodiscard]] EndpointId site_endpoint() const { return site_endpoint_; }

  /// Serves a message addressed to this agent, as passed on by its site's
  /// glide-in host: a KillJob or EvictNotice kills the interactive job it
  /// names, or whatever runs on the batch slot. Other types are ignored.
  void receive(const net::Message& msg);

  /// One keepalive from the agent's event loop: when connected, a running
  /// agent sends the next Heartbeat from its site endpoint to the broker.
  /// An agent that is not running, or is wedged, stays silent — exactly the
  /// supervision signal. The broker's supervision tick calls this for every
  /// agent it keeps, so the agents' timers fire in lockstep with the tick
  /// and cost no event of their own.
  void send_heartbeat();

  /// Fault injection (kAgentWedge): a wedged agent's event loop is stalled —
  /// it stops sending heartbeats and refuses new slot starts — while its
  /// carrier job, node, and link stay healthy and resident jobs keep
  /// executing (they are separate processes; only the control loop is stuck).
  void set_wedged(bool wedged) { wedged_ = wedged; }
  [[nodiscard]] bool wedged() const { return wedged_; }

  /// Heartbeats the loop has sent (the seq of the last one; 0 before the
  /// first).
  [[nodiscard]] std::uint64_t heartbeats_sent() const {
    return heartbeats_sent_;
  }

  /// Attaches a metrics registry (must outlive the agent, or be detached
  /// with nullptr): the VM occupancy histogram plus slot start/demotion
  /// counters, labelled with `labels` (typically {"site": ...}).
  void set_metrics(obs::MetricsRegistry* metrics, obs::LabelSet labels = {});

  // -- Virtual machine occupancy. ------------------------------------------
  [[nodiscard]] bool batch_vm_busy() const { return batch_job_ != nullptr; }
  /// True when every interactive slot is occupied.
  [[nodiscard]] bool interactive_vm_busy() const;
  /// True when the agent runs and at least one interactive slot is free.
  [[nodiscard]] bool interactive_vm_free() const;
  /// Number of currently free interactive slots (0 unless running).
  [[nodiscard]] int free_interactive_slots() const;
  [[nodiscard]] int interactive_slot_count() const;

  /// Starts a job on the batch-vm. Fails if the agent is not running or the
  /// slot is occupied.
  Status start_batch_job(SlotJob job);

  /// Starts a job on a free interactive-vm with the given PerformanceLoss;
  /// the co-resident batch job (if any) is immediately demoted.
  Status start_interactive_job(SlotJob job, int performance_loss);

  /// Cancels the job on a slot without firing its completion callback. For
  /// kInteractive this cancels the *first occupied* slot (degree-1 usage);
  /// with several slots prefer cancel_interactive_job.
  void cancel_slot(SlotType slot);

  /// Cancels a specific resident interactive job. Returns false if absent.
  bool cancel_interactive_job(JobId id);

  /// Releases a resident job (either slot kind) from a barrier.
  bool release_barrier(JobId id);

  /// Strongest CPU concession among currently running interactive jobs
  /// (0 when none run). Governs the batch slot and fair-share demotion.
  [[nodiscard]] int max_running_performance_loss() const;

  /// Ids of the interactive jobs currently resident.
  [[nodiscard]] std::vector<JobId> interactive_job_ids() const;

private:
  struct Resident {
    SlotJob job;
    std::unique_ptr<lrms::TaskRunner> runner;
    std::uint64_t epoch = 0;  ///< guards the delayed-start event
    int performance_loss = 0;
  };

  void set_state(AgentState state);
  void reapply_dilations();
  /// Refreshes the occupancy gauges after any slot change (no-op without a
  /// registry attached).
  void update_occupancy_metrics();
  /// Dilation for the batch slot (slot_index < 0) or interactive slot i.
  [[nodiscard]] double dilation_for(int slot_index, lrms::PhaseKind kind) const;
  Status start_on_slot(int slot_index, SlotJob job, int performance_loss);
  [[nodiscard]] int running_interactive_count() const;

  sim::Simulation& sim_;
  AgentId id_;
  SiteId site_;
  GlideinAgentConfig config_;
  net::ControlBus* bus_ = nullptr;
  EndpointId site_endpoint_;
  EndpointId broker_endpoint_;
  Duration channel_latency_ = Duration::zero();
  mutable Rng noise_rng_;  ///< execution-noise stream (dilation_for is const)
  AgentState state_ = AgentState::kPending;
  bool wedged_ = false;
  std::uint64_t heartbeats_sent_ = 0;
  StateObserver observer_;
  JobId carrier_job_id_;
  std::optional<NodeId> node_;
  sim::ScopedTimer bootstrap_timer_;

  std::unique_ptr<Resident> batch_job_;
  std::vector<std::unique_ptr<Resident>> interactive_;  ///< fixed slot array
  std::uint64_t next_epoch_ = 1;

  /// Pre-resolved handles (bound once in set_metrics, inert when detached):
  /// occupancy updates fire on every slot change, so the hot path must not
  /// rebuild label sets or walk the registry maps.
  struct MetricHandles {
    obs::HistogramHandle interactive_occupancy;
    obs::CounterHandle slot_starts_batch;
    obs::CounterHandle slot_starts_interactive;
    bool attached = false;
  };
  MetricHandles metrics_;
};

}  // namespace cg::glidein
