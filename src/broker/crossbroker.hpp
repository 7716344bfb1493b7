// CrossBroker: the resource-management service for batch and interactive
// jobs (Sections 3 and 5). Responsibilities:
//
//  * submission pipeline: resource discovery (information-system index),
//    resource selection (fresh per-site queries, Requirements/Rank
//    matchmaking, randomized tie-breaking), two-phase-commit dispatch;
//  * on-line scheduling for interactive jobs: never leave one sitting in a
//    local queue — cancel and resubmit elsewhere;
//  * exclusive temporal access: matched resources are leased so concurrent
//    submissions do not double-book stale "free" CPUs;
//  * job multi-programming: glide-in agents split worker nodes into a
//    batch-vm and an interactive-vm; interactive jobs in shared mode start
//    on a free interactive-vm directly (no Globus, no LRMS queue), demoting
//    the co-resident batch job per its PerformanceLoss;
//  * fair-share accounting with interactive-aware application factors and
//    rejection of over-consuming users under contention;
//  * MPI co-allocation: MPICH-P4 within a site, MPICH-G2 across sites with
//    a startup barrier.
#pragma once

#include <array>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "broker/agent_registry.hpp"
#include "broker/agent_supervisor.hpp"
#include "broker/fair_share.hpp"
#include "broker/job_record.hpp"
#include "broker/submit_error.hpp"
#include "gsi/credential.hpp"
#include "broker/lease_manager.hpp"
#include "broker/matchmaker.hpp"
#include "broker/site_health.hpp"
#include "infosys/information_system.hpp"
#include "obs/observability.hpp"

namespace cg::lrms {
class Site;
struct GridJobRequest;
}  // namespace cg::lrms
namespace cg::mpijob {
class RuntimeBarrierCoordinator;
}
namespace cg::net {
class ControlBus;
struct Envelope;
struct JobStatus;
}  // namespace cg::net

namespace cg::broker {

/// TTL of the exclusive-temporal-access lease taken at selection time.
inline constexpr Duration kMatchLeaseTtl = Duration::seconds(60);
/// Modelled size of each OutputSandbox file staged back on completion.
inline constexpr std::size_t kOutputFileBytes = 1u << 20;
/// Interactive exclusive mode: if the job has not started this long after
/// the LRMS accepted it, it is queued, not running — cancel and resubmit.
inline constexpr Duration kQueueDetectTimeout = Duration::seconds(8);
/// Bounded exponential backoff between resubmissions: attempt n waits
/// base * 2^(n-1), capped at the max.
inline constexpr Duration kResubmitBackoffBase = Duration::millis(500);
inline constexpr Duration kResubmitBackoffMax = Duration::seconds(30);

struct CrossBrokerConfig {
  FairShareConfig fair_share;
  MatchmakerConfig matchmaker;
  glidein::GlideinAgentConfig glidein;

  /// Exclusive temporal access (Section 3). Disabling it lets concurrent
  /// submissions double-book stale "free" CPUs (ablation A1).
  bool enable_match_leases = true;
  /// One-way latency of the direct broker <-> agent channel (no Globus).
  Duration agent_channel_latency = Duration::millis(250);
  /// Local processing to match a job against the in-broker VM registry
  /// (the combined discovery+selection step of shared mode).
  Duration vm_lookup_cost = Duration::millis(50);
  /// Default size of the executable + input sandbox staged per job.
  std::size_t executable_bytes = 5u << 20;
  int max_resubmissions = 3;

  /// Partition-aware eviction of *running* residents: when an agent stays
  /// suspected past this grace, its running jobs are timed out — killed on
  /// the agent side (best effort), their leases released, a typed
  /// JobEvicted{reason=partition} event emitted, and the job resubmitted on
  /// the normal backoff policy (eviction implies resubmission; the
  /// resubmit_interactive_on_agent_death switch governs only *deaths*,
  /// where the resident is gone rather than orphaned). Zero disables
  /// eviction — the paper-era behaviour where running residents are left
  /// untouched behind a partition.
  Duration running_job_grace = Duration::zero();

  /// Resubmit interactive residents when their agent dies instead of
  /// failing them loudly. Off by default: the paper's position is that the
  /// user is attached to the console and must act. Fault-tolerance harnesses
  /// turn this on to get automatic recovery with backoff.
  bool resubmit_interactive_on_agent_death = false;

  /// Poll period for batch jobs waiting inside the broker for free machines.
  Duration broker_queue_poll = Duration::seconds(30);
  /// Serve the broker queue best-priority-first (fair share). Disabling it
  /// falls back to FIFO arrival order (ablation A4's baseline).
  bool fair_share_queue_ordering = true;

  /// Fair-share rejection: a submission from a user whose priority exceeds
  /// this is rejected when it cannot start on a free resource immediately.
  /// <= 0 disables rejection.
  double reject_priority_threshold = 0.0;

  /// Dismiss an agent when both of its VMs fall idle (after it has run at
  /// least one job). Disable to keep a warm agent pool.
  bool dismiss_idle_agents = true;

  std::uint64_t seed = 0x5eed;
};

/// The broker applies its AgentSupervisor's decisions: a suspicion revokes
/// the agent's reservations, a restoration dismisses it if idle, and an
/// expired grace evicts its residents.
class CrossBroker : private SupervisionDecisions {
public:
  CrossBroker(sim::Simulation& sim, net::ControlBus& bus,
              infosys::InformationSystem& infosys, CrossBrokerConfig config = {},
              std::string endpoint = "broker");
  ~CrossBroker() override;
  CrossBroker(const CrossBroker&) = delete;
  CrossBroker& operator=(const CrossBroker&) = delete;

  /// Registers a site with the broker (and wires the glide-in bookkeeping,
  /// the glide-in host of its endpoint included). The site must outlive the
  /// broker.
  void add_site(lrms::Site& site);

  /// Submits a job. The workload is what the job does once running; the
  /// description is its JDL. Returns the broker-assigned job id, or a typed
  /// reason when the submission is refused up front (invalid user or
  /// description, failed GSI pre-flight). Failures later in the pipeline
  /// surface through the callbacks and the record's last_error. The broker
  /// receives the job's OutputSandbox at `submitter_endpoint`, so that
  /// endpoint must have no other receiver (binding it throws otherwise).
  [[nodiscard]] Expected<JobId, SubmitError> submit(jdl::JobDescription description,
                                                    UserId user,
                                                    lrms::Workload workload,
                                                    std::string submitter_endpoint,
                                                    JobCallbacks callbacks);

  /// Enables GSI across the grid: the broker verifies users' proxies before
  /// scheduling, presents them at every gatekeeper (which start verifying),
  /// and delegates restricted proxies for jobs started on glide-in agents.
  /// The anchor must outlive the broker.
  void enable_security(const gsi::Certificate* trust_anchor,
                       std::vector<gsi::Credential> broker_credentials);

  /// Registers a user's credential ancestry (CA-issued certificate followed
  /// by their proxy). Submissions from unregistered users fail when
  /// security is enabled.
  void set_user_credentials(UserId user, std::vector<gsi::Credential> ancestry);

  /// Cancels a job in any non-terminal state: removes it from the broker
  /// queue, fails it with code "broker.cancelled" like any other failure
  /// (traced, counted in broker.jobs_failed, on_failed fired), then drops
  /// its reserved VMs and kills its subjobs wherever they are. Returns false
  /// if the job is unknown or already terminal.
  bool cancel(JobId id);

  /// Proactively deploys a glide-in agent on a site (warm pool). The agent
  /// is submitted through the normal batch path.
  void preload_agent(SiteId site);

  /// Attaches the observability bundle: lifecycle transitions go to its
  /// JobTracer as typed events and the hot paths update its MetricsRegistry
  /// (match latency, lease revocations, resubmission backoff, heartbeat
  /// misses, matchmaking scan/cache counters, ...). Must outlive the broker
  /// (or be detached with nullptr). Agents created after this call inherit
  /// the registry.
  void set_observability(obs::Observability* obs);

  [[nodiscard]] const JobRecord* record(JobId id) const;
  [[nodiscard]] FairShare& fair_share() { return fair_share_; }
  [[nodiscard]] SiteHealth& site_health() { return site_health_; }
  [[nodiscard]] const SiteHealth& site_health() const { return site_health_; }
  [[nodiscard]] AgentRegistry& agents() { return agents_; }
  [[nodiscard]] LeaseManager& leases() { return leases_; }
  /// The broker's bus endpoint name.
  [[nodiscard]] const std::string& endpoint() const;
  [[nodiscard]] std::size_t broker_queue_length() const { return waiting_batch_.size(); }

  /// All job records (inspection / experiment reporting).
  [[nodiscard]] std::vector<const JobRecord*> all_records() const;

  /// True while supervision considers the agent unreachable.
  [[nodiscard]] bool agent_suspected(AgentId id) const;

  /// Free interactive VM slots on a site as the broker advertises them:
  /// suspected agents do not count (they may be dead behind the partition).
  [[nodiscard]] int advertised_interactive_vms(SiteId site);

private:
  struct ManagedJob {
    JobRecord record;
    JobCallbacks callbacks;
    /// Sites already tried and to be avoided on resubmission.
    std::vector<SiteId> excluded_sites;
    /// Leases held while dispatching (released on start or failure).
    std::vector<LeaseId> held_leases;
    bool queue_timer_armed = false;
    bool staging_out = false;  ///< OutputSandbox transfer in progress
    /// Requirements/Rank compiled once per job at its first selection,
    /// reused across scheduling attempts and resubmissions, and dropped
    /// when the job ends (set_state).
    std::shared_ptr<const jdl::CompiledMatch> compiled_match;
    /// Runtime barrier coordination for BSP workloads (multi-rank only).
    std::unique_ptr<mpijob::RuntimeBarrierCoordinator> barrier_coordinator;
  };

  // -- pipeline ------------------------------------------------------------
  void schedule_job(JobId id);
  void begin_discovery(JobId id);
  /// Coarse pass over the index reply: the shared snapshot is scanned in
  /// place — neither the records nor their shared_ptrs are copied.
  void begin_selection(
      JobId id,
      std::shared_ptr<const infosys::InformationSystem::IndexSnapshot> stale);
  /// Fresh per-site queries over the coarse survivors, then the final
  /// filter + placement.
  void continue_selection(JobId id, std::vector<SiteId> coarse);
  /// Places the job on reservable VMs (shared mode) and, for the rest, on
  /// sites chosen from `fresh_candidates`: Matchmaker::select picks a
  /// sequential job's site, mpijob::plan_allocation a parallel job's.
  void place_job(JobId id, std::vector<Candidate> fresh_candidates);
  /// Reservable VM slots (AgentRecord::reservable_slots) summed over the
  /// agents at `site`, or at every site when absent. Hard-excluded sites
  /// offer none: shared-mode placement follows the same suspicion window
  /// as external matchmaking.
  [[nodiscard]] int reservable_vms(std::optional<SiteId> site) const;
  /// The lowest site id whose reservable VMs cover `n` processes: MPICH-P4
  /// cannot span sites.
  [[nodiscard]] std::optional<SiteId> vm_site_covering(int n) const;
  /// True when reservable VMs cover the whole job, so shared mode can skip
  /// discovery and selection.
  [[nodiscard]] bool vms_cover(const jdl::JobDescription& desc) const;
  void handle_no_resources(JobId id);

  // -- dispatch ------------------------------------------------------------
  void dispatch_interactive_on_vms(JobId id);
  void dispatch_subjob_to_vm(SubJobRef ref, glidein::GlideinAgent& agent);
  void dispatch_subjob_exclusive(SubJobRef ref, SiteId site);
  /// Two-phase-commit submission over the bus: files `request` with the
  /// site's gatekeeper and sends the SubmitJob prepare leg. When the
  /// request's on_prepared returns true, the commit leg follows; its result
  /// goes to the request's on_committed.
  void submit_two_phase(SiteId site, lrms::GridJobRequest request);
  void dispatch_subjob_with_new_agent(SubJobRef ref, SiteId site,
                                      bool interactive_slot);
  void arm_queue_detection(SubJobRef ref, SiteId site);

  // -- lifecycle -----------------------------------------------------------
  /// The one attempt check of every deferred path: the subjob `ref` names,
  /// or null when its job is gone or terminal or the id is not in the job's
  /// current attempt. A delivery whose ref does not resolve changes no job
  /// state.
  [[nodiscard]] SubJobRecord* current_subjob(SubJobRef ref);
  void set_state(ManagedJob& job, JobState state);
  void subjob_started(SubJobRef ref);
  void subjob_completed(SubJobRef ref);
  void complete_job(JobId id);
  void fail_job(JobId id, Error error);
  void reject_job(JobId id, Error error);
  /// Schedules a fresh attempt after backoff, or fails the job when its
  /// retries are spent. A job some of whose subjobs started fails as a
  /// partial start, unless the caller `rewound` it: its work is gone.
  void resubmit_job(JobId id, bool rewound = false);
  /// Resubmits a job whose work is gone (its agent died or was evicted, or
  /// the site killed it) as rewound, so the resubmission starts from
  /// scratch instead of failing as partial.
  void restart_job(JobId id);
  void release_leases(ManagedJob& job);
  void poll_broker_queue();
  /// Barrier plumbing for parallel BSP workloads.
  void setup_barrier_coordination(ManagedJob& job);
  [[nodiscard]] lrms::TaskRunner::BarrierFn barrier_handler_for(SubJobRef ref);

  // -- glide-in management -------------------------------------------------
  /// Deploys an agent at `site` and submits its carrier job. The caller
  /// names the subjob the agent is for (AgentRecord::deployed_for), if any.
  AgentRecord& create_agent_with_carrier(SiteId site);
  /// Starts `ref` on the agent if it still holds the subjob's reservation:
  /// a duplicated DispatchJob finds it taken by the first copy.
  void start_job_on_agent(SubJobRef ref, AgentRecord& rec, bool interactive_slot);
  void maybe_dismiss_agent(AgentId agent_id);
  void handle_agent_death(AgentId agent_id);
  void on_site_job_killed(SiteId site, JobId job, NodeId node);

  // -- control plane ---------------------------------------------------------
  /// The receiver bound at the broker's endpoint and at every submitter's:
  /// JobStatus, AgentRegister, Heartbeat, and the outbound StageSandbox
  /// that lets a job complete.
  void handle_bus_message(const net::Envelope& envelope);
  /// Frees the agent slot a completed subjob held (only the resident the
  /// message names), then records the lifecycle edge.
  void handle_job_status(const net::JobStatus& status);
  void handle_agent_register(AgentId agent_id);
  /// The glide-in host of every site: the agent-side messages addressed to
  /// a site endpoint. DispatchJob starts a subjob on its reserved VM; the
  /// other types go to the agent they name.
  void handle_agent_message(const net::Envelope& envelope);
  /// Binds a submitter's endpoint (once) to handle_bus_message: the
  /// simulated UI has no component of its own.
  void bind_submitter(EndpointId submitter);

  // -- supervision decisions -------------------------------------------------
  void on_suspected(AgentRecord& rec) override;
  void on_restored(AgentRecord& rec) override;
  void on_grace_expired(AgentRecord& rec) override;

  [[nodiscard]] double application_factor(const ManagedJob& job) const;
  /// Pre-flight credential check (security enabled only); also used before
  /// delegating to agents.
  [[nodiscard]] Status check_user_security(UserId user) const;
  [[nodiscard]] std::optional<gsi::CertificateChain> chain_for(UserId user) const;
  /// A registered site's bus endpoint (its gatekeeper's).
  [[nodiscard]] EndpointId site_endpoint(SiteId id) const;
  [[nodiscard]] ManagedJob* find_job(JobId id);
  [[nodiscard]] int needed_cpus_per_site(const jdl::JobDescription& desc) const;

  sim::Simulation& sim_;
  net::ControlBus& bus_;
  infosys::InformationSystem& infosys_;
  CrossBrokerConfig config_;
  EndpointId endpoint_;
  Rng rng_;

  Matchmaker matchmaker_;
  LeaseManager leases_;
  FairShare fair_share_;
  AgentRegistry agents_;
  SiteHealth site_health_;
  AgentSupervisor supervisor_;

  /// Typed lifecycle event into the attached obs::JobTracer (no-op without).
  void tracev(JobId job, obs::TraceEventKind kind, std::string detail,
              obs::LabelSet attrs = {});
  /// Counter / histogram shorthands against the attached MetricsRegistry.
  void count(const char* name, obs::LabelSet labels = {}, std::uint64_t by = 1);
  void observe(const char* name, double value, obs::LabelSet labels = {});

  /// Pre-resolved handles for the per-event hot paths (bound in
  /// set_observability; inert while no registry is attached).
  struct BrokerMetrics {
    obs::CounterHandle invalidations_republish;
    obs::CounterHandle invalidations_unregister;
    obs::CounterHandle leases_acquired;
    obs::CounterHandle lease_revocations;
    obs::GaugeHandle queue_depth;
    /// Indexed by PlacementKind (the histogram's "placement" label).
    std::array<obs::HistogramHandle, 4> match_latency;
  };

  obs::Observability* obs_ = nullptr;
  const gsi::Certificate* trust_anchor_ = nullptr;
  std::vector<gsi::Credential> broker_credentials_;
  std::map<UserId, std::vector<gsi::Credential>> user_credentials_;

  BrokerMetrics metrics_;

  std::map<SiteId, lrms::Site*> sites_;
  /// Submitter endpoints this broker bound (besides its own).
  std::vector<EndpointId> submitters_;
  std::map<JobId, std::unique_ptr<ManagedJob>> jobs_;
  std::deque<JobId> waiting_batch_;
  IdGenerator<JobId> job_ids_;
  IdGenerator<SubJobId> subjob_ids_;
  bool queue_poll_armed_ = false;
};

}  // namespace cg::broker
