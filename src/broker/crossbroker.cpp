#include "broker/crossbroker.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "gsi/auth.hpp"
#include "lrms/site.hpp"
#include "mpijob/mpi_job.hpp"
#include "net/control_bus.hpp"
#include "util/log.hpp"

namespace cg::broker {

namespace {
constexpr const char* kLog = "broker";
}  // namespace

CrossBroker::CrossBroker(sim::Simulation& sim, net::ControlBus& bus,
                         infosys::InformationSystem& infosys,
                         CrossBrokerConfig config, std::string endpoint)
    : sim_{sim},
      bus_{bus},
      infosys_{infosys},
      config_{config},
      endpoint_{bus.endpoint(endpoint)},
      rng_{config.seed},
      matchmaker_{config.matchmaker},
      leases_{sim},
      fair_share_{sim, config.fair_share},
      agents_{sim},
      site_health_{sim},
      supervisor_{sim, agents_, site_health_, *this, config.running_job_grace} {
  fair_share_.start();
  // Suspicion-aware placement: every matchmaking pass consults the health
  // scores, the coarse pass over the index reply included.
  matchmaker_.set_site_health(&site_health_);
  // Machine-ad cache invalidations (republish, unregister) surface as a
  // counter; no-op until observability is attached. This fires on every
  // publication, so it dispatches to pre-bound per-reason handles instead of
  // building a label set per event.
  infosys_.set_invalidation_listener([this](SiteId, const char* reason) {
    if (std::strcmp(reason, "republish") == 0) {
      metrics_.invalidations_republish.inc();
    } else {
      metrics_.invalidations_unregister.inc();
    }
  });
  bus_.bind(endpoint_,
            [this](const net::Envelope& envelope) { handle_bus_message(envelope); });
  supervisor_.start();
}

const std::string& CrossBroker::endpoint() const {
  return bus_.name(endpoint_);
}

CrossBroker::~CrossBroker() {
  // The bus, the sites and the information system outlive the broker; drop
  // the callbacks that capture `this`.
  bus_.unbind(endpoint_);
  for (const EndpointId submitter : submitters_) bus_.unbind(submitter);
  for (const auto& [id, site] : sites_) {
    site->gatekeeper().set_glidein_host(nullptr);
  }
  infosys_.set_invalidation_listener(nullptr);
}

void CrossBroker::bind_submitter(EndpointId submitter) {
  if (submitter == endpoint_ ||
      std::find(submitters_.begin(), submitters_.end(), submitter) !=
          submitters_.end()) {
    return;
  }
  bus_.bind(submitter,
            [this](const net::Envelope& envelope) { handle_bus_message(envelope); });
  submitters_.push_back(submitter);
}

void CrossBroker::handle_bus_message(const net::Envelope& envelope) {
  const net::Message& msg = envelope.payload;
  if (const auto* status = std::get_if<net::JobStatus>(&msg)) {
    handle_job_status(*status);
  } else if (const auto* reg = std::get_if<net::AgentRegister>(&msg)) {
    handle_agent_register(reg->agent);
  } else if (const auto* heartbeat = std::get_if<net::Heartbeat>(&msg)) {
    supervisor_.on_heartbeat(heartbeat->agent);
  } else if (const auto* sandbox = std::get_if<net::StageSandbox>(&msg)) {
    // The OutputSandbox reached the submitter: the job may now complete
    // (complete_job acts once, like any terminal transition).
    if (!sandbox->inbound) complete_job(sandbox->job);
  }
}

void CrossBroker::handle_job_status(const net::JobStatus& status) {
  const SubJobRef ref{status.job, status.sub};
  if (status.phase == net::StatusPhase::kStarted) {
    subjob_started(ref);
    return;
  }
  if (AgentRecord* done = agents_.record(status.agent)) {
    done->ran_any_job = true;
    if (!status.interactive_slot) {
      if (done->batch_resident == ref) done->batch_resident.reset();
    } else if (std::erase(done->interactive_residents, ref) > 0 &&
               done->batch_resident && done->interactive_residents.empty()) {
      // The last interactive job finished: the batch job's original
      // priority (and application factor) are restored.
      fair_share_.set_application_factor(done->batch_resident->job,
                                         application_factor_batch());
    }
  }
  subjob_completed(ref);
  if (status.agent.valid()) maybe_dismiss_agent(status.agent);
}

void CrossBroker::handle_agent_message(const net::Envelope& envelope) {
  const auto* dispatch = std::get_if<net::DispatchJob>(&envelope.payload);
  if (dispatch == nullptr) {
    if (auto* agent = agents_.find(net::agent_of(envelope.payload))) {
      agent->receive(envelope.payload);
    }
    return;
  }
  const SubJobRef ref{dispatch->broker_job, dispatch->sub};
  if (current_subjob(ref) == nullptr) return;
  AgentRecord* rec = agents_.record(dispatch->agent);
  if (rec == nullptr || rec->agent->state() != glidein::AgentState::kRunning) {
    // The agent died while we were dispatching; try again from scratch.
    resubmit_job(ref.job);
    return;
  }
  start_job_on_agent(ref, *rec, /*interactive_slot=*/true);
}

void CrossBroker::handle_agent_register(AgentId agent_id) {
  AgentRecord* rec = agents_.record(agent_id);
  if (rec == nullptr) return;
  supervisor_.watch(*rec);
  // A preloaded agent names no subjob: it joins the pool as it is.
  if (!rec->deployed_for) return;
  const SubJobRef ref = *rec->deployed_for;
  rec->deployed_for.reset();
  if (current_subjob(ref) != nullptr) {
    // Only the subjob the agent was deployed for starts here, on the slot its
    // dispatch reserved: a job that reserved a slot since the agent came up
    // waits for its own DispatchJob.
    start_job_on_agent(ref, *rec,
                       /*interactive_slot=*/rec->pending_batch != ref);
    return;
  }
  // The job moved past this attempt while the agent bootstrapped: the agent
  // is dismissed like an idle one that has run a job.
  rec->drop_reservation(ref);
  rec->ran_any_job = true;
  maybe_dismiss_agent(agent_id);
}

void CrossBroker::enable_security(const gsi::Certificate* trust_anchor,
                                  std::vector<gsi::Credential> broker_credentials) {
  if (trust_anchor == nullptr) {
    throw std::invalid_argument{"enable_security: null anchor"};
  }
  trust_anchor_ = trust_anchor;
  broker_credentials_ = std::move(broker_credentials);
  for (auto& [id, site] : sites_) {
    site->gatekeeper().set_trust_anchor(trust_anchor_);
  }
}

void CrossBroker::set_user_credentials(UserId user,
                                       std::vector<gsi::Credential> ancestry) {
  if (!user.valid() || ancestry.empty()) {
    throw std::invalid_argument{"set_user_credentials: invalid input"};
  }
  user_credentials_.insert_or_assign(user, std::move(ancestry));
}

Status CrossBroker::check_user_security(UserId user) const {
  if (trust_anchor_ == nullptr) return Status::ok_status();
  const auto it = user_credentials_.find(user);
  if (it == user_credentials_.end()) {
    return make_error("gsi.no_credentials",
                      "user has no registered credentials");
  }
  return gsi::verify_chain(gsi::make_chain(it->second), *trust_anchor_,
                           sim_.now());
}

std::optional<gsi::CertificateChain> CrossBroker::chain_for(UserId user) const {
  if (trust_anchor_ == nullptr) return std::nullopt;
  const auto it = user_credentials_.find(user);
  if (it == user_credentials_.end()) return std::nullopt;
  return gsi::make_chain(it->second);
}

void CrossBroker::add_site(lrms::Site& site) {
  sites_.insert_or_assign(site.id(), &site);
  if (trust_anchor_ != nullptr) {
    site.gatekeeper().set_trust_anchor(trust_anchor_);
  }
  const SiteId site_id = site.id();
  site.scheduler().set_kill_observer([this, site_id](JobId job, NodeId node) {
    on_site_job_killed(site_id, job, node);
  });
  site.set_interactive_vm_counter(
      [this, site_id] { return advertised_interactive_vms(site_id); });
  site.gatekeeper().set_glidein_host(
      [this](const net::Envelope& envelope) { handle_agent_message(envelope); });
  int total = 0;
  for (const auto& [id, s] : sites_) total += s->config().worker_nodes;
  fair_share_.set_total_resources(std::max(total, 1));
}

Expected<JobId, SubmitError> CrossBroker::submit(jdl::JobDescription description,
                                                 UserId user,
                                                 lrms::Workload workload,
                                                 std::string submitter_endpoint,
                                                 JobCallbacks callbacks) {
  if (!user.valid()) {
    return make_submit_error(SubmitErrorKind::kBadDescription,
                             "broker.invalid_user",
                             "submission needs a valid user id");
  }
  if (description.node_number() < 1) {
    return make_submit_error(SubmitErrorKind::kBadDescription,
                             "broker.bad_description",
                             "NodeNumber must be at least 1");
  }
  // GSI pre-flight at the UI: a user without a valid proxy is refused before
  // the job enters the pipeline. (schedule_job re-checks for resubmissions,
  // where the proxy may have expired in the meantime.)
  const Status security = check_user_security(user);
  if (!security.ok()) return classify_submit_error(security.error());
  // The OutputSandbox comes back to the submitter's endpoint.
  bind_submitter(bus_.endpoint(submitter_endpoint));
  const JobId id = job_ids_.next();
  auto managed = std::make_unique<ManagedJob>();
  managed->record.id = id;
  managed->record.user = user;
  managed->record.description = std::move(description);
  managed->record.workload = std::move(workload);
  managed->record.submitter_endpoint = std::move(submitter_endpoint);
  managed->record.timestamps.submitted = sim_.now();
  managed->callbacks = std::move(callbacks);
  jobs_.emplace(id, std::move(managed));
  const auto& desc = jobs_[id]->record.description;
  const obs::LabelSet job_labels{
      {"type", std::string{jdl::to_string(desc.category())}},
      {"flavor", std::string{jdl::to_string(desc.flavor())}}};
  tracev(id, obs::TraceEventKind::kSubmitted,
         jdl::to_string(desc.category()) + " " + jdl::to_string(desc.flavor()) +
             " x" + std::to_string(desc.node_number()),
         obs::LabelSet{{"user", std::to_string(user.value())},
                       {"type", std::string{jdl::to_string(desc.category())}}});
  count("broker.jobs_submitted", job_labels);
  log_info(kLog, "submitted ", id, " (", jdl::to_string(desc.category()), ", ",
           jdl::to_string(desc.flavor()), ")");
  sim_.schedule(Duration::zero(), [this, id] { schedule_job(id); });
  return id;
}

bool CrossBroker::cancel(JobId id) {
  ManagedJob* job = find_job(id);
  if (job == nullptr || is_terminal(job->record.state)) return false;
  log_info(kLog, "cancelling ", id, " (state ", to_string(job->record.state), ")");

  // Out of the broker's own queue before the state change, which writes the
  // queue-depth gauge.
  std::erase(waiting_batch_, id);
  // The job ends like any failure, and before the teardown: every in-flight
  // callback (kill observers, commit acks, agent registration) then finds it
  // terminal and changes nothing.
  fail_job(id, make_error("broker.cancelled", "cancelled by user"));

  // Tear down every subjob wherever it is.
  const auto of_job = [id](SubJobRef ref) { return ref.job == id; };
  // Entries of a superseded attempt go with the first subjob that visits
  // the agent; each current rank's resident waits for its own subjob.
  const auto superseded = [job, id](SubJobRef ref) {
    return ref.job == id &&
           std::ranges::none_of(job->record.subjobs, [ref](const auto& sub) {
             return sub.id == ref.sub;
           });
  };
  for (auto& sub : job->record.subjobs) {
    if (sub.completed) continue;
    bool handled = false;
    if (sub.agent) {
      if (AgentRecord* rec = agents_.record(*sub.agent)) {
        const EndpointId site_dst = site_endpoint(rec->site());
        const AgentId agent_id = *sub.agent;
        const JobId lrms_id = sub.lrms_job_id;
        const SubJobRef ref{id, sub.id};
        // Every entry the job holds on the agent goes, superseded ones too.
        std::erase_if(rec->pending_interactive, of_job);
        if (rec->pending_batch && of_job(*rec->pending_batch)) {
          rec->pending_batch.reset();
        }
        std::erase_if(rec->interactive_residents, superseded);
        if (std::erase(rec->interactive_residents, ref) > 0) {
          bus_.send(endpoint_, site_dst,
                    net::KillJob{lrms_id, agent_id, /*interactive_slot=*/true});
          // The batch job gets its machine (and application factor) back
          // once the last interactive resident is gone.
          if (rec->batch_resident && rec->interactive_residents.empty()) {
            fair_share_.set_application_factor(rec->batch_resident->job,
                                               application_factor_batch());
          }
          handled = true;
        }
        if (rec->batch_resident && of_job(*rec->batch_resident)) {
          bus_.send(
              endpoint_, site_dst,
              net::KillJob{lrms_id, agent_id, /*interactive_slot=*/false});
          rec->batch_resident.reset();
          handled = true;
        }
        rec->ran_any_job = true;  // the slot was used; allow dismissal
        maybe_dismiss_agent(*sub.agent);
      }
    }
    if (!handled) {
      // Direct placement: remove from the site's queue or kill on the node.
      bus_.send(endpoint_, site_endpoint(sub.site),
                net::CancelJob{sub.lrms_job_id, /*queued_only=*/false});
    }
  }
  return true;
}

void CrossBroker::preload_agent(SiteId site) {
  if (!sites_.contains(site)) throw std::invalid_argument{"preload_agent: unknown site"};
  create_agent_with_carrier(site);
}

const JobRecord* CrossBroker::record(JobId id) const {
  const auto it = jobs_.find(id);
  return it != jobs_.end() ? &it->second->record : nullptr;
}

std::vector<const JobRecord*> CrossBroker::all_records() const {
  std::vector<const JobRecord*> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(&job->record);
  return out;
}

CrossBroker::ManagedJob* CrossBroker::find_job(JobId id) {
  const auto it = jobs_.find(id);
  return it != jobs_.end() ? it->second.get() : nullptr;
}

EndpointId CrossBroker::site_endpoint(SiteId id) const {
  return sites_.at(id)->gatekeeper().endpoint();
}

int CrossBroker::needed_cpus_per_site(const jdl::JobDescription& desc) const {
  // MPICH-P4 cannot span sites; MPICH-G2 subjobs need only one CPU each.
  if (desc.flavor() == jdl::JobFlavor::kMpichP4) return desc.node_number();
  return 1;
}

double CrossBroker::application_factor(const ManagedJob& job) const {
  if (job.record.description.is_interactive()) {
    return application_factor_interactive(job.record.description.performance_loss());
  }
  return application_factor_batch();
}

void CrossBroker::tracev(JobId job, obs::TraceEventKind kind, std::string detail,
                         obs::LabelSet attrs) {
  if (obs_ != nullptr) {
    obs_->tracer.record(sim_.now(), job, kind, std::move(detail),
                        std::move(attrs));
  }
}

void CrossBroker::count(const char* name, obs::LabelSet labels,
                        std::uint64_t by) {
  if (obs_ != nullptr) obs_->metrics.counter(name, std::move(labels)).inc(by);
}

void CrossBroker::observe(const char* name, double value, obs::LabelSet labels) {
  if (obs_ != nullptr) {
    obs_->metrics.histogram(name, std::move(labels)).observe(value);
  }
}

void CrossBroker::set_observability(obs::Observability* obs) {
  obs_ = obs;
  bus_.set_observability(obs);
  matchmaker_.set_metrics(obs != nullptr ? &obs->metrics : nullptr);
  site_health_.set_metrics(obs != nullptr ? &obs->metrics : nullptr);
  supervisor_.set_observability(obs);
  // Re-bind every pre-resolved handle against the new registry (or drop them
  // all: default-constructed handles are inert no-ops).
  metrics_ = BrokerMetrics{};
  if (obs == nullptr) return;
  obs::MetricsRegistry& m = obs->metrics;
  metrics_.invalidations_republish = m.counter_handle(
      "broker.match.cache_invalidations", obs::LabelSet{{"reason", "republish"}});
  metrics_.invalidations_unregister = m.counter_handle(
      "broker.match.cache_invalidations", obs::LabelSet{{"reason", "unregister"}});
  metrics_.queue_depth = m.gauge_handle("broker.queue_depth");
  metrics_.leases_acquired = m.counter_handle("broker.leases_acquired");
  metrics_.lease_revocations = m.counter_handle("broker.lease_revocations");
  for (std::size_t i = 0; i < metrics_.match_latency.size(); ++i) {
    metrics_.match_latency[i] = m.histogram_handle(
        "broker.match_latency_s",
        obs::LabelSet{
            {"placement", to_string(static_cast<PlacementKind>(i))}});
  }
}

namespace {
obs::TraceEventKind trace_kind_for(JobState state) {
  switch (state) {
    case JobState::kSubmitted: return obs::TraceEventKind::kSubmitted;
    case JobState::kDiscovery: return obs::TraceEventKind::kDiscovery;
    case JobState::kSelection: return obs::TraceEventKind::kSelection;
    case JobState::kDispatching: return obs::TraceEventKind::kDispatched;
    case JobState::kQueuedBroker: return obs::TraceEventKind::kQueuedBroker;
    case JobState::kRunning: return obs::TraceEventKind::kRunning;
    case JobState::kCompleted: return obs::TraceEventKind::kCompleted;
    case JobState::kFailed: return obs::TraceEventKind::kFailed;
    case JobState::kRejected: return obs::TraceEventKind::kRejected;
  }
  return obs::TraceEventKind::kInfo;
}
}  // namespace

void CrossBroker::set_state(ManagedJob& job, JobState state) {
  if (job.record.state == state) return;
  job.record.state = state;
  // A finished job selects no more sites; its match program goes with it.
  if (is_terminal(state)) job.compiled_match.reset();
  tracev(job.record.id, trace_kind_for(state), to_string(state));
  metrics_.queue_depth.set(static_cast<double>(waiting_batch_.size()));
  if (job.callbacks.on_state_change) job.callbacks.on_state_change(job.record);
}

// ----------------------------------------------------------- scheduling ----

void CrossBroker::schedule_job(JobId id) {
  ManagedJob* job = find_job(id);
  if (job == nullptr || is_terminal(job->record.state)) return;

  // GSI pre-flight: a user without a valid proxy never reaches the grid
  // (the UI refuses submission; here, the job fails immediately).
  const Status security = check_user_security(job->record.user);
  if (!security.ok()) {
    fail_job(id, security.error());
    return;
  }

  const auto& desc = job->record.description;
  // Shared-mode interactive jobs first look at the broker's own VM registry:
  // "the first two steps are not required ... because the information about
  // existing VMs is kept locally by CrossBroker" (Section 6.1).
  if (desc.is_interactive() &&
      desc.machine_access() == jdl::MachineAccess::kShared &&
      vms_cover(desc)) {
    sim_.schedule(config_.vm_lookup_cost,
                  [this, id] { dispatch_interactive_on_vms(id); });
    return;
  }
  // No (sufficient) free VMs: search for idle machines and submit agent +
  // application together.
  begin_discovery(id);
}

void CrossBroker::begin_discovery(JobId id) {
  ManagedJob* job = find_job(id);
  if (job == nullptr || is_terminal(job->record.state)) return;
  set_state(*job, JobState::kDiscovery);
  // The index replies with the published records whose published free CPUs
  // cover the job; leases and site health are applied at selection.
  infosys_.query_index_matching(
      needed_cpus_per_site(job->record.description),
      [this, id](
          std::shared_ptr<const infosys::InformationSystem::IndexSnapshot>
              records) {
        ManagedJob* j = find_job(id);
        if (j == nullptr || is_terminal(j->record.state)) return;
        j->record.timestamps.discovery_done = sim_.now();
        begin_selection(id, std::move(records));
      });
}

void CrossBroker::begin_selection(
    JobId id,
    std::shared_ptr<const infosys::InformationSystem::IndexSnapshot> stale) {
  ManagedJob* job = find_job(id);
  if (job == nullptr || is_terminal(job->record.state)) return;
  set_state(*job, JobState::kSelection);

  // First filter on the (possibly stale) index data, excluding sites the job
  // already failed on. Screen by raw pointer: the shared snapshot (held
  // alive by `stale` for the duration of this call) is the owner, so no
  // shared_ptr refcount traffic per considered record.
  const int needed = needed_cpus_per_site(job->record.description);
  std::vector<const infosys::SiteRecord*> considered;
  considered.reserve(stale->size());
  for (const auto& r : *stale) {
    const SiteId sid = r->static_info.id;
    if (std::find(job->excluded_sites.begin(), job->excluded_sites.end(), sid) !=
        job->excluded_sites.end()) {
      continue;
    }
    if (sites_.contains(sid)) considered.push_back(r.get());
  }
  if (job->compiled_match == nullptr) {
    job->compiled_match = matchmaker_.compile(job->record.description);
  }
  // Coarse pass on the (possibly stale) records: only the surviving site
  // ids matter here — rank is deferred to the fresh data below.
  continue_selection(
      id, matchmaker_.filter_sites(*job->compiled_match,
                                   CandidateSource{considered}, leases_,
                                   needed));
}

void CrossBroker::continue_selection(JobId id, std::vector<SiteId> coarse) {
  ManagedJob* job = find_job(id);
  if (job == nullptr || is_terminal(job->record.state)) return;
  if (coarse.empty()) {
    job->record.timestamps.selection_done = sim_.now();
    handle_no_resources(id);
    return;
  }

  // "Information may not be completely accurate and, therefore, CrossBroker
  // contacts each remote site individually and gets the most updated
  // information" (Section 6.1). Queries run concurrently; selection ends
  // when the slowest site answers.
  auto fresh = std::make_shared<std::vector<infosys::SiteRecord>>();
  auto remaining = std::make_shared<std::size_t>(coarse.size());
  for (const SiteId site : coarse) {
    infosys_.query_site(site,
                        [this, id, fresh, remaining](
                            std::optional<infosys::SiteRecord> record) {
      if (record) fresh->push_back(std::move(*record));
      if (--*remaining > 0) return;
      ManagedJob* j = find_job(id);
      if (j == nullptr || is_terminal(j->record.state)) return;
      j->record.timestamps.selection_done = sim_.now();
      place_job(id, matchmaker_.filter_compiled(
                        *j->compiled_match, *fresh, leases_,
                        needed_cpus_per_site(j->record.description)));
    });
  }
}

// ------------------------------------------------------------- placement ----

void CrossBroker::place_job(JobId id, std::vector<Candidate> candidates) {
  ManagedJob* job = find_job(id);
  if (job == nullptr || is_terminal(job->record.state)) return;
  const auto& desc = job->record.description;
  const int processes = desc.node_number();

  // Build per-process assignments. Each names its subjob up front: a VM
  // reservation holds the subjob's ref.
  struct Assignment {
    SiteId site;
    enum class Kind { kIdle, kNewAgentInteractive, kNewAgentBatch, kVm } kind;
    AgentId vm_agent;  ///< for kVm
    SubJobId sub;
  };
  std::vector<Assignment> assignments;

  const bool interactive = desc.is_interactive();
  const bool shared = interactive &&
                      desc.machine_access() == jdl::MachineAccess::kShared;

  // Shared mode may combine existing free VMs with fresh agents on idle
  // machines ("it is possible to have a combination of machines with and
  // without agents for executing a parallel interactive application").
  // MPICH-P4 cannot span sites: it uses VMs only if ONE site's reservable
  // slots cover the whole job, and otherwise falls through to idle machines.
  int still_needed = processes;
  const std::optional<SiteId> p4_site =
      shared && desc.flavor() == jdl::JobFlavor::kMpichP4
          ? vm_site_covering(processes)
          : std::nullopt;
  // With a multiprogramming degree above 1, one agent can host several
  // subjobs at once; take as many reservable slots as still needed. Each
  // reservation holds the slot against concurrent placements in this event
  // cascade. Agents are visited in ascending id order: MPICH-P4 walks only
  // its site's list, every other flavour the whole table.
  const auto reserve_on = [&](AgentRecord& rec) {
    if (site_health_.hard_excluded(rec.site())) return;
    for (int slots = rec.reservable_slots(); slots > 0 && still_needed > 0;
         --slots, --still_needed) {
      assignments.push_back(Assignment{rec.site(), Assignment::Kind::kVm,
                                       rec.id(), subjob_ids_.next()});
      rec.pending_interactive.push_back(SubJobRef{id, assignments.back().sub});
    }
  };
  if (shared && p4_site) {
    for (AgentRecord* rec : agents_.at_site(*p4_site)) {
      if (still_needed == 0) break;
      reserve_on(*rec);
    }
  } else if (shared && desc.flavor() != jdl::JobFlavor::kMpichP4) {
    for (auto& [agent_id, rec] : agents_) {
      if (still_needed == 0) break;
      reserve_on(rec);
    }
  }
  // Undoes the VM reservations above. It runs before any idle-machine
  // assignment is added, so every assignment it sees is a VM.
  const auto release_vms = [this, id, &assignments] {
    for (const auto& a : assignments) {
      agents_.record(a.vm_agent)->drop_reservation(SubJobRef{id, a.sub});
    }
  };

  if (still_needed > 0) {
    mpijob::AllocationPlan sequential_plan;
    Expected<mpijob::AllocationPlan> plan{sequential_plan};
    if (desc.flavor() == jdl::JobFlavor::kSequential) {
      // Sequential placement honours the job's Rank expression and the
      // randomized tie-breaking policy via the matchmaker.
      if (const auto site = matchmaker_.select(candidates, rng_)) {
        sequential_plan.placements.push_back(mpijob::SubJobPlacement{*site, 1});
        plan = sequential_plan;
      } else {
        plan = make_error("mpijob.no_resources", "no site has a free CPU");
      }
    } else {
      std::vector<mpijob::SiteCapacity> capacity;
      capacity.reserve(candidates.size());
      for (const auto& c : candidates) {
        capacity.push_back(mpijob::SiteCapacity{c.site, c.effective_free_cpus});
      }
      // Parallel co-allocation; randomized site ordering unless disabled.
      Rng* plan_rng = config_.matchmaker.randomize_ties ? &rng_ : nullptr;
      plan = mpijob::plan_allocation(desc.flavor(), still_needed,
                                     std::move(capacity), plan_rng);
    }
    if (!plan) {
      // No machines for the remainder.
      release_vms();
      handle_no_resources(id);
      return;
    }
    // Exclusive temporal access: lease the matched CPUs so concurrent
    // submissions see them as taken until this dispatch resolves. A conflict
    // (another submission won the race for the same CPUs) rolls the match
    // back and routes through the no-resources path with a typed reason.
    if (config_.enable_match_leases) {
      for (const auto& placement : plan->placements) {
        Expected<LeaseId> lease = leases_.acquire(
            placement.site, placement.processes, kMatchLeaseTtl,
            sites_.at(placement.site)->config().worker_nodes);
        if (!lease) {
          job->record.last_error = lease.error();
          tracev(id, obs::TraceEventKind::kLeaseRevoked, lease.error().message,
                 obs::LabelSet{{"site", std::to_string(placement.site.value())}});
          count("broker.lease_conflicts",
                obs::LabelSet{{"site", std::to_string(placement.site.value())}});
          release_vms();
          handle_no_resources(id);
          return;
        }
        job->held_leases.push_back(*lease);
        tracev(id, obs::TraceEventKind::kLeaseAcquired,
               std::to_string(placement.processes) + " cpus at site " +
                   std::to_string(placement.site.value()),
               obs::LabelSet{{"site", std::to_string(placement.site.value())}});
        metrics_.leases_acquired.inc();
      }
    }
    for (const auto& placement : plan->placements) {
      for (int i = 0; i < placement.processes; ++i) {
        Assignment::Kind kind = Assignment::Kind::kIdle;
        if (!interactive) {
          kind = Assignment::Kind::kNewAgentBatch;
        } else if (shared) {
          kind = Assignment::Kind::kNewAgentInteractive;
        }
        assignments.push_back(Assignment{placement.site, kind, AgentId::none(),
                                         subjob_ids_.next()});
      }
    }
  }

  // Materialize subjob records and dispatch.
  set_state(*job, JobState::kDispatching);
  job->record.timestamps.dispatched = sim_.now();
  job->record.subjobs.clear();
  job->record.subjobs.reserve(assignments.size());
  for (std::size_t i = 0; i < assignments.size(); ++i) {
    SubJobRecord sub;
    sub.id = assignments[i].sub;
    sub.rank = static_cast<int>(i);
    sub.site = assignments[i].site;
    sub.lrms_job_id = job_ids_.next();
    if (assignments[i].kind == Assignment::Kind::kVm) {
      sub.agent = assignments[i].vm_agent;
    }
    job->record.subjobs.push_back(sub);
  }
  switch (desc.category()) {
    case jdl::JobCategory::kBatch:
      job->record.placement = PlacementKind::kNewAgent;
      break;
    case jdl::JobCategory::kInteractive:
      if (!shared) {
        job->record.placement = PlacementKind::kIdleMachine;
      } else if (still_needed == 0) {
        job->record.placement = PlacementKind::kInteractiveVm;
      } else {
        job->record.placement = PlacementKind::kNewAgent;
      }
      break;
  }

  setup_barrier_coordination(*job);
  // Match latency: submission to the end of resource selection, labelled by
  // how the job was placed (Table 1's scheduling-overhead breakdown).
  metrics_
      .match_latency[static_cast<std::size_t>(job->record.placement)]
      .observe((job->record.timestamps.selection_done.value_or(sim_.now()) -
                job->record.timestamps.submitted)
                   .to_seconds());
  for (const auto& sub : job->record.subjobs) {
    tracev(id, obs::TraceEventKind::kMatched,
           "rank " + std::to_string(sub.rank) + " -> site " +
               std::to_string(sub.site.value()),
           obs::LabelSet{{"site", std::to_string(sub.site.value())},
                         {"rank", std::to_string(sub.rank)},
                         {"placement", to_string(job->record.placement)}});
  }
  for (const Assignment& a : assignments) {
    const SubJobRef ref{id, a.sub};
    switch (a.kind) {
      case Assignment::Kind::kVm: {
        glidein::GlideinAgent* agent = agents_.find(a.vm_agent);
        if (agent == nullptr) {
          fail_job(id, make_error("broker.vm_gone", "reserved VM disappeared"));
          return;
        }
        dispatch_subjob_to_vm(ref, *agent);
        break;
      }
      case Assignment::Kind::kIdle:
        dispatch_subjob_exclusive(ref, a.site);
        break;
      case Assignment::Kind::kNewAgentInteractive:
        dispatch_subjob_with_new_agent(ref, a.site, true);
        break;
      case Assignment::Kind::kNewAgentBatch:
        dispatch_subjob_with_new_agent(ref, a.site, false);
        break;
    }
  }
}

void CrossBroker::setup_barrier_coordination(ManagedJob& job) {
  job.barrier_coordinator.reset();
  if (job.record.subjobs.size() < 2) return;
  if (job.record.workload.barrier_count() == 0) return;
  const JobId id = job.record.id;
  job.barrier_coordinator = std::make_unique<mpijob::RuntimeBarrierCoordinator>(
      static_cast<int>(job.record.subjobs.size()), [this, id](int) {
        ManagedJob* j = find_job(id);
        if (j == nullptr) return;
        // Release every rank wherever it runs (VM slot or bare node).
        for (const auto& sub : j->record.subjobs) {
          if (sub.agent) {
            glidein::GlideinAgent* agent = agents_.find(*sub.agent);
            if (agent != nullptr) agent->release_barrier(sub.lrms_job_id);
          } else {
            sites_.at(sub.site)->scheduler().release_barrier(sub.lrms_job_id);
          }
        }
      });
}

lrms::TaskRunner::BarrierFn CrossBroker::barrier_handler_for(SubJobRef ref) {
  return [this, ref](int barrier_index) {
    const SubJobRecord* sub = current_subjob(ref);
    if (sub == nullptr) return;
    ManagedJob* job = find_job(ref.job);
    if (job->barrier_coordinator) {
      job->barrier_coordinator->arrived(sub->rank, barrier_index);
    }
  };
}

int CrossBroker::reservable_vms(std::optional<SiteId> site) const {
  int n = 0;
  if (site) {
    if (site_health_.hard_excluded(*site)) return 0;
    for (const AgentRecord* rec : agents_.at_site(*site)) {
      n += rec->reservable_slots();
    }
    return n;
  }
  for (const auto& [agent_id, rec] : agents_) {
    if (site_health_.hard_excluded(rec.site())) continue;
    n += rec.reservable_slots();
  }
  return n;
}

std::optional<SiteId> CrossBroker::vm_site_covering(int n) const {
  for (const auto& [site_id, site] : sites_) {
    if (reservable_vms(site_id) >= n) return site_id;
  }
  return std::nullopt;
}

bool CrossBroker::vms_cover(const jdl::JobDescription& desc) const {
  if (desc.flavor() == jdl::JobFlavor::kMpichP4) {
    return vm_site_covering(desc.node_number()).has_value();
  }
  return reservable_vms(std::nullopt) >= desc.node_number();
}

void CrossBroker::dispatch_interactive_on_vms(JobId id) {
  ManagedJob* job = find_job(id);
  if (job == nullptr || is_terminal(job->record.state)) return;
  // A concurrent placement may have taken the VMs during the lookup: the job
  // then looks for idle machines, as it would have without agents.
  if (!vms_cover(job->record.description)) {
    begin_discovery(id);
    return;
  }
  // Combined discovery+selection happened locally against the VM registry.
  job->record.timestamps.discovery_done = sim_.now();
  job->record.timestamps.selection_done = sim_.now();
  place_job(id, {});  // no external candidates needed: VMs cover the job
}

void CrossBroker::handle_no_resources(JobId id) {
  ManagedJob* job = find_job(id);
  if (job == nullptr || is_terminal(job->record.state)) return;
  release_leases(*job);

  // Fair-share rejection under contention (Section 5.1): users whose
  // priority has degraded past the threshold do not get to queue or retry.
  if (config_.reject_priority_threshold > 0.0 &&
      fair_share_.priority(job->record.user) > config_.reject_priority_threshold) {
    reject_job(id, make_error("broker.fair_share",
                              "user priority exceeds rejection threshold"));
    return;
  }

  if (job->record.description.is_interactive()) {
    // "If there are not enough machines (with or without agents) to execute
    // an interactive application, its submission will fail." A lease conflict
    // keeps its typed reason so callers can distinguish losing the race from
    // an empty grid.
    Error reason = make_error("broker.no_resources",
                              "no machines available for interactive job");
    if (job->record.last_error &&
        job->record.last_error->code == "broker.lease_conflict") {
      reason = *job->record.last_error;
    }
    fail_job(id, reason);
    return;
  }
  // Batch jobs wait inside the broker for a machine to become idle. Site
  // exclusions are tactical — they steer the *immediate* resubmission away
  // from a site that just failed the job — not a permanent ban: once the job
  // has to wait anyway they are stale knowledge, and keeping them can leave
  // every site excluded so no poll could ever match (a livelock after
  // repeated evictions on a small grid).
  job->excluded_sites.clear();
  // Queued before the state change, which writes the queue-depth gauge.
  if (std::find(waiting_batch_.begin(), waiting_batch_.end(), id) ==
      waiting_batch_.end()) {
    waiting_batch_.push_back(id);
  }
  set_state(*job, JobState::kQueuedBroker);
  if (!queue_poll_armed_) {
    queue_poll_armed_ = true;
    sim_.schedule(config_.broker_queue_poll, [this] { poll_broker_queue(); });
  }
}

void CrossBroker::poll_broker_queue() {
  queue_poll_armed_ = false;
  if (waiting_batch_.empty()) return;
  // Serve the best-priority users first (unless configured as plain FIFO).
  std::vector<JobId> batch{waiting_batch_.begin(), waiting_batch_.end()};
  waiting_batch_.clear();
  if (config_.fair_share_queue_ordering) {
    std::stable_sort(batch.begin(), batch.end(), [this](JobId a, JobId b) {
      const ManagedJob* ja = find_job(a);
      const ManagedJob* jb = find_job(b);
      const double pa = ja ? fair_share_.priority(ja->record.user) : 0.0;
      const double pb = jb ? fair_share_.priority(jb->record.user) : 0.0;
      return pa < pb;
    });
  }
  for (const JobId id : batch) {
    ManagedJob* job = find_job(id);
    if (job == nullptr || is_terminal(job->record.state)) continue;
    begin_discovery(id);
  }
  if (!waiting_batch_.empty() && !queue_poll_armed_) {
    queue_poll_armed_ = true;
    sim_.schedule(config_.broker_queue_poll, [this] { poll_broker_queue(); });
  }
}

// -------------------------------------------------------------- dispatch ----

void CrossBroker::dispatch_subjob_to_vm(SubJobRef ref,
                                        glidein::GlideinAgent& agent) {
  SubJobRecord* sub = current_subjob(ref);
  if (sub == nullptr) return;
  sub->agent = agent.id();

  // Direct broker -> agent channel (no Globus, no LRMS), then stage the
  // executable from the submitter, then spawn on the interactive-vm
  // (handle_agent_message).
  net::SendOptions options;
  options.channel_latency = config_.agent_channel_latency;
  options.payload_bytes = config_.executable_bytes;
  options.transfer_src =
      bus_.endpoint(find_job(ref.job)->record.submitter_endpoint);
  bus_.send(endpoint_, site_endpoint(agent.site()),
            net::DispatchJob{sub->lrms_job_id, sub->rank, ref.job, ref.sub,
                             agent.id()},
            options);
}

void CrossBroker::start_job_on_agent(SubJobRef ref, AgentRecord& rec,
                                     bool interactive_slot) {
  const SubJobRecord* sub = current_subjob(ref);
  if (sub == nullptr || !rec.reserved(ref, interactive_slot)) return;
  const ManagedJob& job = *find_job(ref.job);
  glidein::GlideinAgent* agent = rec.agent.get();
  const AgentId agent_id = rec.id();
  const EndpointId site = site_endpoint(rec.site());

  // GSI delegation: the agent acts on the user's behalf, so the broker
  // issues a further-restricted proxy from the user's credentials. An
  // expired user proxy fails the job here — the paper-era behaviour of a
  // grid job dying when its proxy runs out.
  if (trust_anchor_ != nullptr) {
    const auto cred_it = user_credentials_.find(job.record.user);
    if (cred_it == user_credentials_.end()) {
      fail_job(ref.job, make_error("gsi.no_credentials",
                                   "user has no registered credentials"));
      return;
    }
    auto delegated = gsi::delegate_proxy(cred_it->second.back(), sim_.now(),
                                         Duration::seconds(12 * 3600),
                                         config_.seed ^ ref.job.value());
    if (!delegated) {
      fail_job(ref.job, delegated.error());
      return;
    }
  }

  glidein::SlotJob slot_job;
  slot_job.id = sub->lrms_job_id;
  slot_job.owner = job.record.user;
  slot_job.workload = job.record.workload;
  slot_job.phase_observer = job.callbacks.phase_observer;
  if (job.barrier_coordinator) slot_job.barrier_handler = barrier_handler_for(ref);
  // The slot's upcalls report to the broker endpoint (handle_job_status).
  slot_job.on_start = [this, site,
                       started = net::JobStatus{ref.job, net::StatusPhase::kStarted,
                                                ref.sub, agent_id,
                                                interactive_slot}] {
    bus_.send(site, endpoint_, started);
  };
  slot_job.on_complete = [this, site,
                          completed = net::JobStatus{
                              ref.job, net::StatusPhase::kCompleted, ref.sub,
                              agent_id, interactive_slot}] {
    bus_.send(site, endpoint_, completed);
  };

  Status status = Status::ok_status();
  if (interactive_slot) {
    const int pl = job.record.description.performance_loss();
    status = agent->start_interactive_job(std::move(slot_job), pl);
    if (status.ok()) {
      rec.interactive_residents.push_back(ref);
      // Demote the co-resident batch job in the fair-share books: its user
      // is charged only PL/100 while yielding the machine (the strongest
      // concession among residents governs).
      if (rec.batch_resident) {
        const int governing_pl =
            std::max(pl, agent->max_running_performance_loss());
        fair_share_.set_application_factor(
            rec.batch_resident->job,
            application_factor_yielding_batch(governing_pl));
        count("glidein.batch_demotions",
              obs::LabelSet{{"site", std::to_string(rec.site().value())}});
        observe("glidein.performance_loss_applied",
                static_cast<double>(governing_pl),
                obs::LabelSet{{"site", std::to_string(rec.site().value())}});
      }
    }
  } else {
    status = agent->start_batch_job(std::move(slot_job));
    if (status.ok()) rec.batch_resident = ref;
  }
  if (!status.ok()) {
    // The reservation stays on the agent until it is suspected: freeing the
    // slot now would let the retry land on the same refusing agent.
    log_warn(kLog, "slot start failed for ", ref.job, ": ",
             status.error().to_string());
    resubmit_job(ref.job);
    return;
  }
  rec.drop_reservation(ref);
}

void CrossBroker::dispatch_subjob_exclusive(SubJobRef ref, SiteId site_id) {
  const SubJobRecord* sub = current_subjob(ref);
  if (sub == nullptr) return;
  const ManagedJob& job = *find_job(ref.job);

  lrms::GridJobRequest request;
  request.job.id = sub->lrms_job_id;
  request.job.owner = job.record.user;
  request.proxy_chain = chain_for(job.record.user);
  request.job.workload = job.record.workload;
  request.stage_bytes = config_.executable_bytes;
  request.submitter_endpoint = job.record.submitter_endpoint;
  request.job.phase_observer = job.callbacks.phase_observer;
  if (job.barrier_coordinator) {
    request.job.barrier_handler = barrier_handler_for(ref);
  }
  // The LRMS upcalls report to the broker endpoint (handle_job_status).
  const EndpointId site = site_endpoint(site_id);
  const net::JobStatus started{ref.job, net::StatusPhase::kStarted, ref.sub};
  const net::JobStatus completed{ref.job, net::StatusPhase::kCompleted,
                                 ref.sub};
  request.job.on_start = [this, site, started](NodeId) {
    bus_.send(site, endpoint_, started);
  };
  request.job.on_complete = [this, site, completed] {
    bus_.send(site, endpoint_, completed);
  };

  // A superseded attempt commits nothing, and its acks change nothing.
  request.on_prepared = [this, ref, site_id](Status prepared) {
    if (current_subjob(ref) == nullptr) return false;
    if (!prepared.ok()) {
      find_job(ref.job)->excluded_sites.push_back(site_id);
      resubmit_job(ref.job);
      return false;
    }
    return true;
  };
  request.on_committed = [this, ref, site_id](Status accepted) {
    if (current_subjob(ref) == nullptr) return;
    ManagedJob& j = *find_job(ref.job);
    if (!accepted.ok()) {
      j.excluded_sites.push_back(site_id);
      resubmit_job(ref.job);
      return;
    }
    // On-line scheduling: an interactive job must start immediately; if
    // it landed in the queue, cancel and resubmit elsewhere.
    if (j.record.description.is_interactive() && j.record.subjobs.size() == 1) {
      arm_queue_detection(ref, site_id);
    }
  };
  submit_two_phase(site_id, std::move(request));
}

void CrossBroker::submit_two_phase(SiteId site_id, lrms::GridJobRequest request) {
  // Prepare detects error conditions (full site, auth failure) before any
  // state is moved. The gatekeeper holds the one copy of the request; both
  // legs ride the bus as SubmitJob messages naming its LRMS id.
  lrms::Gatekeeper& gatekeeper = sites_.at(site_id)->gatekeeper();
  const EndpointId site = gatekeeper.endpoint();
  const JobId lrms_id = request.job.id;
  request.on_prepared = [this, site, lrms_id,
                         accept = std::move(request.on_prepared)](Status prepared) {
    if (!accept(std::move(prepared))) return false;
    bus_.send(endpoint_, site,
              net::SubmitJob{lrms_id, net::SubmitPhase::kCommit});
    return true;
  };
  gatekeeper.file(std::move(request));
  bus_.send(endpoint_, site,
            net::SubmitJob{lrms_id, net::SubmitPhase::kPrepare});
}

void CrossBroker::arm_queue_detection(SubJobRef ref, SiteId site_id) {
  ManagedJob* job = find_job(ref.job);
  if (job->queue_timer_armed) return;
  job->queue_timer_armed = true;
  sim_.schedule(kQueueDetectTimeout, [this, ref, site_id] {
    find_job(ref.job)->queue_timer_armed = false;
    const SubJobRecord* sub = current_subjob(ref);
    if (sub == nullptr || sub->started) return;  // superseded, or it did start
    bus_.send(endpoint_, site_endpoint(site_id),
              net::CancelJob{sub->lrms_job_id, /*queued_only=*/true});
    log_info(kLog, ref.job, " was queued at site ", site_id.value(),
             "; resubmitting (on-line scheduling)");
    find_job(ref.job)->excluded_sites.push_back(site_id);
    resubmit_job(ref.job);
  });
}

void CrossBroker::dispatch_subjob_with_new_agent(SubJobRef ref, SiteId site_id,
                                                 bool interactive_slot) {
  SubJobRecord* sub = current_subjob(ref);
  if (sub == nullptr) return;

  // The agent's AgentRegister starts the subjob (handle_agent_register); a
  // refused carrier resubmits it elsewhere (create_agent_with_carrier).
  AgentRecord& rec = create_agent_with_carrier(site_id);
  rec.deployed_for = ref;
  if (interactive_slot) {
    rec.pending_interactive.push_back(ref);
  } else {
    rec.pending_batch = ref;
  }
  sub->agent = rec.id();
}

// -------------------------------------------------------------- glide-in ----

AgentRecord& CrossBroker::create_agent_with_carrier(SiteId site_id) {
  lrms::Site* site = sites_.at(site_id);
  AgentRecord& rec = agents_.create(site_id, config_.glidein);
  glidein::GlideinAgent& agent = *rec.agent;
  const AgentId agent_id = agent.id();
  const JobId carrier = job_ids_.next();
  agent.set_carrier_job_id(carrier);
  tracev(JobId::none(), obs::TraceEventKind::kAgentDeployed,
         "agent " + std::to_string(agent_id.value()) + " -> site " +
             std::to_string(site_id.value()),
         obs::LabelSet{{"site", std::to_string(site_id.value())}});
  count("broker.agents_deployed",
        obs::LabelSet{{"site", std::to_string(site_id.value())}});
  if (obs_ != nullptr) {
    agent.set_metrics(&obs_->metrics,
                      obs::LabelSet{{"site", std::to_string(site_id.value())}});
  }

  // Registration rides the bus: when the agent reaches kRunning it announces
  // itself with an AgentRegister message, whose delivery starts supervision
  // and the subjob it was deployed for (handle_agent_register). The observer
  // only needs the death path.
  agent.connect_control_plane(&bus_, site->gatekeeper().endpoint(), endpoint_,
                              config_.agent_channel_latency);
  agent.set_state_observer([this, agent_id](glidein::AgentState state) {
    if (state == glidein::AgentState::kDead) {
      handle_agent_death(agent_id);
    }
  });

  lrms::GridJobRequest request;
  request.job.id = carrier;
  request.job.owner = UserId{};  // the broker itself, not billed to any user
  if (trust_anchor_ != nullptr && !broker_credentials_.empty()) {
    request.proxy_chain = gsi::make_chain(broker_credentials_);
  }
  request.job.workload = lrms::Workload::manual();
  request.stage_bytes = config_.glidein.binary_bytes + config_.executable_bytes;
  request.submitter_endpoint = endpoint();
  request.job.on_start = [this, agent_id](NodeId node) {
    glidein::GlideinAgent* a = agents_.find(agent_id);
    if (a != nullptr) a->on_carrier_started(node);
  };
  request.job.on_complete = [this, agent_id] {
    // Manual finish: the agent left the machine voluntarily.
    agents_.remove(agent_id);
  };

  // Either leg may refuse the carrier, which then never reaches the LRMS:
  // the agent leaves the table, then the subjob it was deployed for, if its
  // attempt is current, is resubmitted elsewhere.
  auto refused = [this, agent_id] {
    const AgentRecord* refused_rec = agents_.record(agent_id);
    if (refused_rec == nullptr) return;
    const std::optional<SubJobRef> deployed_for = refused_rec->deployed_for;
    const SiteId refused_site = refused_rec->site();
    agents_.remove(agent_id);
    if (!deployed_for) {
      log_warn(kLog, "preloaded agent submission failed");
    } else if (current_subjob(*deployed_for) != nullptr) {
      find_job(deployed_for->job)->excluded_sites.push_back(refused_site);
      resubmit_job(deployed_for->job);
    }
  };
  request.on_prepared = [refused](Status prepared) {
    if (!prepared.ok()) refused();
    return prepared.ok();
  };
  request.on_committed = [refused = std::move(refused)](Status accepted) {
    if (!accepted.ok()) refused();
  };
  submit_two_phase(site_id, std::move(request));
  return rec;
}

void CrossBroker::maybe_dismiss_agent(AgentId agent_id) {
  if (!config_.dismiss_idle_agents) return;
  const AgentRecord* rec = agents_.record(agent_id);
  if (rec == nullptr || !rec->ran_any_job) return;
  if (!rec->pending_interactive.empty() || rec->pending_batch) return;
  if (rec->agent->batch_vm_busy() || rec->agent->interactive_vm_busy()) return;
  // Completing the manual carrier job frees the worker node; the carrier's
  // on_complete removes the agent from the registry.
  sites_.at(rec->site())->scheduler().finish_manual(rec->carrier_job());
}

bool CrossBroker::agent_suspected(AgentId id) const {
  const AgentRecord* rec = agents_.record(id);
  return rec != nullptr && rec->suspected;
}

int CrossBroker::advertised_interactive_vms(SiteId site) {
  // What the site publishes as FreeInteractiveVMs: reservations are the
  // broker's own business and are not subtracted.
  int n = 0;
  for (const AgentRecord* rec : agents_.at_site(site)) {
    if (!rec->suspected) n += rec->agent->free_interactive_slots();
  }
  return n;
}

// -------------------------------------------------- supervision decisions ----

void CrossBroker::on_suspected(AgentRecord& rec) {
  // Revoke the exclusive-temporal-access matches of subjobs still waiting to
  // start on this agent: their leases are released inside resubmit_job and
  // the suspected agent is excluded from the fresh placement. A reservation
  // of a superseded attempt (left by a start the agent refused; the job may
  // be running elsewhere by now) only kept the slot blocked, and is dropped
  // without touching the job.
  const AgentId agent_id = rec.id();
  const SiteId site = rec.site();
  std::vector<SubJobRef> revoked = rec.pending_interactive;
  if (rec.pending_batch) revoked.push_back(*rec.pending_batch);
  rec.pending_interactive.clear();
  rec.pending_batch.reset();
  for (const SubJobRef ref : revoked) {
    const SubJobRecord* sub = current_subjob(ref);
    if (sub == nullptr || sub->started) continue;
    tracev(ref.job, obs::TraceEventKind::kLeaseRevoked,
           "reserved agent " + std::to_string(agent_id.value()) +
               " missed heartbeats",
           obs::LabelSet{{"site", std::to_string(site.value())}});
    metrics_.lease_revocations.inc();
    resubmit_job(ref.job);
  }
  // Running residents keep executing: their work is local to the node, and
  // if the agent really died the carrier-kill path takes over on arrival.
}

void CrossBroker::on_restored(AgentRecord& rec) {
  // Residents may have been evicted while the agent was suspected, leaving
  // it idle: now that it is reachable again the usual idle-dismissal applies,
  // or its worker node would stay occupied by an empty carrier forever.
  maybe_dismiss_agent(rec.id());
}

void CrossBroker::on_grace_expired(AgentRecord& rec) {
  const AgentId agent_id = rec.id();
  const SiteId site = rec.site();
  // Time out every running resident: the agent has been suspected for the
  // whole grace window, so its residents are treated as orphaned.
  std::vector<std::pair<SubJobRef, bool>> victims;  // (resident, interactive)
  for (const SubJobRef resident : rec.interactive_residents) {
    victims.emplace_back(resident, true);
  }
  if (rec.batch_resident) victims.emplace_back(*rec.batch_resident, false);
  rec.interactive_residents.clear();
  rec.batch_resident.reset();
  if (!victims.empty()) rec.ran_any_job = true;
  for (const auto& [ref, interactive] : victims) {
    const JobId job_id = ref.job;
    ManagedJob* job = find_job(job_id);
    // Best-effort local kill: behind a real partition the command may never
    // arrive, but the broker stops accounting for the resident either way.
    const EndpointId site_dst = site_endpoint(site);
    const SubJobRecord* victim = current_subjob(ref);
    if (interactive) {
      for (const auto& sub : job->record.subjobs) {
        if (sub.agent == agent_id) {
          bus_.send(endpoint_, site_dst,
                    net::EvictNotice{job_id, agent_id, sub.lrms_job_id,
                                     /*interactive_slot=*/true});
        }
      }
    } else {
      bus_.send(endpoint_, site_dst,
                net::EvictNotice{job_id, agent_id,
                                 victim != nullptr ? victim->lrms_job_id
                                                   : JobId::none(),
                                 /*interactive_slot=*/false});
    }
    if (victim == nullptr) continue;
    // The strongest health evidence: a running resident lost to a
    // partition. The resulting score pushes the site past the exclusion
    // threshold so the resubmitted job's replacement agent avoids it.
    site_health_.note_eviction(site);
    tracev(job_id, obs::TraceEventKind::kJobEvicted,
           "agent " + std::to_string(agent_id.value()) +
               " suspected past running_job_grace",
           obs::LabelSet{{"reason", "partition"},
                         {"agent", std::to_string(agent_id.value())},
                         {"site", std::to_string(site.value())}});
    count("broker.jobs_evicted", obs::LabelSet{{"reason", "partition"}});
    // Subjobs on other agents cannot be rewound from here; resubmit_job then
    // reports the partial failure. The single-agent job — the normal
    // interactive case — is rewound and rescheduled from scratch.
    if (std::ranges::all_of(job->record.subjobs, [agent_id](const auto& sub) {
          return sub.completed || sub.agent == agent_id;
        })) {
      restart_job(job_id);
    } else {
      resubmit_job(job_id);
    }
  }
}

void CrossBroker::handle_agent_death(AgentId agent_id) {
  AgentRecord* rec = agents_.record(agent_id);
  if (rec == nullptr) return;
  // This runs inside the agent's own state observer: the moved-out record
  // keeps the agent alive until the death path returns.
  const AgentRecord dead = std::move(*rec);
  agents_.remove(agent_id);
  const SiteId site = dead.site();
  log_warn(kLog, "agent ", agent_id.value(), " died on site ", site.value());
  tracev(JobId::none(), obs::TraceEventKind::kAgentDied,
         "agent " + std::to_string(agent_id.value()),
         obs::LabelSet{{"site", std::to_string(site.value())}});
  count("broker.agent_deaths",
        obs::LabelSet{{"site", std::to_string(site.value())}});

  // Resident and in-flight subjobs of current attempts died with the agent.
  // Batch jobs are resubmitted "when possible"; interactive jobs fail loudly
  // (their user is attached to the console and must act).
  const auto recover = [this](std::optional<SubJobRef> lost, bool interactive) {
    if (!lost || current_subjob(*lost) == nullptr) return;
    if (interactive && !config_.resubmit_interactive_on_agent_death) {
      fail_job(lost->job,
               make_error("broker.agent_died", "glide-in agent was killed"));
    } else {
      restart_job(lost->job);
    }
  };
  recover(dead.batch_resident, false);
  recover(dead.pending_batch, false);
  for (const SubJobRef resident : dead.interactive_residents) {
    recover(resident, true);
  }
  for (const SubJobRef pending : dead.pending_interactive) recover(pending, true);
}

void CrossBroker::on_site_job_killed(SiteId site_id, JobId job_id, NodeId) {
  // An agent carrier? A carrier runs at its agent's site.
  for (AgentRecord* rec : agents_.at_site(site_id)) {
    if (rec->carrier_job() == job_id) {
      // The state observer runs handle_agent_death, which edits the list
      // this loop walks: stop here.
      rec->agent->on_carrier_killed();
      return;
    }
  }
  // A directly-placed job (exclusive interactive or plain batch).
  for (auto& [id, job] : jobs_) {
    for (auto& sub : job->record.subjobs) {
      if (sub.lrms_job_id == job_id && !sub.completed) {
        log_warn(kLog, "job ", id, " killed at site ", site_id.value());
        // Multi-subjob jobs with survivors count as partial failures inside
        // resubmit_job.
        if (job->record.subjobs.size() == 1) {
          restart_job(id);
        } else {
          resubmit_job(id);
        }
        return;
      }
    }
  }
}

// -------------------------------------------------------------- lifecycle ----

SubJobRecord* CrossBroker::current_subjob(SubJobRef ref) {
  ManagedJob* job = find_job(ref.job);
  if (job == nullptr || is_terminal(job->record.state)) return nullptr;
  for (SubJobRecord& sub : job->record.subjobs) {
    if (sub.id == ref.sub) return &sub;
  }
  return nullptr;
}

void CrossBroker::subjob_started(SubJobRef ref) {
  SubJobRecord* sub = current_subjob(ref);
  if (sub == nullptr || sub->started) return;
  sub->started = true;
  const JobId id = ref.job;
  ManagedJob* job = find_job(id);
  tracev(id, obs::TraceEventKind::kStarted,
         "rank " + std::to_string(sub->rank) + " at site " +
             std::to_string(sub->site.value()),
         obs::LabelSet{{"site", std::to_string(sub->site.value())},
                       {"rank", std::to_string(sub->rank)}});

  // MPICH-G2 startup barrier: the job runs once every subjob has started.
  if (std::ranges::all_of(job->record.subjobs, &SubJobRecord::started)) {
    release_leases(*job);
    set_state(*job, JobState::kRunning);
    job->record.timestamps.running = sim_.now();
    observe("broker.time_to_running_s",
            (sim_.now() - job->record.timestamps.submitted).to_seconds(),
            obs::LabelSet{{"placement", to_string(job->record.placement)},
                          {"type", std::string{jdl::to_string(
                               job->record.description.category())}}});
    observe("broker.dispatch_latency_s",
            (sim_.now() -
             job->record.timestamps.dispatched.value_or(sim_.now()))
                .to_seconds(),
            obs::LabelSet{{"placement", to_string(job->record.placement)}});
    fair_share_.job_started(job->record.user, id, application_factor(*job),
                            static_cast<int>(job->record.subjobs.size()));
    if (job->callbacks.on_running) job->callbacks.on_running(job->record);
  }
}

void CrossBroker::subjob_completed(SubJobRef ref) {
  SubJobRecord* sub = current_subjob(ref);
  if (sub == nullptr || sub->completed) return;
  sub->completed = true;
  if (std::ranges::all_of(find_job(ref.job)->record.subjobs,
                          &SubJobRecord::completed)) {
    complete_job(ref.job);
  }
}

void CrossBroker::complete_job(JobId id) {
  ManagedJob* job = find_job(id);
  if (job == nullptr || is_terminal(job->record.state)) return;

  // Stage the OutputSandbox back to the submitter before declaring the job
  // done (the reverse of the input staging the gatekeeper performed).
  const auto& outputs = job->record.description.output_sandbox();
  if (!outputs.empty() && !job->staging_out) {
    job->staging_out = true;
    const std::size_t bytes = outputs.size() * kOutputFileBytes;
    net::SendOptions options;
    options.payload_bytes = bytes;
    // Its arrival at the submitter's endpoint completes the job
    // (handle_bus_message).
    bus_.send(site_endpoint(*job->record.site()),
              bus_.endpoint(job->record.submitter_endpoint),
              net::StageSandbox{id, bytes, /*inbound=*/false}, options);
    return;
  }

  release_leases(*job);
  fair_share_.job_finished(id);
  job->record.timestamps.completed = sim_.now();
  // A clean completion is health evidence for every site that ran a subjob
  // (rewards are gated below the exclusion threshold; see SiteHealth).
  {
    std::vector<SiteId> rewarded;
    for (const auto& sub : job->record.subjobs) {
      if (std::find(rewarded.begin(), rewarded.end(), sub.site) !=
          rewarded.end()) {
        continue;
      }
      rewarded.push_back(sub.site);
      site_health_.note_completion(sub.site);
    }
  }
  count("broker.jobs_completed",
        obs::LabelSet{{"type", std::string{jdl::to_string(
                           job->record.description.category())}}});
  set_state(*job, JobState::kCompleted);
  if (job->callbacks.on_complete) job->callbacks.on_complete(job->record);
}

void CrossBroker::fail_job(JobId id, Error error) {
  ManagedJob* job = find_job(id);
  if (job == nullptr || is_terminal(job->record.state)) return;
  release_leases(*job);
  fair_share_.job_finished(id);
  job->record.last_error = error;
  count("broker.jobs_failed", obs::LabelSet{{"code", error.code}});
  set_state(*job, JobState::kFailed);
  log_warn(kLog, id, " failed: ", error.to_string());
  if (job->callbacks.on_failed) job->callbacks.on_failed(job->record, error);
}

void CrossBroker::reject_job(JobId id, Error error) {
  ManagedJob* job = find_job(id);
  if (job == nullptr || is_terminal(job->record.state)) return;
  release_leases(*job);
  job->record.last_error = error;
  count("broker.jobs_rejected", obs::LabelSet{{"code", error.code}});
  set_state(*job, JobState::kRejected);
  log_info(kLog, id, " rejected: ", error.to_string());
  if (job->callbacks.on_failed) job->callbacks.on_failed(job->record, error);
}

void CrossBroker::resubmit_job(JobId id, bool rewound) {
  ManagedJob* job = find_job(id);
  if (job == nullptr || is_terminal(job->record.state)) return;
  release_leases(*job);
  if (!rewound &&
      std::ranges::any_of(job->record.subjobs, &SubJobRecord::started)) {
    // Partial starts cannot be rewound safely; report failure.
    fail_job(id, make_error("broker.partial_failure",
                            "a subjob failed after others had started"));
    return;
  }
  const int budget =
      job->record.description.retry_count().value_or(config_.max_resubmissions);
  if (job->record.resubmissions >= budget) {
    fail_job(id, make_error("broker.retries_exhausted",
                            "job failed after " +
                                std::to_string(job->record.resubmissions) +
                                " resubmissions"));
    return;
  }
  ++job->record.resubmissions;
  // Bounded exponential backoff: attempt n waits base * 2^(n-1), capped.
  Duration backoff = kResubmitBackoffBase;
  for (int i = 1; i < job->record.resubmissions && backoff < kResubmitBackoffMax;
       ++i) {
    backoff = backoff + backoff;
  }
  backoff = std::min(backoff, kResubmitBackoffMax);
  tracev(id, obs::TraceEventKind::kResubmitted,
         "attempt " + std::to_string(job->record.resubmissions),
         obs::LabelSet{
             {"attempt", std::to_string(job->record.resubmissions)},
             {"backoff_ms", std::to_string(backoff.count_micros() / 1000)}});
  count("broker.resubmissions");
  observe("broker.resubmit_backoff_s", backoff.to_seconds());
  job->record.subjobs.clear();
  sim_.schedule(backoff, [this, id] { schedule_job(id); });
}

void CrossBroker::restart_job(JobId id) {
  ManagedJob* job = find_job(id);
  if (job == nullptr || is_terminal(job->record.state)) return;
  fair_share_.job_finished(id);
  resubmit_job(id, /*rewound=*/true);
}

void CrossBroker::release_leases(ManagedJob& job) {
  for (const LeaseId lease : job.held_leases) leases_.release(lease);
  job.held_leases.clear();
}

}  // namespace cg::broker
