#include "broker/crossbroker.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "gsi/auth.hpp"
#include "lrms/site.hpp"
#include "mpijob/mpi_job.hpp"
#include "net/control_bus.hpp"
#include "util/log.hpp"

namespace cg::broker {

namespace {
constexpr const char* kLog = "broker";

/// Control-plane exchanges that today happen as direct calls: zero-latency
/// sends delivered synchronously so the event schedule (and the pinned chaos
/// goldens) is unchanged, while the exchange still flows through the bus for
/// sequencing, fault injection, and per-type observability.
net::SendOptions inline_send() {
  net::SendOptions options;
  options.inline_when_immediate = true;
  return options;
}
}  // namespace

CrossBroker::CrossBroker(sim::Simulation& sim, net::ControlBus& bus,
                         infosys::InformationSystem& infosys,
                         CrossBrokerConfig config, std::string endpoint)
    : sim_{sim},
      bus_{bus},
      infosys_{infosys},
      config_{config},
      endpoint_{std::move(endpoint)},
      rng_{config.seed},
      matchmaker_{config.matchmaker},
      leases_{sim},
      fair_share_{sim, config.fair_share},
      agents_{sim},
      site_health_{sim, config.site_health} {
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
  if (config_.enable_agent_heartbeats) {
    sim_.schedule_daemon(config_.agent_heartbeat_interval,
                         [this] { heartbeat_tick(); });
  }
  if (config_.enable_liveness_probes) {
    sim_.schedule_daemon(config_.liveness_probe_interval,
                         [this] { liveness_tick(); });
  }
}

CrossBroker::~CrossBroker() {
  // The bus and information system outlive the broker; drop the callbacks
  // that capture `this`.
  bus_.unbind(endpoint_);
  infosys_.set_invalidation_listener(nullptr);
}

void CrossBroker::handle_bus_message(const net::Envelope& envelope) {
  if (const auto* reg = std::get_if<net::AgentRegister>(&envelope.payload)) {
    handle_agent_register(reg->agent);
  } else if (const auto* echo = std::get_if<net::LivenessEcho>(&envelope.payload)) {
    on_liveness_echo(echo->agent, echo->seq);
  }
  // Every other type is outbound-only from the broker's perspective.
}

void CrossBroker::handle_agent_register(AgentId agent_id) {
  auto it = agent_info_.find(agent_id);
  if (it == agent_info_.end()) return;
  AgentInfo& info = it->second;
  info.supervised = true;
  if (info.on_ready) {
    auto ready = std::move(info.on_ready);
    info.on_ready = nullptr;
    ready(info);
  }
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

  // Terminal-ize first: every in-flight callback (kill observers, commit
  // acks, agent readiness) checks the state and becomes a no-op.
  release_leases(*job);
  fair_share_.job_finished(id);
  job->record.last_error = make_error("broker.cancelled", "cancelled by user");
  job->record.state = JobState::kFailed;

  // Out of the broker's own queue.
  waiting_batch_.erase(
      std::remove(waiting_batch_.begin(), waiting_batch_.end(), id),
      waiting_batch_.end());

  // Tear down every subjob wherever it is.
  for (auto& sub : job->record.subjobs) {
    if (sub.completed) continue;
    bool handled = false;
    if (sub.agent) {
      const auto info_it = agent_info_.find(*sub.agent);
      glidein::GlideinAgent* agent = agents_.find(*sub.agent);
      if (info_it != agent_info_.end() && agent != nullptr) {
        AgentInfo& info = info_it->second;
        lrms::Site* agent_site = find_site(info.site);
        const std::string site_dst =
            agent_site != nullptr ? agent_site->endpoint() : std::string{};
        const AgentId agent_id = *sub.agent;
        const JobId lrms_id = sub.lrms_job_id;
        std::erase(info.pending_interactive, id);
        if (info.pending_batch == id) info.pending_batch.reset();
        if (std::find(info.interactive_residents.begin(),
                      info.interactive_residents.end(),
                      id) != info.interactive_residents.end()) {
          bus_.send(endpoint_, site_dst, net::KillJob{lrms_id}, inline_send(),
                    [this, agent_id, lrms_id](const net::Envelope&) {
                      if (auto* a = agents_.find(agent_id)) {
                        a->cancel_interactive_job(lrms_id);
                      }
                    });
          std::erase(info.interactive_residents, id);
          // The batch job gets its machine (and application factor) back
          // once the last interactive resident is gone.
          if (info.batch_resident && info.interactive_residents.empty()) {
            fair_share_.set_application_factor(*info.batch_resident,
                                               application_factor_batch());
          }
          handled = true;
        }
        if (info.batch_resident == id) {
          bus_.send(endpoint_, site_dst, net::KillJob{lrms_id}, inline_send(),
                    [this, agent_id](const net::Envelope&) {
                      if (auto* a = agents_.find(agent_id)) {
                        a->cancel_slot(glidein::SlotType::kBatch);
                      }
                    });
          info.batch_resident.reset();
          handled = true;
        }
        info.ran_any_job = true;  // the slot was used; allow dismissal
        maybe_dismiss_agent(*sub.agent);
      }
    }
    if (!handled) {
      // Direct placement: remove from the site's queue or kill on the node.
      lrms::Site* site = find_site(sub.site);
      if (site != nullptr) {
        const SiteId site_id = sub.site;
        const JobId lrms_id = sub.lrms_job_id;
        bus_.send(endpoint_, site->endpoint(),
                  net::CancelJob{lrms_id, /*queued_only=*/false}, inline_send(),
                  [this, site_id, lrms_id](const net::Envelope&) {
                    if (lrms::Site* s = find_site(site_id)) {
                      s->gatekeeper().cancel(lrms_id, /*queued_only=*/false);
                    }
                  });
      }
    }
  }

  if (job->callbacks.on_state_change) job->callbacks.on_state_change(job->record);
  if (job->callbacks.on_failed) {
    job->callbacks.on_failed(job->record, *job->record.last_error);
  }
  return true;
}

void CrossBroker::preload_agent(SiteId site) {
  if (!sites_.contains(site)) throw std::invalid_argument{"preload_agent: unknown site"};
  create_agent_with_carrier(
      site, [](AgentInfo&) {},
      [] { log_warn(kLog, "preloaded agent submission failed"); });
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

lrms::Site* CrossBroker::find_site(SiteId id) {
  const auto it = sites_.find(id);
  return it != sites_.end() ? it->second : nullptr;
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
  metrics_.liveness_probes = m.counter_handle("broker.liveness_probes");
  for (std::size_t i = 0; i < metrics_.match_latency.size(); ++i) {
    metrics_.match_latency[i] = m.histogram_handle(
        "broker.match_latency_s",
        obs::LabelSet{
            {"placement", to_string(static_cast<PlacementKind>(i))}});
  }
}

obs::CounterHandle& CrossBroker::per_site_counter(
    std::map<SiteId, obs::CounterHandle>& cache, const char* name, SiteId site) {
  const auto it = cache.find(site);
  if (it != cache.end()) return it->second;
  obs::CounterHandle handle;
  if (obs_ != nullptr) {
    handle = obs_->metrics.counter_handle(
        name, obs::LabelSet{{"site", std::to_string(site.value())}});
  }
  return cache.emplace(site, std::move(handle)).first->second;
}

namespace {
obs::TraceEventKind trace_kind_for(JobState state) {
  switch (state) {
    case JobState::kSubmitted: return obs::TraceEventKind::kSubmitted;
    case JobState::kDiscovery: return obs::TraceEventKind::kDiscovery;
    case JobState::kSelection: return obs::TraceEventKind::kSelection;
    case JobState::kDispatching: return obs::TraceEventKind::kDispatched;
    case JobState::kQueuedLocal: return obs::TraceEventKind::kQueuedLocal;
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
      desc.machine_access() == jdl::MachineAccess::kShared) {
    int free_vms = 0;
    for (auto* agent : agents_.agents()) {
      // Hard-excluded sites offer no VMs either: shared-mode placement
      // follows the same suspicion window as external matchmaking.
      if (site_health_.hard_excluded(agent->site())) continue;
      const auto info = agent_info_.find(agent->id());
      if (info == agent_info_.end()) continue;
      free_vms += info->second.reservable_slots(*agent);
    }
    if (free_vms >= desc.node_number() &&
        desc.flavor() != jdl::JobFlavor::kMpichP4) {
      sim_.schedule(config_.vm_lookup_cost, [this, id] {
        dispatch_interactive_on_vms(id);
      });
      return;
    }
    if (desc.flavor() == jdl::JobFlavor::kMpichP4) {
      // Check per-site VM availability for the single-site constraint.
      for (const auto& [site_id, site] : sites_) {
        if (site_health_.hard_excluded(site_id)) continue;
        int site_vms = 0;
        for (auto* agent : agents_.agents()) {
          if (agent->site() != site_id) continue;
          const auto info = agent_info_.find(agent->id());
          if (info == agent_info_.end()) continue;
          site_vms += info->second.reservable_slots(*agent);
        }
        if (site_vms >= desc.node_number()) {
          sim_.schedule(config_.vm_lookup_cost, [this, id] {
            dispatch_interactive_on_vms(id);
          });
          return;
        }
      }
    }
    // Fall through: no (sufficient) free VMs — search for idle machines and
    // submit agent + application together.
  }
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
      const int cpus = needed_cpus_per_site(j->record.description);
      const auto& d = j->record.description;
      const bool shared_interactive =
          d.is_interactive() && d.machine_access() == jdl::MachineAccess::kShared;
      if (!shared_interactive && d.flavor() == jdl::JobFlavor::kSequential) {
        // Sequential, no VM placement possible in place_job: fuse
        // filter+select in one streaming pass. Shared-mode jobs keep the
        // two-step form because place_job may cover them with interactive
        // VMs without ever consulting the candidates (and without consuming
        // the tie-breaking rng).
        place_job(id, {},
                  matchmaker_.match_one(*j->compiled_match,
                                        CandidateSource{*fresh}, leases_, cpus,
                                        rng_));
        return;
      }
      place_job(id, matchmaker_.filter_compiled(*j->compiled_match, *fresh,
                                                leases_, cpus));
    });
  }
}

// ------------------------------------------------------------- placement ----

void CrossBroker::place_job(JobId id, std::vector<Candidate> candidates,
                            std::optional<Candidate> preselected) {
  ManagedJob* job = find_job(id);
  if (job == nullptr || is_terminal(job->record.state)) return;
  const auto& desc = job->record.description;
  const int processes = desc.node_number();

  // Build per-process assignments.
  struct Assignment {
    SiteId site;
    enum class Kind { kIdle, kNewAgentInteractive, kNewAgentBatch, kVm } kind;
    AgentId vm_agent;  ///< for kVm
  };
  std::vector<Assignment> assignments;

  const bool interactive = desc.is_interactive();
  const bool shared = interactive &&
                      desc.machine_access() == jdl::MachineAccess::kShared;

  // Shared mode may combine existing free VMs with fresh agents on idle
  // machines ("it is possible to have a combination of machines with and
  // without agents for executing a parallel interactive application").
  int still_needed = processes;
  if (shared && desc.flavor() == jdl::JobFlavor::kMpichP4) {
    // MPICH-P4 cannot span sites: use VMs only if ONE site's reservable
    // slots cover the whole job; otherwise fall through to idle machines.
    for (const auto& [site_id, site] : sites_) {
      if (site_health_.hard_excluded(site_id)) continue;
      int takeable = 0;
      std::vector<std::pair<glidein::GlideinAgent*, AgentInfo*>> donors;
      for (auto* agent : agents_.agents()) {
        if (agent->site() != site_id) continue;
        const auto info = agent_info_.find(agent->id());
        if (info == agent_info_.end()) continue;
        const int slots = info->second.reservable_slots(*agent);
        if (slots > 0) {
          takeable += slots;
          donors.emplace_back(agent, &info->second);
        }
      }
      if (takeable < still_needed) continue;
      for (auto& [agent, info] : donors) {
        int slots = info->reservable_slots(*agent);
        while (slots > 0 && still_needed > 0) {
          assignments.push_back(
              Assignment{site_id, Assignment::Kind::kVm, agent->id()});
          info->pending_interactive.push_back(id);
          --slots;
          --still_needed;
        }
      }
      break;
    }
  }
  if (shared && desc.flavor() != jdl::JobFlavor::kMpichP4) {
    for (auto* agent : agents_.agents()) {
      if (still_needed == 0) break;
      if (site_health_.hard_excluded(agent->site())) continue;
      const auto info = agent_info_.find(agent->id());
      if (info == agent_info_.end()) continue;
      // With a multiprogramming degree above 1, one agent can host several
      // subjobs at once; take as many reservable slots as still needed.
      int takeable = info->second.reservable_slots(*agent);
      while (takeable > 0 && still_needed > 0) {
        assignments.push_back(
            Assignment{agent->site(), Assignment::Kind::kVm, agent->id()});
        // Reserve against concurrent placements in this event cascade.
        info->second.pending_interactive.push_back(id);
        --takeable;
        --still_needed;
      }
    }
  }

  if (still_needed > 0) {
    mpijob::AllocationPlan sequential_plan;
    Expected<mpijob::AllocationPlan> plan{sequential_plan};
    if (desc.flavor() == jdl::JobFlavor::kSequential) {
      // Sequential placement honours the job's Rank expression and the
      // randomized tie-breaking policy via the matchmaker. Outside shared
      // mode, continue_selection already fused that decision into
      // `preselected`.
      const auto site = preselected.has_value()
                            ? std::optional<SiteId>{preselected->site}
                            : matchmaker_.select(candidates, rng_);
      if (site) {
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
      // Roll back VM reservations; no machines for the remainder.
      for (const auto& a : assignments) {
        if (a.kind == Assignment::Kind::kVm) {
          const auto info = agent_info_.find(a.vm_agent);
          if (info != agent_info_.end()) {
            auto& pending = info->second.pending_interactive;
            const auto it = std::find(pending.begin(), pending.end(), id);
            if (it != pending.end()) pending.erase(it);
          }
        }
      }
      handle_no_resources(id);
      return;
    }
    // Exclusive temporal access: lease the matched CPUs so concurrent
    // submissions see them as taken until this dispatch resolves. A conflict
    // (another submission won the race for the same CPUs) rolls the match
    // back and routes through the no-resources path with a typed reason.
    if (config_.enable_match_leases) {
      for (const auto& placement : plan->placements) {
        lrms::Site* lease_site = find_site(placement.site);
        const int capacity =
            lease_site != nullptr ? lease_site->config().worker_nodes : -1;
        Expected<LeaseId> lease =
            leases_.acquire(placement.site, placement.processes,
                            config_.match_lease_ttl, capacity);
        if (!lease) {
          job->record.last_error = lease.error();
          tracev(id, obs::TraceEventKind::kLeaseRevoked, lease.error().message,
                 obs::LabelSet{{"site", std::to_string(placement.site.value())}});
          count("broker.lease_conflicts",
                obs::LabelSet{{"site", std::to_string(placement.site.value())}});
          for (const auto& a : assignments) {
            if (a.kind == Assignment::Kind::kVm) {
              const auto info = agent_info_.find(a.vm_agent);
              if (info != agent_info_.end()) {
                std::erase(info->second.pending_interactive, id);
              }
            }
          }
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
        assignments.push_back(Assignment{placement.site, kind, AgentId::none()});
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
    sub.id = subjob_ids_.next();
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
  for (std::size_t i = 0; i < assignments.size(); ++i) {
    switch (assignments[i].kind) {
      case Assignment::Kind::kVm: {
        glidein::GlideinAgent* agent = agents_.find(assignments[i].vm_agent);
        if (agent == nullptr) {
          fail_job(id, make_error("broker.vm_gone", "reserved VM disappeared"));
          return;
        }
        dispatch_subjob_to_vm(id, i, *agent);
        break;
      }
      case Assignment::Kind::kIdle:
        dispatch_subjob_exclusive(id, i, assignments[i].site);
        break;
      case Assignment::Kind::kNewAgentInteractive:
        dispatch_subjob_with_new_agent(id, i, assignments[i].site, true);
        break;
      case Assignment::Kind::kNewAgentBatch:
        dispatch_subjob_with_new_agent(id, i, assignments[i].site, false);
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
            lrms::Site* site = find_site(sub.site);
            if (site != nullptr) {
              site->scheduler().release_barrier(sub.lrms_job_id);
            }
          }
        }
      });
}

lrms::TaskRunner::BarrierFn CrossBroker::barrier_handler_for(JobId id, int rank) {
  return [this, id, rank](int barrier_index) {
    ManagedJob* job = find_job(id);
    if (job != nullptr && job->barrier_coordinator) {
      job->barrier_coordinator->arrived(rank, barrier_index);
    }
  };
}

void CrossBroker::dispatch_interactive_on_vms(JobId id) {
  ManagedJob* job = find_job(id);
  if (job == nullptr || is_terminal(job->record.state)) return;
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
  set_state(*job, JobState::kQueuedBroker);
  if (std::find(waiting_batch_.begin(), waiting_batch_.end(), id) ==
      waiting_batch_.end()) {
    waiting_batch_.push_back(id);
  }
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

void CrossBroker::dispatch_subjob_to_vm(JobId id, std::size_t subjob_index,
                                        glidein::GlideinAgent& agent) {
  ManagedJob* job = find_job(id);
  if (job == nullptr) return;
  job->record.subjobs[subjob_index].agent = agent.id();

  // Direct broker -> agent channel (no Globus, no LRMS), then stage the
  // executable from the submitter, then spawn on the interactive-vm.
  const SiteId site_id = agent.site();
  lrms::Site* site = find_site(site_id);
  if (site == nullptr) {
    fail_job(id, make_error("broker.no_site", "agent site unknown"));
    return;
  }
  const AgentId agent_id = agent.id();
  const SubJobId expected_sub = job->record.subjobs[subjob_index].id;
  net::SendOptions options;
  options.channel_latency = config_.agent_channel_latency;
  options.payload_bytes = config_.executable_bytes;
  options.transfer_src = job->record.submitter_endpoint;
  bus_.send(endpoint_, site->endpoint(),
            net::DispatchJob{job->record.subjobs[subjob_index].lrms_job_id,
                             job->record.subjobs[subjob_index].rank},
            options,
            [this, id, subjob_index, agent_id, expected_sub](const net::Envelope&) {
    ManagedJob* j = find_job(id);
    if (j == nullptr || is_terminal(j->record.state)) return;
    // Stale dispatch: the job was resubmitted (e.g. its lease was revoked
    // when the agent missed heartbeats) while this event was in flight.
    if (subjob_index >= j->record.subjobs.size() ||
        j->record.subjobs[subjob_index].id != expected_sub) {
      return;
    }
    glidein::GlideinAgent* a = agents_.find(agent_id);
    const auto info_it = agent_info_.find(agent_id);
    if (a == nullptr || info_it == agent_info_.end() ||
        a->state() != glidein::AgentState::kRunning) {
      // The agent died while we were dispatching; try again from scratch.
      resubmit_job(id);
      return;
    }
    start_job_on_agent(id, subjob_index, info_it->second, /*interactive_slot=*/true);
  });
}

void CrossBroker::start_job_on_agent(JobId id, std::size_t subjob_index,
                                     AgentInfo& info, bool interactive_slot) {
  ManagedJob* job = find_job(id);
  if (job == nullptr || is_terminal(job->record.state)) return;
  glidein::GlideinAgent* agent = agents_.find(info.id);
  if (agent == nullptr) {
    resubmit_job(id);
    return;
  }
  const AgentId agent_id = info.id;
  lrms::Site* agent_site = find_site(info.site);
  const std::string site_endpoint =
      agent_site != nullptr ? agent_site->endpoint() : std::string{};

  // GSI delegation: the agent acts on the user's behalf, so the broker
  // issues a further-restricted proxy from the user's credentials. An
  // expired user proxy fails the job here — the paper-era behaviour of a
  // grid job dying when its proxy runs out.
  if (trust_anchor_ != nullptr) {
    const auto cred_it = user_credentials_.find(job->record.user);
    if (cred_it == user_credentials_.end()) {
      fail_job(id, make_error("gsi.no_credentials",
                              "user has no registered credentials"));
      return;
    }
    auto delegated = gsi::delegate_proxy(cred_it->second.back(), sim_.now(),
                                         Duration::seconds(12 * 3600),
                                         config_.seed ^ id.value());
    if (!delegated) {
      fail_job(id, delegated.error());
      return;
    }
  }

  glidein::SlotJob slot_job;
  slot_job.id = job->record.subjobs[subjob_index].lrms_job_id;
  slot_job.owner = job->record.user;
  slot_job.workload = job->record.workload;
  slot_job.phase_observer = job->callbacks.phase_observer;
  if (job->barrier_coordinator) {
    slot_job.barrier_handler =
        barrier_handler_for(id, job->record.subjobs[subjob_index].rank);
  }
  slot_job.on_start = [this, id, subjob_index, site_endpoint] {
    bus_.send(site_endpoint, endpoint_,
              net::JobStatus{id, net::StatusPhase::kStarted}, inline_send(),
              [this, id, subjob_index](const net::Envelope&) {
                subjob_started(id, subjob_index);
              });
  };
  slot_job.on_complete = [this, id, subjob_index, agent_id, interactive_slot,
                          site_endpoint] {
    bus_.send(site_endpoint, endpoint_,
              net::JobStatus{id, net::StatusPhase::kCompleted}, inline_send(),
              [this, id, subjob_index, agent_id,
               interactive_slot](const net::Envelope&) {
      const auto it = agent_info_.find(agent_id);
      if (it != agent_info_.end()) {
        it->second.ran_any_job = true;
        if (interactive_slot) {
          auto& residents = it->second.interactive_residents;
          const auto res = std::find(residents.begin(), residents.end(), id);
          if (res != residents.end()) residents.erase(res);
          // The last interactive job finished: the batch job's original
          // priority (and application factor) are restored.
          if (it->second.batch_resident && residents.empty()) {
            fair_share_.set_application_factor(*it->second.batch_resident,
                                               application_factor_batch());
          }
        } else {
          it->second.batch_resident.reset();
        }
      }
      subjob_completed(id, subjob_index);
      maybe_dismiss_agent(agent_id);
    });
  };

  Status status = Status::ok_status();
  if (interactive_slot) {
    const int pl = job->record.description.performance_loss();
    status = agent->start_interactive_job(std::move(slot_job), pl);
    if (status.ok()) {
      info.interactive_residents.push_back(id);
      const auto pending_it = std::find(info.pending_interactive.begin(),
                                        info.pending_interactive.end(), id);
      if (pending_it != info.pending_interactive.end()) {
        info.pending_interactive.erase(pending_it);
      }
      // Demote the co-resident batch job in the fair-share books: its user
      // is charged only PL/100 while yielding the machine (the strongest
      // concession among residents governs).
      if (info.batch_resident) {
        const int governing_pl =
            std::max(pl, agent->max_running_performance_loss());
        fair_share_.set_application_factor(
            *info.batch_resident,
            application_factor_yielding_batch(governing_pl));
        count("glidein.batch_demotions",
              obs::LabelSet{{"site", std::to_string(info.site.value())}});
        observe("glidein.performance_loss_applied",
                static_cast<double>(governing_pl),
                obs::LabelSet{{"site", std::to_string(info.site.value())}});
      }
    }
  } else {
    status = agent->start_batch_job(std::move(slot_job));
    if (status.ok()) {
      info.batch_resident = id;
      info.pending_batch.reset();
    }
  }
  if (!status.ok()) {
    log_warn(kLog, "slot start failed for ", id, ": ", status.error().to_string());
    resubmit_job(id);
  }
}

void CrossBroker::dispatch_subjob_exclusive(JobId id, std::size_t subjob_index,
                                            SiteId site_id) {
  ManagedJob* job = find_job(id);
  if (job == nullptr) return;
  lrms::Site* site = find_site(site_id);
  if (site == nullptr) {
    fail_job(id, make_error("broker.no_site", "selected site unknown"));
    return;
  }

  lrms::GridJobRequest request;
  request.id = job->record.subjobs[subjob_index].lrms_job_id;
  request.owner = job->record.user;
  request.proxy_chain = chain_for(job->record.user);
  request.workload = job->record.workload;
  request.stage_bytes = config_.executable_bytes;
  request.submitter_endpoint = job->record.submitter_endpoint;
  request.phase_observer = job->callbacks.phase_observer;
  if (job->barrier_coordinator) {
    request.barrier_handler =
        barrier_handler_for(id, job->record.subjobs[subjob_index].rank);
  }
  const std::string site_endpoint = site->endpoint();
  request.on_start = [this, id, subjob_index, site_endpoint](NodeId) {
    bus_.send(site_endpoint, endpoint_,
              net::JobStatus{id, net::StatusPhase::kStarted}, inline_send(),
              [this, id, subjob_index](const net::Envelope&) {
                subjob_started(id, subjob_index);
              });
  };
  request.on_complete = [this, id, subjob_index, site_endpoint] {
    bus_.send(site_endpoint, endpoint_,
              net::JobStatus{id, net::StatusPhase::kCompleted}, inline_send(),
              [this, id, subjob_index](const net::Envelope&) {
                subjob_completed(id, subjob_index);
              });
  };

  // Two-phase commit: prepare detects error conditions (full site, auth
  // failure) before any state is moved. Both legs ride the bus as SubmitJob
  // messages (prepare, then commit).
  const JobId lrms_id = request.id;
  bus_.send(endpoint_, site_endpoint,
            net::SubmitJob{lrms_id, net::SubmitPhase::kPrepare}, inline_send(),
            [this, id, subjob_index, site_id,
             request = std::move(request)](const net::Envelope&) mutable {
    lrms::Site* prepare_site = find_site(site_id);
    if (prepare_site == nullptr) return;
    prepare_site->gatekeeper().prepare(request, [this, id, subjob_index, site_id,
                                                 request](Status prepared) mutable {
      ManagedJob* j = find_job(id);
      if (j == nullptr || is_terminal(j->record.state)) return;
      if (!prepared.ok()) {
        j->excluded_sites.push_back(site_id);
        resubmit_job(id);
        return;
      }
      lrms::Site* s = find_site(site_id);
      if (s == nullptr) return;
      bus_.send(endpoint_, s->endpoint(),
                net::SubmitJob{request.id, net::SubmitPhase::kCommit},
                inline_send(),
                [this, id, subjob_index, site_id,
                 request = std::move(request)](const net::Envelope&) mutable {
        lrms::Site* commit_site = find_site(site_id);
        if (commit_site == nullptr) return;
        commit_site->gatekeeper().commit(std::move(request),
                               [this, id, subjob_index, site_id](Status accepted) {
          ManagedJob* jj = find_job(id);
          if (jj == nullptr || is_terminal(jj->record.state)) return;
          if (!accepted.ok()) {
            jj->excluded_sites.push_back(site_id);
            resubmit_job(id);
            return;
          }
          // On-line scheduling: an interactive job must start immediately; if it
          // landed in the queue, cancel and resubmit elsewhere.
          if (jj->record.description.is_interactive() &&
              jj->record.subjobs.size() == 1) {
            arm_queue_detection(id, subjob_index, site_id);
          }
        });
      });
    });
  });
}

void CrossBroker::arm_queue_detection(JobId id, std::size_t subjob_index,
                                      SiteId site_id) {
  ManagedJob* job = find_job(id);
  if (job == nullptr || job->queue_timer_armed) return;
  job->queue_timer_armed = true;
  const SubJobId expected_sub = job->record.subjobs[subjob_index].id;
  sim_.schedule(config_.queue_detect_timeout,
                [this, id, subjob_index, site_id, expected_sub] {
    ManagedJob* j = find_job(id);
    if (j == nullptr || is_terminal(j->record.state)) return;
    j->queue_timer_armed = false;
    // Stale timer: the job was resubmitted while this event was pending.
    if (subjob_index >= j->record.subjobs.size() ||
        j->record.subjobs[subjob_index].id != expected_sub) {
      return;
    }
    if (j->record.subjobs[subjob_index].started) return;  // it did start
    lrms::Site* site = find_site(site_id);
    if (site != nullptr) {
      const JobId lrms_id = j->record.subjobs[subjob_index].lrms_job_id;
      bus_.send(endpoint_, site->endpoint(),
                net::CancelJob{lrms_id, /*queued_only=*/true}, inline_send(),
                [this, site_id, lrms_id](const net::Envelope&) {
                  if (lrms::Site* s = find_site(site_id)) {
                    s->gatekeeper().cancel(lrms_id, /*queued_only=*/true);
                  }
                });
    }
    log_info(kLog, id, " was queued at site ", site_id.value(),
             "; resubmitting (on-line scheduling)");
    j->excluded_sites.push_back(site_id);
    resubmit_job(id);
  });
}

void CrossBroker::dispatch_subjob_with_new_agent(JobId id, std::size_t subjob_index,
                                                 SiteId site_id,
                                                 bool interactive_slot) {
  ManagedJob* job = find_job(id);
  if (job == nullptr) return;

  AgentInfo& info = create_agent_with_carrier(
      site_id,
      [this, id, subjob_index, interactive_slot](AgentInfo& ready) {
        start_job_on_agent(id, subjob_index, ready, interactive_slot);
      },
      [this, id, site_id] {
        ManagedJob* j = find_job(id);
        if (j == nullptr || is_terminal(j->record.state)) return;
        j->excluded_sites.push_back(site_id);
        resubmit_job(id);
      });
  if (interactive_slot) {
    info.pending_interactive.push_back(id);
  } else {
    info.pending_batch = id;
  }
  job->record.subjobs[subjob_index].agent = info.id;
}

// -------------------------------------------------------------- glide-in ----

CrossBroker::AgentInfo& CrossBroker::create_agent_with_carrier(
    SiteId site_id, std::function<void(AgentInfo&)> on_ready,
    std::function<void()> on_carrier_failed) {
  lrms::Site* site = find_site(site_id);
  if (site == nullptr) throw std::invalid_argument{"create_agent: unknown site"};

  glidein::GlideinAgent& agent = agents_.create(site_id, config_.glidein);
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

  AgentInfo info;
  info.id = agent_id;
  info.site = site_id;
  info.carrier_job = carrier;
  info.on_ready = std::move(on_ready);
  auto [it, inserted] = agent_info_.emplace(agent_id, std::move(info));

  // Registration rides the bus: when the agent reaches kRunning it announces
  // itself with an AgentRegister message, whose delivery starts supervision
  // and fires on_ready (handle_agent_register). The observer only needs the
  // death path.
  agent.connect_control_plane(&bus_, site->endpoint(), endpoint_,
                              config_.agent_channel_latency);
  agent.set_state_observer([this, agent_id](glidein::AgentState state) {
    if (state == glidein::AgentState::kDead) {
      handle_agent_death(agent_id);
    }
  });

  lrms::GridJobRequest request;
  request.id = carrier;
  request.owner = UserId{};  // the broker itself, not billed to any user
  if (trust_anchor_ != nullptr && !broker_credentials_.empty()) {
    request.proxy_chain = gsi::make_chain(broker_credentials_);
  }
  request.workload = lrms::Workload::manual();
  request.stage_bytes = config_.glidein.binary_bytes + config_.executable_bytes;
  request.submitter_endpoint = endpoint_;
  request.on_start = [this, agent_id](NodeId node) {
    glidein::GlideinAgent* a = agents_.find(agent_id);
    if (a != nullptr) a->on_carrier_started(node);
  };
  request.on_complete = [this, agent_id] {
    // Manual finish: the agent left the machine voluntarily.
    const auto info_it = agent_info_.find(agent_id);
    if (info_it != agent_info_.end()) agent_info_.erase(info_it);
    agents_.remove(agent_id);
  };

  bus_.send(endpoint_, site->endpoint(),
            net::SubmitJob{carrier, net::SubmitPhase::kPrepare}, inline_send(),
            [this, site_id, request = std::move(request),
             on_carrier_failed =
                 std::move(on_carrier_failed)](const net::Envelope&) mutable {
    lrms::Site* prepare_site = find_site(site_id);
    if (prepare_site == nullptr) {
      on_carrier_failed();
      return;
    }
    prepare_site->gatekeeper().prepare(request, [this, site_id, request,
                                                 on_carrier_failed =
                                                     std::move(on_carrier_failed)](
                                                    Status prepared) mutable {
      if (!prepared.ok()) {
        on_carrier_failed();
        return;
      }
      lrms::Site* s = find_site(site_id);
      if (s == nullptr) {
        on_carrier_failed();
        return;
      }
      bus_.send(endpoint_, s->endpoint(),
                net::SubmitJob{request.id, net::SubmitPhase::kCommit},
                inline_send(),
                [this, site_id, request = std::move(request),
                 on_carrier_failed =
                     std::move(on_carrier_failed)](const net::Envelope&) mutable {
        lrms::Site* commit_site = find_site(site_id);
        if (commit_site == nullptr) {
          on_carrier_failed();
          return;
        }
        commit_site->gatekeeper().commit(
            std::move(request),
            [on_carrier_failed = std::move(on_carrier_failed)](Status accepted) {
              if (!accepted.ok()) on_carrier_failed();
            });
      });
    });
  });

  return it->second;
}

void CrossBroker::maybe_dismiss_agent(AgentId agent_id) {
  if (!config_.dismiss_idle_agents) return;
  const auto it = agent_info_.find(agent_id);
  if (it == agent_info_.end() || !it->second.ran_any_job) return;
  if (!it->second.pending_interactive.empty() || it->second.pending_batch) return;
  glidein::GlideinAgent* agent = agents_.find(agent_id);
  if (agent == nullptr) return;
  if (agent->batch_vm_busy() || agent->interactive_vm_busy()) return;
  lrms::Site* site = find_site(it->second.site);
  if (site == nullptr) return;
  // Completing the manual carrier job frees the worker node; the carrier's
  // on_complete removes the agent from the registry.
  site->scheduler().finish_manual(it->second.carrier_job);
}

bool CrossBroker::agent_suspected(AgentId id) const {
  const auto it = agent_info_.find(id);
  return it != agent_info_.end() && it->second.suspected;
}

int CrossBroker::advertised_interactive_vms(SiteId site) {
  int n = 0;
  for (glidein::GlideinAgent* agent : agents_.agents()) {
    if (agent->site() != site) continue;
    const auto it = agent_info_.find(agent->id());
    if (it != agent_info_.end() && it->second.suspected) continue;
    n += agent->free_interactive_slots();
  }
  return n;
}

// ---------------------------------------------------------- heartbeats ----

std::vector<AgentId> CrossBroker::supervised_agents() const {
  std::vector<AgentId> ids;
  for (const auto& [id, info] : agent_info_) {
    if (info.supervised) ids.push_back(id);
  }
  return ids;
}

void CrossBroker::heartbeat_tick() {
  for (const AgentId agent_id : supervised_agents()) {
    const auto it = agent_info_.find(agent_id);
    if (it == agent_info_.end()) continue;
    AgentInfo& info = it->second;
    glidein::GlideinAgent* agent = agents_.find(agent_id);
    if (agent == nullptr || agent->state() != glidein::AgentState::kRunning) {
      continue;
    }
    lrms::Site* site = find_site(info.site);
    if (site == nullptr) continue;
    // The probe travels the broker <-> site link; a partitioned link means a
    // missed heartbeat whether or not the agent is actually alive.
    const bool reachable =
        bus_.probe(endpoint_, site->endpoint(), net::Heartbeat{agent_id});
    if (reachable) {
      info.missed_heartbeats = 0;
      // A passing link heartbeat alone is not proof of life: a wedged agent
      // behind a healthy link stays suspected until its liveness echo
      // returns too.
      if (info.suspected && clear_of_suspicion(info)) restore_agent(agent_id);
    } else {
      ++info.missed_heartbeats;
      site_health_.note_heartbeat_miss(info.site);
      per_site_counter(metrics_.heartbeat_misses, "broker.heartbeat_misses",
                       info.site)
          .inc();
      tracev(JobId::none(), obs::TraceEventKind::kHeartbeatMiss,
             "agent " + std::to_string(agent_id.value()) + " missed probe " +
                 std::to_string(info.missed_heartbeats),
             obs::LabelSet{{"site", std::to_string(info.site.value())}});
      if (!info.suspected &&
          info.missed_heartbeats >= config_.agent_heartbeat_miss_limit) {
        suspect_agent(agent_id, "heartbeat");
      }
    }
  }
  sim_.schedule_daemon(config_.agent_heartbeat_interval,
                       [this] { heartbeat_tick(); });
}

void CrossBroker::liveness_tick() {
  for (const AgentId agent_id : supervised_agents()) {
    const auto it = agent_info_.find(agent_id);
    if (it == agent_info_.end()) continue;
    AgentInfo& info = it->second;
    glidein::GlideinAgent* agent = agents_.find(agent_id);
    if (agent == nullptr || agent->state() != glidein::AgentState::kRunning) {
      continue;
    }
    lrms::Site* site = find_site(info.site);
    if (site == nullptr) continue;
    if (info.probe_seq > info.echo_seq) {
      // The previous probe was never echoed: the agent's event loop is
      // stalled or the path is down. Either way the application-level
      // liveness contract failed, whatever the link heartbeat says.
      ++info.missed_echoes;
      site_health_.note_liveness_miss(info.site);
      per_site_counter(metrics_.liveness_misses, "broker.liveness_misses",
                       info.site)
          .inc();
      tracev(JobId::none(), obs::TraceEventKind::kLivenessMiss,
             "agent " + std::to_string(agent_id.value()) + " missed echo " +
                 std::to_string(info.missed_echoes) + " (probe " +
                 std::to_string(info.probe_seq) + ")",
             obs::LabelSet{{"site", std::to_string(info.site.value())}});
      if (!info.suspected &&
          info.missed_echoes >= config_.liveness_miss_limit) {
        suspect_agent(agent_id, "liveness");
      }
    }
    send_liveness_probe(agent_id, info, *site);
  }
  sim_.schedule_daemon(config_.liveness_probe_interval,
                       [this] { liveness_tick(); });
}

void CrossBroker::send_liveness_probe(AgentId agent_id, AgentInfo& info,
                                      const lrms::Site& site) {
  const std::uint64_t seq = ++info.probe_seq;
  metrics_.liveness_probes.inc();
  // The probe rides the direct broker <-> agent channel; on a partitioned
  // link it is simply lost and counted missing at the next tick. The echo
  // leg is the agent's (deliver_liveness_probe sends LivenessEcho back to
  // this broker's bus endpoint — a wedged or dead agent never answers).
  net::SendOptions options;
  options.channel_latency = config_.agent_channel_latency;
  options.drop_when_down = true;
  bus_.send(endpoint_, site.endpoint(), net::LivenessProbe{agent_id, seq},
            options, [this, agent_id, seq](const net::Envelope&) {
              glidein::GlideinAgent* agent = agents_.find(agent_id);
              if (agent != nullptr) agent->deliver_liveness_probe(seq);
            });
}

void CrossBroker::on_liveness_echo(AgentId agent_id, std::uint64_t seq) {
  const auto it = agent_info_.find(agent_id);
  if (it == agent_info_.end()) return;
  AgentInfo& info = it->second;
  if (seq > info.echo_seq) info.echo_seq = seq;
  info.missed_echoes = 0;
  if (info.suspected && clear_of_suspicion(info)) restore_agent(agent_id);
}

bool CrossBroker::clear_of_suspicion(const AgentInfo& info) const {
  const bool heartbeats_ok =
      !config_.enable_agent_heartbeats ||
      info.missed_heartbeats < config_.agent_heartbeat_miss_limit;
  const bool echoes_ok = !config_.enable_liveness_probes ||
                         info.missed_echoes < config_.liveness_miss_limit;
  return heartbeats_ok && echoes_ok;
}

void CrossBroker::suspect_agent(AgentId agent_id, const char* reason) {
  const auto it = agent_info_.find(agent_id);
  if (it == agent_info_.end() || it->second.suspected) return;
  AgentInfo& info = it->second;
  info.suspected = true;
  info.suspected_since = sim_.now();
  site_health_.note_suspected(info.site);
  const bool by_liveness = std::string_view{reason} == "liveness";
  const std::string cause =
      by_liveness ? std::to_string(info.missed_echoes) + " missed liveness echoes"
                  : std::to_string(info.missed_heartbeats) + " missed heartbeats";
  log_warn(kLog, "agent ", agent_id.value(), " suspected (", cause, ")");
  tracev(JobId::none(), obs::TraceEventKind::kAgentSuspected,
         "agent " + std::to_string(agent_id.value()) + " after " + cause,
         obs::LabelSet{{"site", std::to_string(info.site.value())},
                       {"reason", reason}});
  count("broker.agents_suspected", obs::LabelSet{{"reason", reason}});
  if (config_.running_job_grace > Duration::zero()) {
    const SimTime since = sim_.now();
    sim_.schedule(config_.running_job_grace, [this, agent_id, since] {
      evict_suspected_residents(agent_id, since);
    });
  }

  // Revoke the exclusive-temporal-access matches of jobs still waiting to
  // start on this agent: their leases are released inside resubmit_job and
  // the suspected agent is excluded from the fresh placement.
  std::vector<JobId> revoked = info.pending_interactive;
  if (info.pending_batch) revoked.push_back(*info.pending_batch);
  info.pending_interactive.clear();
  info.pending_batch.reset();
  for (const JobId id : revoked) {
    ManagedJob* job = find_job(id);
    if (job == nullptr || is_terminal(job->record.state)) continue;
    tracev(id, obs::TraceEventKind::kLeaseRevoked,
           "reserved agent " + std::to_string(agent_id.value()) +
               " missed heartbeats",
           obs::LabelSet{{"site", std::to_string(info.site.value())}});
    count("broker.lease_revocations");
    resubmit_job(id);
  }
  // Running residents keep executing: their work is local to the node, and
  // if the agent really died the carrier-kill path takes over on arrival.
}

void CrossBroker::restore_agent(AgentId agent_id) {
  const auto it = agent_info_.find(agent_id);
  if (it == agent_info_.end() || !it->second.suspected) return;
  it->second.suspected = false;
  it->second.missed_heartbeats = 0;
  it->second.missed_echoes = 0;
  it->second.suspected_since.reset();
  site_health_.note_restored(it->second.site);
  log_info(kLog, "agent ", agent_id.value(), " re-registered");
  tracev(JobId::none(), obs::TraceEventKind::kAgentRestored,
         "agent " + std::to_string(agent_id.value()) + " re-registered",
         obs::LabelSet{{"site", std::to_string(it->second.site.value())}});
  count("broker.agents_restored");
  // Residents may have been evicted while the agent was suspected, leaving
  // it idle: now that it is reachable again the usual idle-dismissal applies,
  // or its worker node would stay occupied by an empty carrier forever.
  maybe_dismiss_agent(agent_id);
}

void CrossBroker::evict_suspected_residents(AgentId agent_id,
                                            SimTime suspected_since) {
  const auto it = agent_info_.find(agent_id);
  if (it == agent_info_.end()) return;  // the agent died; the death path ran
  AgentInfo& info = it->second;
  if (!info.suspected || !info.suspected_since ||
      *info.suspected_since != suspected_since) {
    return;  // healed (or re-suspected anew) before the grace expired
  }
  glidein::GlideinAgent* agent = agents_.find(agent_id);
  // Time out every running resident: the agent has been suspected for the
  // whole grace window, so its residents are treated as orphaned.
  std::vector<std::pair<JobId, bool>> victims;  // (job, interactive slot)
  for (const JobId resident : info.interactive_residents) {
    victims.emplace_back(resident, true);
  }
  if (info.batch_resident) victims.emplace_back(*info.batch_resident, false);
  info.interactive_residents.clear();
  info.batch_resident.reset();
  if (!victims.empty()) info.ran_any_job = true;
  for (const auto& [job_id, interactive] : victims) {
    ManagedJob* job = find_job(job_id);
    // Best-effort local kill: behind a real partition the command may never
    // arrive, but the broker stops accounting for the resident either way.
    if (agent != nullptr && job != nullptr) {
      lrms::Site* agent_site = find_site(info.site);
      const std::string site_dst =
          agent_site != nullptr ? agent_site->endpoint() : std::string{};
      if (interactive) {
        for (const auto& sub : job->record.subjobs) {
          if (sub.agent == agent_id) {
            const JobId lrms_id = sub.lrms_job_id;
            bus_.send(endpoint_, site_dst, net::EvictNotice{job_id, agent_id},
                      inline_send(),
                      [this, agent_id, lrms_id](const net::Envelope&) {
                        if (auto* a = agents_.find(agent_id)) {
                          a->cancel_interactive_job(lrms_id);
                        }
                      });
          }
        }
      } else {
        bus_.send(endpoint_, site_dst, net::EvictNotice{job_id, agent_id},
                  inline_send(), [this, agent_id](const net::Envelope&) {
                    if (auto* a = agents_.find(agent_id)) {
                      a->cancel_slot(glidein::SlotType::kBatch);
                    }
                  });
      }
    }
    if (job == nullptr || is_terminal(job->record.state)) continue;
    // The strongest health evidence: a running resident lost to a
    // partition. The resulting score pushes the site past the exclusion
    // threshold so the resubmitted job's replacement agent avoids it.
    site_health_.note_eviction(info.site);
    tracev(job_id, obs::TraceEventKind::kJobEvicted,
           "agent " + std::to_string(agent_id.value()) +
               " suspected past running_job_grace",
           obs::LabelSet{{"reason", "partition"},
                         {"agent", std::to_string(agent_id.value())},
                         {"site", std::to_string(info.site.value())}});
    count("broker.jobs_evicted", obs::LabelSet{{"reason", "partition"}});
    // Subjobs on other agents cannot be rewound from here; resubmit_job then
    // reports the partial failure. The single-agent job — the normal
    // interactive case — is rewound and rescheduled from scratch.
    bool all_on_this_agent = true;
    for (const auto& sub : job->record.subjobs) {
      if (!sub.completed && sub.agent != agent_id) {
        all_on_this_agent = false;
        break;
      }
    }
    if (all_on_this_agent) {
      job->subjobs_running = 0;
      job->subjobs_completed = 0;
      fair_share_.job_finished(job_id);
    }
    resubmit_job(job_id);
  }
}

void CrossBroker::handle_agent_death(AgentId agent_id) {
  const auto it = agent_info_.find(agent_id);
  if (it == agent_info_.end()) return;
  const AgentInfo info = it->second;
  agent_info_.erase(it);
  agents_.remove(agent_id);
  log_warn(kLog, "agent ", agent_id.value(), " died on site ", info.site.value());
  tracev(JobId::none(), obs::TraceEventKind::kAgentDied,
         "agent " + std::to_string(agent_id.value()),
         obs::LabelSet{{"site", std::to_string(info.site.value())}});
  count("broker.agent_deaths",
        obs::LabelSet{{"site", std::to_string(info.site.value())}});

  // Resident and in-flight jobs died with the agent. Batch jobs are
  // resubmitted "when possible"; interactive jobs fail loudly (their user is
  // attached to the console and must act).
  const auto recover = [this](std::optional<JobId> maybe_job, bool interactive) {
    if (!maybe_job) return;
    ManagedJob* job = find_job(*maybe_job);
    if (job == nullptr || is_terminal(job->record.state)) return;
    if (interactive && !config_.resubmit_interactive_on_agent_death) {
      fail_job(*maybe_job,
               make_error("broker.agent_died", "glide-in agent was killed"));
    } else {
      // The resident job is dead, not merely partially started: rewind its
      // execution bookkeeping before resubmitting it from scratch.
      job->subjobs_running = 0;
      job->subjobs_completed = 0;
      fair_share_.job_finished(*maybe_job);
      resubmit_job(*maybe_job);
    }
  };
  recover(info.batch_resident, false);
  recover(info.pending_batch, false);
  for (const JobId resident : info.interactive_residents) recover(resident, true);
  for (const JobId pending : info.pending_interactive) recover(pending, true);
}

void CrossBroker::on_site_job_killed(SiteId site_id, JobId job_id, NodeId) {
  // An agent carrier?
  glidein::GlideinAgent* agent = agents_.find_by_carrier(job_id);
  if (agent != nullptr) {
    agent->on_carrier_killed();  // state observer triggers handle_agent_death
    return;
  }
  // A directly-placed job (exclusive interactive or plain batch).
  for (auto& [id, job] : jobs_) {
    for (auto& sub : job->record.subjobs) {
      if (sub.lrms_job_id == job_id && !sub.completed) {
        log_warn(kLog, "job ", id, " killed at site ", site_id.value());
        // The killed subjob no longer runs; rewind before resubmitting.
        // (Multi-subjob jobs with survivors still count as partial failures
        // inside resubmit_job.)
        if (job->record.subjobs.size() == 1) {
          job->subjobs_running = 0;
          job->subjobs_completed = 0;
          fair_share_.job_finished(id);
        }
        resubmit_job(id);
        return;
      }
    }
  }
}

// -------------------------------------------------------------- lifecycle ----

void CrossBroker::subjob_started(JobId id, std::size_t subjob_index) {
  ManagedJob* job = find_job(id);
  if (job == nullptr || is_terminal(job->record.state)) return;
  SubJobRecord& sub = job->record.subjobs[subjob_index];
  if (sub.started) return;
  sub.started = true;
  ++job->subjobs_running;
  tracev(id, obs::TraceEventKind::kStarted,
         "rank " + std::to_string(sub.rank) + " at site " +
             std::to_string(sub.site.value()),
         obs::LabelSet{{"site", std::to_string(sub.site.value())},
                       {"rank", std::to_string(sub.rank)}});

  // MPICH-G2 startup barrier: the job runs once every subjob has started.
  if (job->subjobs_running == static_cast<int>(job->record.subjobs.size())) {
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

void CrossBroker::subjob_completed(JobId id, std::size_t subjob_index) {
  ManagedJob* job = find_job(id);
  if (job == nullptr || is_terminal(job->record.state)) return;
  SubJobRecord& sub = job->record.subjobs[subjob_index];
  if (sub.completed) return;
  sub.completed = true;
  ++job->subjobs_completed;
  if (job->subjobs_completed == static_cast<int>(job->record.subjobs.size())) {
    complete_job(id);
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
    const std::optional<SiteId> site_id = job->record.site();
    lrms::Site* site = site_id ? find_site(*site_id) : nullptr;
    const std::size_t bytes =
        site != nullptr ? outputs.size() * config_.output_file_bytes : 0;
    net::SendOptions options;
    options.payload_bytes = bytes;
    bus_.send(site != nullptr ? site->endpoint() : job->record.submitter_endpoint,
              job->record.submitter_endpoint,
              net::StageSandbox{id, bytes, /*inbound=*/false}, options,
              [this, id](const net::Envelope&) { complete_job(id); });
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

void CrossBroker::resubmit_job(JobId id) {
  ManagedJob* job = find_job(id);
  if (job == nullptr || is_terminal(job->record.state)) return;
  release_leases(*job);
  if (job->subjobs_running > 0) {
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
  Duration backoff = Duration::zero();
  if (config_.resubmit_backoff_base > Duration::zero()) {
    backoff = config_.resubmit_backoff_base;
    for (int i = 1; i < job->record.resubmissions; ++i) {
      if (backoff >= config_.resubmit_backoff_max) break;
      backoff = backoff + backoff;
    }
    if (backoff > config_.resubmit_backoff_max) {
      backoff = config_.resubmit_backoff_max;
    }
  }
  tracev(id, obs::TraceEventKind::kResubmitted,
         "attempt " + std::to_string(job->record.resubmissions),
         obs::LabelSet{
             {"attempt", std::to_string(job->record.resubmissions)},
             {"backoff_ms", std::to_string(backoff.count_micros() / 1000)}});
  count("broker.resubmissions");
  observe("broker.resubmit_backoff_s", backoff.to_seconds());
  job->record.subjobs.clear();
  job->subjobs_running = 0;
  job->subjobs_completed = 0;
  sim_.schedule(backoff, [this, id] { schedule_job(id); });
}

void CrossBroker::release_leases(ManagedJob& job) {
  for (const LeaseId lease : job.held_leases) leases_.release(lease);
  job.held_leases.clear();
}

}  // namespace cg::broker
