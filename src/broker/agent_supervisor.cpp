#include "broker/agent_supervisor.hpp"

#include <string>
#include <utility>

#include "util/log.hpp"

namespace cg::broker {

namespace {
constexpr const char* kLog = "broker";
/// The one cause of suspicion, as the trace and the counter label it.
constexpr const char* kReason = "heartbeat";

obs::LabelSet site_label(SiteId site) {
  return obs::LabelSet{{"site", std::to_string(site.value())}};
}
}  // namespace

void AgentSupervisor::start() {
  sim_.schedule_daemon(kSupervisionInterval, [this] {
    tick();
    start();
  });
}

void AgentSupervisor::set_observability(obs::Observability* obs) {
  obs_ = obs;
  misses_.clear();
  suspected_ = obs != nullptr
                   ? obs->metrics.counter_handle(
                         "broker.agents_suspected",
                         obs::LabelSet{{"reason", kReason}})
                   : obs::CounterHandle{};
  restored_ = obs != nullptr
                  ? obs->metrics.counter_handle("broker.agents_restored")
                  : obs::CounterHandle{};
}

void AgentSupervisor::watch(AgentRecord& rec) {
  rec.supervised = true;
  rec.heard = true;
}

void AgentSupervisor::tick() {
  for (auto& [id, rec] : agents_) {
    if (rec.agent->state() != glidein::AgentState::kRunning) continue;
    if (rec.supervised) {
      if (rec.heard) {
        rec.missed = 0;
      } else if (note_miss(rec)) {
        to_suspect_.push_back(id);
      }
      rec.heard = false;
    }
    // The agents' side of the tick: the send happens on the bus, so the
    // walk never re-enters the table.
    rec.agent->send_heartbeat();
  }
  for (const AgentId id : to_suspect_) {
    // An earlier suspicion's decision may have erased this record.
    if (AgentRecord* rec = agents_.record(id)) suspect(*rec);
  }
  to_suspect_.clear();
}

void AgentSupervisor::on_heartbeat(AgentId agent) {
  AgentRecord* rec = agents_.record(agent);
  if (rec == nullptr) return;
  rec->heard = true;
  if (rec->suspected) restore(*rec);
}

bool AgentSupervisor::note_miss(AgentRecord& rec) {
  const int missed = ++rec.missed;
  health_.note_miss(rec.site());
  obs::CounterHandle& counter = misses_[rec.site()];
  if (!counter && obs_ != nullptr) {
    counter = obs_->metrics.counter_handle("broker.heartbeat_misses",
                                           site_label(rec.site()));
  }
  counter.inc();
  trace(obs::TraceEventKind::kHeartbeatMiss, rec,
        {" missed heartbeat ", std::to_string(missed)});
  return !rec.suspected && missed >= kSupervisionMissLimit;
}

void AgentSupervisor::suspect(AgentRecord& rec) {
  const AgentId agent_id = rec.id();
  const SimTime since = sim_.now();
  rec.suspected = true;
  rec.suspected_since = since;
  health_.note_suspected(rec.site());
  const std::string cause = std::to_string(rec.missed) + " missed heartbeats";
  log_warn(kLog, "agent ", agent_id.value(), " suspected (", cause, ")");
  trace(obs::TraceEventKind::kAgentSuspected, rec, {" after ", cause}, kReason);
  suspected_.inc();
  if (running_job_grace_ > Duration::zero()) {
    sim_.schedule(running_job_grace_, [this, agent_id, since] {
      AgentRecord* r = agents_.record(agent_id);
      // Gone (the death path ran), healed, or suspected anew since.
      if (r != nullptr && r->suspected && r->suspected_since == since) {
        decisions_.on_grace_expired(*r);
      }
    });
  }
  decisions_.on_suspected(rec);
}

void AgentSupervisor::restore(AgentRecord& rec) {
  rec.suspected = false;
  rec.missed = 0;
  rec.suspected_since.reset();
  health_.note_restored(rec.site());
  log_info(kLog, "agent ", rec.id().value(), " re-registered");
  trace(obs::TraceEventKind::kAgentRestored, rec, {" re-registered"});
  restored_.inc();
  decisions_.on_restored(rec);
}

void AgentSupervisor::trace(obs::TraceEventKind kind, const AgentRecord& rec,
                            std::initializer_list<std::string_view> pieces,
                            const char* reason) {
  if (obs_ == nullptr) return;
  std::string detail = "agent " + std::to_string(rec.id().value());
  for (const std::string_view piece : pieces) detail += piece;
  obs::LabelSet attrs = site_label(rec.site());
  if (reason != nullptr) attrs.set("reason", reason);
  obs_->tracer.record(sim_.now(), JobId::none(), kind, std::move(detail),
                      std::move(attrs));
}

}  // namespace cg::broker
