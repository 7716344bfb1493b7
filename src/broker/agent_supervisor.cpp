#include "broker/agent_supervisor.hpp"

#include <string>
#include <utility>
#include <vector>

#include "net/control_bus.hpp"
#include "util/log.hpp"

namespace cg::broker {

namespace {
constexpr const char* kLog = "broker";

/// What differs between the channels, indexed by AgentSupervisor::Channel:
/// the suspicion's cause and reason label, and the per-site miss counter.
struct ChannelText {
  const char* cause;
  const char* reason;
  const char* counter;
};
constexpr std::array<ChannelText, 2> kChannels{{
    {" missed heartbeats", "heartbeat", "broker.heartbeat_misses"},
    {" missed liveness echoes", "liveness", "broker.liveness_misses"},
}};

obs::LabelSet site_label(SiteId site) {
  return obs::LabelSet{{"site", std::to_string(site.value())}};
}
}  // namespace

void AgentSupervisor::start() {
  sim_.schedule_daemon(kSupervisionInterval, [this] {
    pass(kHeartbeat);
    pass(kLiveness);
    start();
  });
}

void AgentSupervisor::set_observability(obs::Observability* obs) {
  obs_ = obs;
  misses_ = {};
  liveness_probes_ = obs != nullptr
                         ? obs->metrics.counter_handle("broker.liveness_probes")
                         : obs::CounterHandle{};
}

void AgentSupervisor::pass(Channel channel) {
  std::vector<AgentId> snapshot;
  for (const auto& [id, rec] : agents_) {
    if (rec.supervised) snapshot.push_back(id);
  }
  for (const AgentId agent_id : snapshot) {
    AgentRecord* rec = agents_.record(agent_id);
    if (rec == nullptr || rec->agent->state() != glidein::AgentState::kRunning) {
      continue;
    }
    const EndpointId site = rec->agent->site_endpoint();
    if (channel == kHeartbeat) {
      // The probe travels the broker <-> site link; a partitioned link means
      // a missed heartbeat whether or not the agent is actually alive.
      if (bus_.probe(broker_, site, net::Heartbeat{agent_id})) {
        note_pass(*rec, channel);
      } else {
        note_miss(*rec, channel);
      }
      continue;
    }
    // The previous probe was never echoed: the agent's event loop is stalled
    // or the path is down. Either way the application-level liveness
    // contract failed, whatever the link heartbeat says.
    if (rec->probe_seq > rec->echo_seq) note_miss(*rec, channel);
    const std::uint64_t seq = ++rec->probe_seq;
    liveness_probes_.inc();
    // The probe rides the direct broker <-> agent channel to the agent's
    // site endpoint, whose glide-in host passes it to the agent; on a
    // partitioned link it is simply lost and counted missing at the next
    // tick. The echo leg is the agent's (deliver_liveness_probe sends
    // LivenessEcho back to the broker endpoint — a wedged or dead agent never
    // answers).
    net::SendOptions options;
    options.channel_latency = channel_latency_;
    options.drop_when_down = true;
    bus_.send(broker_, site, net::LivenessProbe{agent_id, seq}, options);
  }
}

void AgentSupervisor::on_echo(AgentId agent, std::uint64_t seq) {
  AgentRecord* rec = agents_.record(agent);
  if (rec == nullptr) return;
  if (seq > rec->echo_seq) rec->echo_seq = seq;
  note_pass(*rec, kLiveness);
}

void AgentSupervisor::note_miss(AgentRecord& rec, Channel channel) {
  const int missed = ++rec.missed[channel];
  health_.note_miss(rec.site());
  obs::CounterHandle& counter = misses_[channel][rec.site()];
  if (!counter && obs_ != nullptr) {
    counter = obs_->metrics.counter_handle(kChannels[channel].counter,
                                           site_label(rec.site()));
  }
  counter.inc();
  const std::string count = std::to_string(missed);
  if (channel == kHeartbeat) {
    trace(obs::TraceEventKind::kHeartbeatMiss, rec, {" missed probe ", count});
  } else {
    trace(obs::TraceEventKind::kLivenessMiss, rec,
          {" missed echo ", count, " (probe ", std::to_string(rec.probe_seq),
           ")"});
  }
  if (!rec.suspected && missed >= kSupervisionMissLimit) suspect(rec, channel);
}

void AgentSupervisor::note_pass(AgentRecord& rec, Channel channel) {
  rec.missed[channel] = 0;
  // One passing channel alone is not proof of life: a wedged agent behind a
  // healthy link stays suspected until its liveness echo returns too.
  if (rec.suspected && rec.missed[kHeartbeat] < kSupervisionMissLimit &&
      rec.missed[kLiveness] < kSupervisionMissLimit) {
    restore(rec);
  }
}

void AgentSupervisor::suspect(AgentRecord& rec, Channel channel) {
  const AgentId agent_id = rec.id();
  const SimTime since = sim_.now();
  rec.suspected = true;
  rec.suspected_since = since;
  health_.note_suspected(rec.site());
  const std::string cause =
      std::to_string(rec.missed[channel]) + kChannels[channel].cause;
  log_warn(kLog, "agent ", agent_id.value(), " suspected (", cause, ")");
  trace(obs::TraceEventKind::kAgentSuspected, rec, {" after ", cause},
        kChannels[channel].reason);
  if (obs_ != nullptr) {
    obs_->metrics
        .counter("broker.agents_suspected",
                 obs::LabelSet{{"reason", kChannels[channel].reason}})
        .inc();
  }
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
  rec.missed = {};
  rec.suspected_since.reset();
  health_.note_restored(rec.site());
  log_info(kLog, "agent ", rec.id().value(), " re-registered");
  trace(obs::TraceEventKind::kAgentRestored, rec, {" re-registered"});
  if (obs_ != nullptr) obs_->metrics.counter("broker.agents_restored").inc();
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
