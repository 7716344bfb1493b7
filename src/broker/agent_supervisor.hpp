// AgentSupervisor: how the broker watches the glide-in agents that report
// to it. Every kSupervisionInterval one daemon probes each registered
// agent's link (a Heartbeat over the broker <-> site link) and then its
// event loop (a sequenced LivenessProbe the agent must echo). Both channels
// share one miss rule: kSupervisionMissLimit consecutive misses on either
// suspect the agent, which placement then skips. A wedged agent on a healthy
// link misses only echoes, and is restored only once both channels pass
// again. The supervisor writes the supervision fields of the agent table and
// records the trace events, metrics and SiteHealth evidence of supervision;
// what a decision means for jobs is left to SupervisionDecisions.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string_view>

#include "broker/agent_registry.hpp"
#include "broker/site_health.hpp"
#include "obs/observability.hpp"

namespace cg::net {
class ControlBus;
}

namespace cg::broker {

inline constexpr Duration kSupervisionInterval = Duration::seconds(10);
inline constexpr int kSupervisionMissLimit = 3;

/// The supervisor's decisions, applied by whoever owns the agents' jobs.
class SupervisionDecisions {
public:
  virtual ~SupervisionDecisions() = default;
  /// The agent was just suspected; placement already skips it.
  virtual void on_suspected(AgentRecord& rec) = 0;
  /// A suspected agent passed both channels again.
  virtual void on_restored(AgentRecord& rec) = 0;
  /// The agent stayed suspected for the whole running-job grace.
  virtual void on_grace_expired(AgentRecord& rec) = 0;
};

class AgentSupervisor {
public:
  /// The two ways an agent is watched; indexes AgentRecord::missed.
  enum Channel : std::size_t { kHeartbeat, kLiveness };

  /// Probes leave from, and echoes return to, the `broker` endpoint; they
  /// ride the broker <-> agent channel's `channel_latency`. A zero
  /// `running_job_grace` never expires a suspicion.
  AgentSupervisor(sim::Simulation& sim, net::ControlBus& bus,
                  AgentRegistry& agents, SiteHealth& health,
                  SupervisionDecisions& decisions, EndpointId broker,
                  Duration channel_latency, Duration running_job_grace)
      : sim_{sim},
        bus_{bus},
        agents_{agents},
        health_{health},
        decisions_{decisions},
        broker_{broker},
        channel_latency_{channel_latency},
        running_job_grace_{running_job_grace} {}

  /// Schedules the supervision daemon's first tick, one interval out.
  void start();
  /// The agent registered: every later tick visits it until it leaves.
  void watch(AgentRecord& rec) { rec.supervised = true; }
  /// A LivenessEcho arrived at the broker endpoint.
  void on_echo(AgentId agent, std::uint64_t seq);
  /// Trace events and metrics go to `obs` (nullptr detaches).
  void set_observability(obs::Observability* obs);

private:
  /// One pass of the daemon over the agents registered when it begins, in
  /// ascending id order: an agent registering during the pass waits for the
  /// next tick, and a decision may erase entries from the agent table.
  void pass(Channel channel);
  /// The one miss rule; a pass resets the channel's count.
  void note_miss(AgentRecord& rec, Channel channel);
  void note_pass(AgentRecord& rec, Channel channel);
  void suspect(AgentRecord& rec, Channel channel);
  void restore(AgentRecord& rec);
  /// Traces "agent <id>" and the pieces, labelled with the site and any
  /// reason; the pieces are appended one by one.
  void trace(obs::TraceEventKind kind, const AgentRecord& rec,
             std::initializer_list<std::string_view> pieces,
             const char* reason = nullptr);

  sim::Simulation& sim_;
  net::ControlBus& bus_;
  AgentRegistry& agents_;
  SiteHealth& health_;
  SupervisionDecisions& decisions_;
  EndpointId broker_;
  Duration channel_latency_;
  Duration running_job_grace_;

  obs::Observability* obs_ = nullptr;
  /// Bound in set_observability; per-site miss counters (a map per channel)
  /// bind on first use. The rare suspicions and restorations count by name.
  obs::CounterHandle liveness_probes_;
  std::array<std::map<SiteId, obs::CounterHandle>, 2> misses_;
};

}  // namespace cg::broker
