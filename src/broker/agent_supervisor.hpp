// AgentSupervisor: how the broker watches the glide-in agents that report
// to it. Every running agent sends a Heartbeat from its event loop once per
// kSupervisionInterval; the broker listens. One daemon event per tick walks
// the agent table once: it charges a miss to every registered agent not
// heard from since the previous tick, then asks each agent to send its next
// heartbeat (an agent that is wedged, or not running, stays silent).
// kSupervisionMissLimit consecutive misses suspect the agent, which
// placement then skips; the first heartbeat that arrives from a suspected
// agent restores it. A partitioned link and a wedged event loop look the
// same from the broker: heartbeats stop arriving. The supervisor writes the
// supervision fields of the agent table and records the trace events,
// metrics and SiteHealth evidence of supervision; what a decision means for
// jobs is left to SupervisionDecisions.
#pragma once

#include <initializer_list>
#include <map>
#include <string_view>
#include <vector>

#include "broker/agent_registry.hpp"
#include "broker/site_health.hpp"
#include "obs/observability.hpp"

namespace cg::broker {

inline constexpr Duration kSupervisionInterval = Duration::seconds(10);
inline constexpr int kSupervisionMissLimit = 3;

/// The supervisor's decisions, applied by whoever owns the agents' jobs.
class SupervisionDecisions {
public:
  virtual ~SupervisionDecisions() = default;
  /// The agent was just suspected; placement already skips it.
  virtual void on_suspected(AgentRecord& rec) = 0;
  /// A heartbeat arrived from a suspected agent.
  virtual void on_restored(AgentRecord& rec) = 0;
  /// The agent stayed suspected for the whole running-job grace.
  virtual void on_grace_expired(AgentRecord& rec) = 0;
};

class AgentSupervisor {
public:
  /// A zero `running_job_grace` never expires a suspicion.
  AgentSupervisor(sim::Simulation& sim, AgentRegistry& agents,
                  SiteHealth& health, SupervisionDecisions& decisions,
                  Duration running_job_grace)
      : sim_{sim},
        agents_{agents},
        health_{health},
        decisions_{decisions},
        running_job_grace_{running_job_grace} {}

  /// Schedules the supervision daemon's first tick, one interval out.
  void start();
  /// The agent registered: registering counts as hearing from it, and every
  /// later tick visits it until it leaves the table.
  void watch(AgentRecord& rec);
  /// A Heartbeat from `agent` arrived at the broker endpoint.
  void on_heartbeat(AgentId agent);
  /// Trace events and metrics go to `obs` (nullptr detaches).
  void set_observability(obs::Observability* obs);

private:
  /// One tick: the walk over the agent table, in ascending id order, then
  /// the suspicions it found, in the same order.
  void tick();
  /// Charges one miss; true when it reaches the limit on an agent not yet
  /// suspected.
  bool note_miss(AgentRecord& rec);
  void suspect(AgentRecord& rec);
  void restore(AgentRecord& rec);
  /// Traces "agent <id>" and the pieces, labelled with the site and any
  /// reason; the pieces are appended one by one.
  void trace(obs::TraceEventKind kind, const AgentRecord& rec,
             std::initializer_list<std::string_view> pieces,
             const char* reason = nullptr);

  sim::Simulation& sim_;
  AgentRegistry& agents_;
  SiteHealth& health_;
  SupervisionDecisions& decisions_;
  Duration running_job_grace_;
  /// Agents a tick's walk found at the miss limit; applied after the walk,
  /// because a decision may create or erase records. Reused across ticks.
  std::vector<AgentId> to_suspect_;

  obs::Observability* obs_ = nullptr;
  /// Bound in set_observability; the per-site miss counters bind on first
  /// use.
  obs::CounterHandle suspected_;
  obs::CounterHandle restored_;
  std::map<SiteId, obs::CounterHandle> misses_;
};

}  // namespace cg::broker
