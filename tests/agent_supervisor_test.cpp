// AgentSupervisor without a broker: a simulation, a network, a control bus
// and an agent table of running agents, with a recording decision sink in
// CrossBroker's place. Covers the one miss rule (a partitioned link and a
// wedged agent both stop the heartbeats), restoration by the first
// heartbeat that arrives, a reordered heartbeat that still lands within its
// interval, and the running-job grace timer's suspected-since guard across a
// suspect -> restore -> suspect cycle.
#include <gtest/gtest.h>

#include <ostream>
#include <variant>
#include <vector>

#include "broker/agent_supervisor.hpp"
#include "net/control_bus.hpp"
#include "obs/observability.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "sim/simulation.hpp"

namespace cg::broker {
namespace {

constexpr SiteId kSite{1};
constexpr Duration kChannelLatency = Duration::millis(250);

SimTime at(double seconds) { return SimTime::from_seconds(seconds); }

struct Decision {
  enum Kind { kSuspected, kRestored, kGraceExpired } kind;
  AgentId agent;
  SimTime when;
  bool operator==(const Decision&) const = default;
};

void PrintTo(const Decision& d, std::ostream* os) {
  constexpr const char* kNames[] = {"suspected", "restored", "grace_expired"};
  *os << kNames[d.kind] << "(agent " << d.agent.value() << " at "
      << d.when.to_seconds() << " s)";
}

/// Stands in for CrossBroker: records each decision, applies none.
class RecordingSink final : public SupervisionDecisions {
public:
  explicit RecordingSink(sim::Simulation& sim) : sim_{sim} {}
  void on_suspected(AgentRecord& rec) override {
    log(Decision::kSuspected, rec);
  }
  void on_restored(AgentRecord& rec) override { log(Decision::kRestored, rec); }
  void on_grace_expired(AgentRecord& rec) override {
    log(Decision::kGraceExpired, rec);
  }
  std::vector<Decision> decisions;

private:
  void log(Decision::Kind kind, const AgentRecord& rec) {
    decisions.push_back(Decision{kind, rec.id(), sim_.now()});
  }
  sim::Simulation& sim_;
};

/// The supervisor's surroundings: the broker endpoint dispatches
/// AgentRegister and Heartbeat to it the way CrossBroker does, and every
/// agent runs at one site behind one broker <-> site link.
class Harness {
public:
  explicit Harness(Duration grace = Duration::zero())
      : supervisor{sim, agents, health, sink, grace} {
    bus.bind(broker, [this](const net::Envelope& envelope) {
      if (const auto* reg = std::get_if<net::AgentRegister>(&envelope.payload)) {
        supervisor.watch(*agents.record(reg->agent));
      } else if (const auto* heartbeat =
                     std::get_if<net::Heartbeat>(&envelope.payload)) {
        supervisor.on_heartbeat(heartbeat->agent);
      }
    });
    supervisor.set_observability(&obs);
    supervisor.start();
  }

  /// An agent whose carrier starts now; it runs and registers once its
  /// bootstrap (2.5 s) is over.
  glidein::GlideinAgent& deploy() {
    AgentRecord& rec = agents.create(kSite);
    rec.agent->connect_control_plane(&bus, site, broker, kChannelLatency);
    rec.agent->on_carrier_started(NodeId{1});
    return *rec.agent;
  }

  void partition(double from, double to) {
    link.failures().add_outage(at(from), at(to));
  }

  /// The trace events of `kind`, in order.
  [[nodiscard]] std::vector<obs::JobTraceEvent> events(
      obs::TraceEventKind kind) const {
    return obs.tracer.of_kind(kind);
  }

  /// When each trace event of `kind` was recorded.
  [[nodiscard]] std::vector<SimTime> times(obs::TraceEventKind kind) const {
    std::vector<SimTime> out;
    for (const obs::JobTraceEvent& event : events(kind)) {
      out.push_back(event.when);
    }
    return out;
  }

  sim::Simulation sim;
  sim::Network network{Rng{11}};
  sim::Link& link = network.add_link("broker", "site", sim::LinkSpec::campus());
  net::ControlBus bus{sim, network};
  const EndpointId broker = bus.endpoint("broker");
  const EndpointId site = bus.endpoint("site");
  AgentRegistry agents{sim};
  SiteHealth health{sim};
  RecordingSink sink{sim};
  obs::Observability obs;
  AgentSupervisor supervisor;
};

TEST(AgentSupervisorTest, PartitionedLinkSuspectsAfterThreeMissedHeartbeats) {
  Harness h;
  const AgentId agent = h.deploy().id();
  // Registered at 2.5 s, which counts as hearing from it: the 10 s tick
  // charges nothing. The heartbeats of the 10, 20 and 30 s ticks die in
  // the partition, so the 20, 30 and 40 s ticks each charge one miss.
  h.partition(5.0, 1000.0);
  h.sim.run_until(at(45.0));

  EXPECT_EQ(h.times(obs::TraceEventKind::kHeartbeatMiss),
            (std::vector<SimTime>{at(20.0), at(30.0), at(40.0)}));
  const auto suspected = h.events(obs::TraceEventKind::kAgentSuspected);
  ASSERT_EQ(suspected.size(), 1u);
  EXPECT_EQ(*suspected[0].attrs.find("reason"), "heartbeat");
  EXPECT_EQ(h.sink.decisions,
            (std::vector<Decision>{{Decision::kSuspected, agent, at(40.0)}}));
  EXPECT_TRUE(h.agents.record(agent)->suspected);
  EXPECT_EQ(h.obs.metrics.counter_total("broker.heartbeat_misses"), 3u);
}

TEST(AgentSupervisorTest, WedgedAgentOnHealthyLinkFallsSilent) {
  Harness h;
  glidein::GlideinAgent& wedged = h.deploy();
  const AgentId agent = wedged.id();
  h.sim.schedule_at(at(5.0), [&] { wedged.set_wedged(true); });
  // The link stays up, but a wedged event loop sends nothing: the same
  // three misses as a partition.
  h.sim.run_until(at(45.0));

  EXPECT_EQ(wedged.heartbeats_sent(), 0u);
  EXPECT_EQ(h.times(obs::TraceEventKind::kHeartbeatMiss),
            (std::vector<SimTime>{at(20.0), at(30.0), at(40.0)}));
  EXPECT_EQ(h.sink.decisions,
            (std::vector<Decision>{{Decision::kSuspected, agent, at(40.0)}}));
}

TEST(AgentSupervisorTest, FirstHeartbeatAfterTheHealRestoresAndClearsTheMisses) {
  Harness h;
  const AgentId id = h.deploy().id();
  // Down from 5 to 35 s: suspected at 40 s after three missed heartbeats.
  // The heartbeat of the 40 s tick crosses the healed link and restores the
  // agent one channel latency later; the 50 and 60 s ticks have heard from
  // it and charge nothing.
  h.partition(5.0, 35.0);
  h.sim.run_until(at(65.0));

  const SimTime heard = at(40.0) + kChannelLatency;
  EXPECT_EQ(h.sink.decisions,
            (std::vector<Decision>{{Decision::kSuspected, id, at(40.0)},
                                   {Decision::kRestored, id, heard}}));
  EXPECT_EQ(h.times(obs::TraceEventKind::kHeartbeatMiss),
            (std::vector<SimTime>{at(20.0), at(30.0), at(40.0)}));
  EXPECT_EQ(h.times(obs::TraceEventKind::kAgentRestored),
            (std::vector<SimTime>{heard}));
  EXPECT_FALSE(h.agents.record(id)->suspected);
  EXPECT_EQ(h.agents.record(id)->missed, 0);
}

TEST(AgentSupervisorTest, WedgedAgentStaysSuspectedBehindAHealedLink) {
  Harness h;
  glidein::GlideinAgent& agent = h.deploy();
  const AgentId id = agent.id();
  // Suspected at 40 s. The link heals at 55 s, but the agent stays wedged
  // until 75 s and sends nothing; the 80 s tick is the first to find it
  // running, and its heartbeat restores the agent.
  h.partition(5.0, 55.0);
  h.sim.schedule_at(at(5.0), [&] { agent.set_wedged(true); });
  h.sim.schedule_at(at(75.0), [&] { agent.set_wedged(false); });
  h.sim.run_until(at(80.0));
  EXPECT_TRUE(h.events(obs::TraceEventKind::kAgentRestored).empty());
  EXPECT_TRUE(h.agents.record(id)->suspected);

  h.sim.run_until(at(100.0));
  const SimTime heard = at(80.0) + kChannelLatency;
  EXPECT_EQ(h.sink.decisions,
            (std::vector<Decision>{{Decision::kSuspected, id, at(40.0)},
                                   {Decision::kRestored, id, heard}}));
  EXPECT_FALSE(h.agents.record(id)->suspected);
}

TEST(AgentSupervisorTest, HeartbeatReorderedWithinItsIntervalChargesNoMiss) {
  Harness h;
  const AgentId id = h.deploy().id();
  sim::FaultInjector injector{h.sim, &h.network};
  injector.register_message_sink(&h.bus);
  sim::FaultPlan plan;
  // Every heartbeat arrives 9.25 s after its tick: late, but before the
  // next tick looks for it.
  plan.reorder_messages("Heartbeat", "", "", at(0.0), Duration::seconds(1000),
                        Duration::seconds(9));
  injector.arm(plan);
  h.sim.run_until(at(200.0));

  EXPECT_TRUE(h.events(obs::TraceEventKind::kHeartbeatMiss).empty());
  EXPECT_TRUE(h.sink.decisions.empty());
  EXPECT_EQ(h.agents.record(id)->agent->heartbeats_sent(), 20u);
}

TEST(AgentSupervisorTest, GraceExpiresOnceAtTheSecondSuspicionsDeadline) {
  const Duration grace = Duration::seconds(60);
  Harness h{grace};
  glidein::GlideinAgent& agent = h.deploy();
  const AgentId id = agent.id();
  // First suspicion of the wedged agent at 40 s (deadline 100 s); it is
  // unwedged at 45 s and the 50 s tick's heartbeat restores it. The link
  // then goes down for good: the heartbeats of the 60, 70 and 80 s ticks
  // are lost, and the second suspicion comes at 90 s (deadline 150 s). At
  // 100 s the agent is suspected, but not since the suspicion that armed
  // that timer.
  h.sim.schedule_at(at(5.0), [&] { agent.set_wedged(true); });
  h.sim.schedule_at(at(45.0), [&] { agent.set_wedged(false); });
  h.partition(55.0, 1000.0);
  h.sim.run_until(at(160.0));

  const SimTime heard = at(50.0) + kChannelLatency;
  EXPECT_EQ(h.sink.decisions,
            (std::vector<Decision>{{Decision::kSuspected, id, at(40.0)},
                                   {Decision::kRestored, id, heard},
                                   {Decision::kSuspected, id, at(90.0)},
                                   {Decision::kGraceExpired, id,
                                    at(90.0) + grace}}));
}

}  // namespace
}  // namespace cg::broker
