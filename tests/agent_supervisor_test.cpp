// AgentSupervisor without a broker: a simulation, a network, a control bus
// and an agent table of running agents, with a recording decision sink in
// CrossBroker's place. Covers the one miss rule on both channels (a
// partitioned link misses heartbeats, a wedged agent misses echoes),
// restoration only once both channels pass, and the running-job grace timer's
// suspected-since guard across a suspect -> restore -> suspect cycle.
#include <gtest/gtest.h>

#include <ostream>
#include <variant>
#include <vector>

#include "broker/agent_supervisor.hpp"
#include "net/control_bus.hpp"
#include "obs/observability.hpp"
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
/// AgentRegister and LivenessEcho to it the way CrossBroker does, the site
/// endpoint passes each LivenessProbe to the agent it names the way a site's
/// glide-in host does, and every agent runs at one site behind one
/// broker <-> site link.
class Harness {
public:
  explicit Harness(Duration grace = Duration::zero())
      : supervisor{sim, bus, agents, health, sink, broker, kChannelLatency,
                   grace} {
    bus.bind(broker, [this](const net::Envelope& envelope) {
      if (const auto* reg = std::get_if<net::AgentRegister>(&envelope.payload)) {
        supervisor.watch(*agents.record(reg->agent));
      } else if (const auto* echo =
                     std::get_if<net::LivenessEcho>(&envelope.payload)) {
        supervisor.on_echo(echo->agent, echo->seq);
      }
    });
    bus.bind(site, [this](const net::Envelope& envelope) {
      if (const auto* probe =
              std::get_if<net::LivenessProbe>(&envelope.payload)) {
        if (glidein::GlideinAgent* agent = agents.find(probe->agent)) {
          agent->receive(envelope.payload);
        }
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

TEST(AgentSupervisorTest, PartitionedLinkSuspectsThroughHeartbeats) {
  Harness h;
  const AgentId agent = h.deploy().id();
  // Down from before the first tick: ticks at 10, 20 and 30 s miss.
  h.partition(5.0, 1000.0);
  h.sim.run_until(at(35.0));

  const auto misses = h.events(obs::TraceEventKind::kHeartbeatMiss);
  ASSERT_EQ(misses.size(), static_cast<std::size_t>(kSupervisionMissLimit));
  const auto suspected = h.events(obs::TraceEventKind::kAgentSuspected);
  ASSERT_EQ(suspected.size(), 1u);
  EXPECT_EQ(*suspected[0].attrs.find("reason"), "heartbeat");
  EXPECT_EQ(suspected[0].when, misses.back().when);
  EXPECT_EQ(h.sink.decisions,
            (std::vector<Decision>{{Decision::kSuspected, agent, at(30.0)}}));
  EXPECT_TRUE(h.agents.record(agent)->suspected);
}

TEST(AgentSupervisorTest, WedgedAgentOnHealthyLinkSuspectsThroughEchoes) {
  Harness h;
  glidein::GlideinAgent& wedged = h.deploy();
  const AgentId agent = wedged.id();
  h.sim.schedule_at(at(5.0), [&] { wedged.set_wedged(true); });
  // The probe of the 10 s tick goes unanswered: the ticks at 20, 30 and
  // 40 s each find one outstanding, while every heartbeat passes.
  h.sim.run_until(at(45.0));

  EXPECT_TRUE(h.events(obs::TraceEventKind::kHeartbeatMiss).empty());
  const auto misses = h.events(obs::TraceEventKind::kLivenessMiss);
  ASSERT_EQ(misses.size(), static_cast<std::size_t>(kSupervisionMissLimit));
  const auto suspected = h.events(obs::TraceEventKind::kAgentSuspected);
  ASSERT_EQ(suspected.size(), 1u);
  EXPECT_EQ(*suspected[0].attrs.find("reason"), "liveness");
  EXPECT_EQ(suspected[0].when, misses.back().when);
  EXPECT_EQ(h.sink.decisions,
            (std::vector<Decision>{{Decision::kSuspected, agent, at(40.0)}}));
}

TEST(AgentSupervisorTest, RestoredOnlyOnceBothChannelsPass) {
  Harness h;
  glidein::GlideinAgent& agent = h.deploy();
  const AgentId id = agent.id();
  // Suspected through heartbeats at 30 s. The link heals at 55 s, so from
  // the 60 s tick on heartbeats pass, but the agent stays wedged until
  // 75 s: the probes of the 60 and 70 s ticks go unanswered. The 80 s tick
  // is the first whose heartbeat and probe both pass; its echo is back one
  // round trip later.
  h.partition(5.0, 55.0);
  h.sim.schedule_at(at(5.0), [&] { agent.set_wedged(true); });
  h.sim.schedule_at(at(75.0), [&] { agent.set_wedged(false); });
  h.sim.run_until(at(79.0));
  EXPECT_TRUE(h.events(obs::TraceEventKind::kAgentRestored).empty());
  EXPECT_TRUE(h.agents.record(id)->suspected);

  h.sim.run_until(at(100.0));
  const SimTime echoed = at(80.0) + kChannelLatency + kChannelLatency;
  EXPECT_EQ(h.sink.decisions,
            (std::vector<Decision>{{Decision::kSuspected, id, at(30.0)},
                                   {Decision::kRestored, id, echoed}}));
  const auto restored = h.events(obs::TraceEventKind::kAgentRestored);
  ASSERT_EQ(restored.size(), 1u);
  EXPECT_EQ(restored[0].when, echoed);
  EXPECT_FALSE(h.agents.record(id)->suspected);
}

TEST(AgentSupervisorTest, GraceExpiresOnceAtTheSecondSuspicionsDeadline) {
  const Duration grace = Duration::seconds(60);
  Harness h{grace};
  glidein::GlideinAgent& agent = h.deploy();
  const AgentId id = agent.id();
  // First suspicion through echoes at 40 s (deadline 100 s); the agent is
  // unwedged at 45 s and restored when the 50 s probe's echo returns. The
  // link then goes down for good: the second suspicion comes through
  // heartbeats at 80 s (deadline 140 s). At 100 s the agent is suspected,
  // but not since the suspicion that armed that timer.
  h.sim.schedule_at(at(5.0), [&] { agent.set_wedged(true); });
  h.sim.schedule_at(at(45.0), [&] { agent.set_wedged(false); });
  h.partition(55.0, 1000.0);
  h.sim.run_until(at(150.0));

  const SimTime echoed = at(50.0) + kChannelLatency + kChannelLatency;
  EXPECT_EQ(h.sink.decisions,
            (std::vector<Decision>{{Decision::kSuspected, id, at(40.0)},
                                   {Decision::kRestored, id, echoed},
                                   {Decision::kSuspected, id, at(80.0)},
                                   {Decision::kGraceExpired, id,
                                    at(80.0) + grace}}));
}

}  // namespace
}  // namespace cg::broker
