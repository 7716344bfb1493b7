// ControlBus: the typed control-plane message bus. Covers endpoint interning,
// one bound receiver per endpoint, per-link FIFO delivery and sequence
// monotonicity, partition-drop parity with the old raw is_up() checks, the
// latency model (channel + processing + payload transfer) and its link cache,
// inline delivery, drop/dup/reorder message faults armed through the
// FaultPlan DSL, and the per-type metrics + trace emission.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "net/control_bus.hpp"
#include "obs/observability.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "sim/simulation.hpp"

namespace cg::net {
namespace {

using namespace cg::literals;

class ControlBusTest : public ::testing::Test {
protected:
  ControlBusTest() : network{Rng{7}}, bus{sim, network} {}

  /// One delivery, as a receiver saw it.
  struct Arrival {
    Envelope envelope;
    SimTime at;
  };

  /// Binds `endpoint` to a receiver that records every delivery in
  /// `arrivals`, in arrival order.
  void record_at(EndpointId endpoint) {
    bus.bind(endpoint, [this](const Envelope& envelope) {
      arrivals.push_back(Arrival{envelope, sim.now()});
    });
  }

  /// The arrivals addressed to `endpoint`, in order.
  [[nodiscard]] std::vector<Arrival> arrivals_at(EndpointId endpoint) const {
    std::vector<Arrival> out;
    for (const Arrival& a : arrivals) {
      if (a.envelope.dst == endpoint) out.push_back(a);
    }
    return out;
  }

  sim::Simulation sim;
  sim::Network network;
  ControlBus bus;
  const EndpointId broker = bus.endpoint("broker");
  const EndpointId site_a = bus.endpoint("site:a");
  const EndpointId site_b = bus.endpoint("site:b");
  std::vector<Arrival> arrivals;
};

TEST_F(ControlBusTest, EndpointNamesRoundTripAndIdsAreStable) {
  EXPECT_EQ(bus.name(broker), "broker");
  EXPECT_EQ(bus.name(site_a), "site:a");
  // Interning is idempotent, and a new name takes the next dense id.
  EXPECT_EQ(bus.endpoint("broker"), broker);
  EXPECT_EQ(bus.endpoint("site:a"), site_a);
  EXPECT_EQ(site_a.value(), broker.value() + 1);
  const std::string& broker_name = bus.name(broker);
  std::vector<EndpointId> more;
  for (int i = 0; i < 200; ++i) {
    const std::string n = "site:" + std::to_string(i);
    more.push_back(bus.endpoint(n));
    EXPECT_EQ(bus.name(more.back()), n);
    EXPECT_EQ(more.back().value(), site_b.value() + 1 + static_cast<unsigned>(i));
  }
  // Earlier ids and the names they read back survive later interning.
  EXPECT_EQ(bus.endpoint("site:0"), more.front());
  EXPECT_EQ(bus.endpoint("broker"), broker);
  EXPECT_EQ(broker_name, "broker");
  EXPECT_THROW((void)bus.name(EndpointId{9999}), std::out_of_range);
}

TEST_F(ControlBusTest, PerLinkFifoAndMonotonicSeq) {
  record_at(site_a);
  record_at(broker);
  SendOptions options;
  options.channel_latency = 250_ms;
  for (int i = 0; i < 3; ++i) {
    bus.send(broker, site_a, Heartbeat{AgentId{1}}, options);
  }
  // A different directed pair sequences independently.
  bus.send(site_a, broker, Heartbeat{AgentId{1}}, options);
  sim.run();
  std::vector<std::uint64_t> seqs;
  for (const Arrival& a : arrivals_at(site_a)) seqs.push_back(a.envelope.seq);
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 2, 3}));
  ASSERT_EQ(arrivals_at(broker).size(), 1u);
  EXPECT_EQ(arrivals_at(broker)[0].envelope.seq, 1u);
  EXPECT_EQ(bus.last_seq(broker, site_a), 3u);
  EXPECT_EQ(bus.last_seq(site_a, broker), 1u);
  EXPECT_EQ(bus.last_seq(broker, site_b), 0u);
}

TEST_F(ControlBusTest, EqualLatencySendsDeliverInSendOrder) {
  record_at(broker);
  SendOptions options;
  options.channel_latency = 100_ms;
  for (int i = 0; i < 4; ++i) {
    bus.send(site_a, broker, Heartbeat{AgentId{1}, std::uint64_t(i)}, options);
  }
  sim.run();
  std::vector<std::uint64_t> order;
  for (const Arrival& a : arrivals) {
    order.push_back(std::get<Heartbeat>(a.envelope.payload).seq);
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

TEST_F(ControlBusTest, PartitionDropParityWithIsUp) {
  network.add_link("broker", "site:a", sim::LinkSpec::local());
  sim::FaultInjector injector{sim, &network};
  sim::FaultPlan plan;
  plan.partition_link("broker", "site:a", SimTime::from_seconds(10), 20_s);
  injector.arm(plan);

  record_at(site_a);
  int refused = 0;
  const auto try_send = [&](bool drop_when_down) {
    SendOptions options;
    options.drop_when_down = drop_when_down;
    if (!bus.send(broker, site_a, Heartbeat{AgentId{1}}, options)) ++refused;
  };
  // Before, inside, and after the window — is_up parity at send time.
  sim.schedule_at(SimTime::from_seconds(5), [&] { try_send(true); });
  sim.schedule_at(SimTime::from_seconds(15), [&] { try_send(true); });
  // Sends that historically ignored partitions still go through.
  sim.schedule_at(SimTime::from_seconds(16), [&] { try_send(false); });
  sim.schedule_at(SimTime::from_seconds(35), [&] { try_send(true); });
  sim.run();
  EXPECT_EQ(arrivals.size(), 3u);  // 5 s, 16 s (ignores partition), 35 s
  EXPECT_EQ(refused, 1);           // 15 s with drop_when_down
}

TEST_F(ControlBusTest, LatencyModelSumsChannelProcessingAndTransfer) {
  network.add_link("ui", "site:a", sim::LinkSpec::campus());
  SendOptions options;
  options.channel_latency = 250_ms;
  options.processing_latency = 2_s;
  options.payload_bytes = 12'500'000;  // ~1 s on the 100 Mb/s campus link
  options.transfer_src = bus.endpoint("ui");
  record_at(site_a);
  bus.send(broker, site_a, StageSandbox{JobId{1}, 12'500'000, true}, options);
  sim.run();
  // 0.25 s channel + 2 s processing + ~1 s serialization on the campus link.
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_NEAR(arrivals[0].at.to_seconds(), 3.25, 0.02);
}

TEST_F(ControlBusTest, ZeroDelaySendDeliversBeforeSendReturns) {
  record_at(site_a);
  bus.send(broker, site_a, KillJob{JobId{9}});
  // Before sim.run(): no event was scheduled.
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(std::get<KillJob>(arrivals[0].envelope.payload).job, JobId{9});
  EXPECT_EQ(bus.in_flight(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST_F(ControlBusTest, DelayedSendIsScheduled) {
  record_at(site_a);
  SendOptions options;
  options.channel_latency = 1_ms;
  bus.send(broker, site_a, KillJob{JobId{10}}, options);
  EXPECT_TRUE(arrivals.empty());
  EXPECT_EQ(bus.in_flight(), 1u);
  sim.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0].at, SimTime::zero() + 1_ms);
}

TEST_F(ControlBusTest, EachEndpointHasOneReceiver) {
  record_at(site_a);
  // A second receiver would silently replace the first: it is refused.
  EXPECT_THROW(bus.bind(site_a, [](const Envelope&) {}), std::logic_error);
  bus.send(broker, site_a, Heartbeat{AgentId{1}});
  sim.run();
  EXPECT_EQ(arrivals.size(), 1u);
  // Once unbound, the endpoint takes a new receiver.
  bus.unbind(site_a);
  int rebound = 0;
  bus.bind(site_a, [&](const Envelope&) { ++rebound; });
  bus.send(broker, site_a, Heartbeat{AgentId{1}});
  sim.run();
  EXPECT_EQ(rebound, 1);
  EXPECT_EQ(arrivals.size(), 1u);
}

TEST_F(ControlBusTest, HandlerMayInternEndpointsWhileItRuns) {
  // A receiver that names new endpoints grows the handler table while it
  // runs; its own captures stay intact (checked under ASan).
  int runs = 0;
  bus.bind(site_a, [this, &runs](const Envelope&) {
    for (int i = 0; i < 64; ++i) {
      (void)bus.endpoint("site:late" + std::to_string(i));
    }
    ++runs;
  });
  bus.send(broker, site_a, Heartbeat{AgentId{1}});
  sim.run();
  EXPECT_EQ(runs, 1);
}

TEST_F(ControlBusTest, BoundHandlerReceivesAndUnboundEndpointRunsNothing) {
  std::vector<std::string> seen;
  bus.bind(broker, [&](const Envelope& e) {
    seen.push_back(std::string{to_string(type_of(e.payload))});
  });
  bus.send(site_a, broker, AgentRegister{AgentId{3}});
  bus.send(site_a, broker, Heartbeat{AgentId{3}, 1});
  sim.run();
  EXPECT_EQ(seen, (std::vector<std::string>{"AgentRegister", "Heartbeat"}));

  bus.unbind(broker);
  bus.send(site_a, broker, AgentRegister{AgentId{4}});
  sim.run();  // nowhere to deliver; must not crash
  EXPECT_EQ(seen.size(), 2u);
}

TEST_F(ControlBusTest, DropFaultFiltersByTypeAndWindow) {
  sim::FaultInjector injector{sim, &network};
  injector.register_message_sink(&bus);
  sim::FaultPlan plan;
  plan.drop_messages("Heartbeat", "", "", SimTime::from_seconds(10), 10_s);
  injector.arm(plan);

  record_at(broker);
  record_at(site_a);
  const auto send_both = [&] {
    bus.send(site_a, broker, Heartbeat{AgentId{1}, 1});
    bus.send(broker, site_a, KillJob{JobId{1}, AgentId{1}});
  };
  sim.schedule_at(SimTime::from_seconds(5), send_both);
  sim.schedule_at(SimTime::from_seconds(15), send_both);  // heartbeat lost
  sim.schedule_at(SimTime::from_seconds(25), send_both);  // healed
  sim.schedule_at(SimTime::from_seconds(15),
                  [&] { EXPECT_EQ(bus.active_message_faults(), 1u); });
  sim.run();
  EXPECT_EQ(arrivals_at(broker).size(), 2u);  // heartbeats
  EXPECT_EQ(arrivals_at(site_a).size(), 3u);  // kills
  EXPECT_EQ(bus.active_message_faults(), 0u);
}

TEST_F(ControlBusTest, RetiredTypeNamesArmNothing) {
  // LivenessProbe and LivenessEcho left the catalog: plans that still name
  // them arm no fault, and the traffic they meant to hit flows untouched.
  sim::FaultInjector injector{sim, &network};
  injector.register_message_sink(&bus);
  sim::FaultPlan plan;
  plan.drop_messages("LivenessEcho", "", "", SimTime::from_seconds(0), 10_s);
  plan.duplicate_messages("LivenessProbe", "", "", SimTime::from_seconds(0),
                          10_s);
  injector.arm(plan);

  record_at(broker);
  sim.schedule_at(SimTime::from_seconds(1), [&] {
    EXPECT_EQ(bus.active_message_faults(), 0u);
    bus.send(site_a, broker, Heartbeat{AgentId{1}, 1});
  });
  sim.run();
  EXPECT_EQ(arrivals.size(), 1u);
}

TEST_F(ControlBusTest, DropFaultFiltersByEndpointPair) {
  sim::FaultInjector injector{sim, &network};
  injector.register_message_sink(&bus);
  sim::FaultPlan plan;
  plan.drop_messages("*", "broker", "site:a", SimTime::from_seconds(0), 100_s);
  injector.arm(plan);

  record_at(site_a);
  record_at(site_b);
  sim.schedule_at(SimTime::from_seconds(1), [&] {
    bus.send(broker, site_a, Heartbeat{AgentId{1}});
    bus.send(broker, site_b, Heartbeat{AgentId{2}});
  });
  sim.run();
  EXPECT_EQ(arrivals_at(site_a).size(), 0u);
  EXPECT_EQ(arrivals_at(site_b).size(), 1u);
}

TEST_F(ControlBusTest, FaultArmedBeforeItsEndpointIsNamedMatchesFirstSend) {
  sim::FaultInjector injector{sim, &network};
  injector.register_message_sink(&bus);
  sim::FaultPlan plan;
  plan.drop_messages("*", "site:late", "", SimTime::from_seconds(0), 100_s);
  injector.arm(plan);
  sim.run_until(SimTime::from_seconds(1));
  ASSERT_EQ(bus.active_message_faults(), 1u);

  // The filter names an endpoint no message has used yet; the first send
  // to it is still dropped, while other pairs are untouched.
  const EndpointId late = bus.endpoint("site:late");
  record_at(late);
  record_at(site_a);
  EXPECT_FALSE(bus.send(broker, late, Heartbeat{AgentId{1}}));
  EXPECT_TRUE(bus.send(broker, site_a, Heartbeat{AgentId{1}}));
  sim.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0].envelope.dst, site_a);
}

TEST_F(ControlBusTest, LinkAddedAfterFirstUseTakesEffect) {
  record_at(site_a);
  SendOptions options;
  options.payload_bytes = 1000;
  options.drop_when_down = true;
  const auto send_and_time = [&] {
    const SimTime sent = sim.now();
    EXPECT_TRUE(bus.send(broker, site_a, StageSandbox{JobId{1}, 1000, true},
                         options));
    sim.run();
    return (arrivals.back().at - sent).to_seconds();
  };
  // No link yet: the pair resolves to the default local link (20 us).
  EXPECT_LT(send_and_time(), 1e-3);

  // A WAN link added later replaces it for the next send (>= 9 ms)...
  network.add_link("broker", "site:a", sim::LinkSpec::wan());
  EXPECT_GE(send_and_time(), 9e-3);

  // ...and its partition schedule is the one drop_when_down consults.
  network.link("broker", "site:a")
      .failures()
      .add_outage(sim.now(), sim.now() + 10_s);
  EXPECT_FALSE(bus.send(broker, site_a, Heartbeat{AgentId{1}}, options));
}

TEST_F(ControlBusTest, DupFaultDeliversTwice) {
  sim::FaultInjector injector{sim, &network};
  injector.register_message_sink(&bus);
  sim::FaultPlan plan;
  plan.duplicate_messages("Heartbeat", "", "", SimTime::from_seconds(0), 10_s);
  injector.arm(plan);

  record_at(site_a);
  sim.schedule_at(SimTime::from_seconds(1), [&] {
    // A duplicate is never delivered inline, even at zero delay: both
    // copies are scheduled.
    bus.send(broker, site_a, Heartbeat{AgentId{1}});
    EXPECT_TRUE(arrivals.empty());
    EXPECT_EQ(bus.in_flight(), 2u);
  });
  sim.run();
  // The receiver runs once per copy; both carry the one send's sequence
  // number and arrive at the same instant.
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0].envelope.seq, arrivals[1].envelope.seq);
  EXPECT_EQ(arrivals[0].at, arrivals[1].at);
}

TEST_F(ControlBusTest, ReorderFaultDelaysPastLaterTraffic) {
  sim::FaultInjector injector{sim, &network};
  injector.register_message_sink(&bus);
  sim::FaultPlan plan;
  plan.reorder_messages("JobStatus", "", "", SimTime::from_seconds(0), 10_s,
                        500_ms);
  injector.arm(plan);

  record_at(broker);
  sim.schedule_at(SimTime::from_seconds(1), [&] {
    bus.send(site_a, broker, JobStatus{JobId{1}, StatusPhase::kStarted});
    bus.send(site_a, broker, Heartbeat{AgentId{1}});
  });
  sim.run();
  // The reordered JobStatus arrives after the heartbeat sent after it.
  std::vector<MsgType> order;
  for (const Arrival& a : arrivals) order.push_back(type_of(a.envelope.payload));
  EXPECT_EQ(order, (std::vector<MsgType>{MsgType::kHeartbeat, MsgType::kJobStatus}));
}

TEST_F(ControlBusTest, MetricsAndTraceEmission) {
  obs::Observability obs;
  bus.set_observability(&obs);
  sim::FaultInjector injector{sim, &network};
  injector.register_message_sink(&bus);
  sim::FaultPlan plan;
  plan.drop_messages("Heartbeat", "", "", SimTime::from_seconds(0), 10_s);
  injector.arm(plan);

  SendOptions options;
  options.channel_latency = 250_ms;
  sim.schedule_at(SimTime::from_seconds(1), [&] {
    bus.send(broker, site_a, KillJob{JobId{1}, AgentId{1}}, options);
    bus.send(site_a, broker, Heartbeat{AgentId{1}, 1}, options);
  });
  sim.run();

  EXPECT_EQ(obs.metrics.counter("net.msg.sent", {{"type", "KillJob"}}).value(),
            1u);
  EXPECT_EQ(
      obs.metrics.counter("net.msg.delivered", {{"type", "KillJob"}}).value(),
      1u);
  EXPECT_EQ(obs.metrics.counter("net.msg.sent", {{"type", "Heartbeat"}}).value(),
            1u);
  EXPECT_EQ(
      obs.metrics.counter("net.msg.dropped", {{"type", "Heartbeat"}}).value(),
      1u);
  const obs::Histogram* latency =
      obs.metrics.find_histogram("net.msg.latency_s", {{"type", "KillJob"}});
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), 1u);
  EXPECT_NEAR(latency->mean(), 0.25, 1e-9);

  bool saw_drop_event = false;
  for (const auto& event : obs.tracer.events()) {
    if (event.kind == obs::TraceEventKind::kMsgDropped) saw_drop_event = true;
  }
  EXPECT_TRUE(saw_drop_event);
}

TEST_F(ControlBusTest, MessageTypeCatalogRoundTrips) {
  EXPECT_EQ(type_of(Message{SubmitJob{}}), MsgType::kSubmitJob);
  EXPECT_EQ(type_of(Message{EvictNotice{}}), MsgType::kEvictNotice);
  for (std::size_t i = 0; i < kMessageTypeCount; ++i) {
    const auto type = static_cast<MsgType>(i);
    EXPECT_EQ(type_from_name(to_string(type)), type);
  }
  EXPECT_FALSE(type_from_name("NoSuchMessage").has_value());
  EXPECT_TRUE(is_wildcard_type("*"));
  EXPECT_TRUE(is_wildcard_type(""));
  EXPECT_FALSE(is_wildcard_type("Heartbeat"));
}

}  // namespace
}  // namespace cg::net
