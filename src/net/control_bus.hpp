// The control-plane message bus: the single delivery path for every typed
// broker <-> agent <-> site exchange. Exactly one implementation applies
//   * link latency (fixed control-channel delay + optional bulk transfer
//     riding the link's bandwidth/jitter model + receiver processing time),
//   * partition windows (a send may be dropped when its link is down, the
//     way the broker's raw is_up() checks used to behave),
//   * per-directed-link sequencing (monotonic seq per (src, dst) pair), and
//   * message-level fault injection (kMsgDrop / kMsgDup / kMsgReorder from
//     the FaultPlan DSL, filtered by message type and endpoint pair),
// with per-message-type metrics (net.msg.sent / delivered / dropped /
// duplicated counters, net.msg.latency_s histogram) and JobTracer hooks.
//
// Every delivery goes to the one handler its destination endpoint binds: a
// message's effect is written once, in its receiver, never in the sender.
//
// Endpoints are interned once to dense EndpointIds (endpoint(name), read back
// with name(id)); every send and binding takes ids, so the per-message
// path indexes tables instead of comparing strings. Per-directed-pair
// sequence numbers and cached links, bound handlers, and in-flight
// envelopes (a slab with a free list) all live in id- or slot-indexed
// tables. Traces still print endpoint names.
//
// A send whose modelled delay is zero, and that is not duplicated, is
// delivered inline — the receiver runs before send() returns, the bus
// equivalent of a direct call. Every other delivery is scheduled.
//
// Determinism contract: the bus schedules exactly one simulation event per
// scheduled delivery and consumes link RNG only for sends that carry
// payload bytes — a refactor from direct schedule() calls onto the bus is
// event-for-event identical, which is what keeps the pinned chaos-scenario
// golden digests unchanged. A pair's link is resolved through
// sim::Network at the pair's first use (an unknown pair's first lookup
// forks the default link's RNG there) and again after Network::add_link.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/message.hpp"
#include "obs/metrics.hpp"
#include "sim/fault.hpp"
#include "util/time.hpp"

namespace cg::obs {
struct Observability;
}
namespace cg::sim {
class Link;
class Network;
class Simulation;
}  // namespace cg::sim

namespace cg::net {

/// One message in flight: the typed payload plus its addressing and timing.
struct Envelope {
  std::uint64_t seq = 0;  ///< per directed (src, dst) pair, starting at 1
  EndpointId src;         ///< ControlBus::name(src) reads the name back
  EndpointId dst;
  SimTime send_time;
  Message payload;
};

/// Per-send latency model and failure semantics. The defaults model an
/// instantaneous, never-dropped exchange; callers opt into each cost.
struct SendOptions {
  /// Fixed control-channel delay (e.g. the broker <-> agent channel).
  Duration channel_latency = Duration::zero();
  /// Receiver-side processing time added after the wire (GSI auth,
  /// jobmanager overhead, prepare bookkeeping).
  Duration processing_latency = Duration::zero();
  /// Bulk bytes riding the link's bandwidth + jitter model (sandbox and
  /// executable staging). Zero bytes never touches the link RNG.
  std::size_t payload_bytes = 0;
  /// Endpoint whose link to `dst` carries the transfer when it is not the
  /// message source (executable staged from the submitter, not the broker).
  /// none(): the message source.
  EndpointId transfer_src;
  /// Consult the link's partition schedule at send time and drop the
  /// message if the link is down (today's is_up() semantics). Sends that
  /// historically ignored partitions leave this false.
  bool drop_when_down = false;
};

/// The bus. One instance per simulated grid; every control-plane component
/// holds a reference and sends through it. Implements MessageFaultSink so a
/// FaultInjector can arm message-level faults onto it.
class ControlBus final : public sim::MessageFaultSink {
public:
  using DeliverFn = std::function<void(const Envelope&)>;

  ControlBus(sim::Simulation& sim, sim::Network& network);
  ControlBus(const ControlBus&) = delete;
  ControlBus& operator=(const ControlBus&) = delete;
  ~ControlBus() override;

  /// Interns an endpoint name: the same name always yields the same id, and
  /// ids are dense, starting at 1.
  [[nodiscard]] EndpointId endpoint(const std::string& name);
  /// The name `id` was interned from.
  [[nodiscard]] const std::string& name(EndpointId id) const;

  /// Installs the one receiver of the messages addressed to `endpoint`.
  /// Throws std::logic_error when the endpoint already has one: unbind it
  /// first, so a second receiver never silently replaces the first.
  void bind(EndpointId endpoint, DeliverFn handler);
  void unbind(EndpointId endpoint);

  /// Sends a message. Returns false when the message was dropped at send
  /// time (partition with drop_when_down, or an active kMsgDrop fault).
  /// Each delivered copy (a kMsgDup fault delivers two) runs the handler
  /// bound at `dst`; a message to an unbound endpoint runs nothing. A
  /// zero-delay send that is not duplicated runs the handler before
  /// returning.
  bool send(EndpointId src, EndpointId dst, Message msg,
            const SendOptions& options = {});

  /// Attaches (or detaches, with nullptr) metrics + tracing. Safe to call
  /// mid-run; handles re-bind.
  void set_observability(obs::Observability* obs);

  // MessageFaultSink: armed/healed by the FaultInjector.
  void apply_message_fault(const sim::FaultSpec& spec) override;
  void clear_message_fault(const sim::FaultSpec& spec) override;

  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }
  [[nodiscard]] std::size_t active_message_faults() const {
    return faults_.size();
  }
  /// Last sequence number issued on a directed pair (0 if none yet).
  [[nodiscard]] std::uint64_t last_seq(EndpointId src, EndpointId dst) const;

private:
  /// What the bus keeps per directed (src, dst) pair.
  struct PairState {
    std::uint64_t seq = 0;
    /// The pair's link, resolved at its first use and again whenever
    /// Network::add_link has run since (`link_version`).
    sim::Link* link = nullptr;
    std::uint64_t link_version = 0;
  };
  struct ActiveFault {
    sim::FaultKind kind = sim::FaultKind::kMsgDrop;
    std::optional<MsgType> type;  ///< nullopt: every type
    EndpointId endpoint_a;        ///< none(): any endpoint
    EndpointId endpoint_b;
    Duration extra_latency;  ///< kMsgReorder delay
  };

  /// The fault filter `spec` describes, its endpoint names interned; nullopt
  /// when the spec names an unknown message type (it can match nothing).
  [[nodiscard]] std::optional<ActiveFault> resolve_fault(
      const sim::FaultSpec& spec);
  [[nodiscard]] static bool fault_matches(const ActiveFault& fault,
                                          MsgType type, EndpointId src,
                                          EndpointId dst);
  [[nodiscard]] bool drop_fault_active(MsgType type, EndpointId src,
                                       EndpointId dst) const;
  [[nodiscard]] Duration reorder_delay(MsgType type, EndpointId src,
                                       EndpointId dst) const;
  [[nodiscard]] bool dup_fault_active(MsgType type, EndpointId src,
                                      EndpointId dst) const;

  /// The table index of an id this bus handed out; throws for any other.
  [[nodiscard]] std::size_t table_index(EndpointId id) const;
  /// The state of the directed pair (src, dst), grown on first use.
  [[nodiscard]] PairState& pair(EndpointId src, EndpointId dst);
  /// The link between two endpoints, cached per directed pair.
  [[nodiscard]] sim::Link& link(EndpointId src, EndpointId dst);

  void count_drop(const Envelope& envelope, const char* reason);
  void deliver(std::uint32_t slot);
  void deliver_envelope(const Envelope& envelope);
  void schedule_delivery(const Envelope& envelope, Duration delay);

  sim::Simulation& sim_;
  sim::Network& network_;
  obs::Observability* obs_ = nullptr;

  /// Interned endpoints: names_[id - 1] is the name of `id`. A deque, so
  /// the references name() hands out survive later interning.
  std::deque<std::string> names_;
  std::unordered_map<std::string, EndpointId> ids_;
  /// pairs_[src][dst], indexed by id value; rows grow on demand.
  std::vector<std::vector<PairState>> pairs_;
  /// Bound handlers, indexed by id value. A deque, so a running handler
  /// survives an endpoint interned while it runs.
  std::deque<DeliverFn> handlers_;
  /// In-flight envelopes: a slab whose slots a free list recycles, so a
  /// scheduled event captures only [this, slot] and fits the simulation's
  /// inline-callback budget.
  std::vector<Envelope> pending_;
  std::vector<std::uint32_t> free_pending_;
  std::size_t in_flight_ = 0;
  std::vector<ActiveFault> faults_;

  std::array<obs::CounterHandle, kMessageTypeCount> sent_{};
  std::array<obs::CounterHandle, kMessageTypeCount> delivered_{};
  std::array<obs::CounterHandle, kMessageTypeCount> dropped_{};
  std::array<obs::CounterHandle, kMessageTypeCount> duplicated_{};
  std::array<obs::HistogramHandle, kMessageTypeCount> latency_{};
};

}  // namespace cg::net
