// Deterministic fault injection for the simulated grid: a seeded,
// virtual-time schedule of failures (link partitions, latency degradation,
// node/agent crashes, spool I/O faults) armed onto a Simulation. The same
// plan on the same scenario reproduces the same event sequence bit for bit,
// which is what makes failure-recovery paths regression-testable.
//
// Layering: the injector manipulates the network model directly (it lives in
// sim/), but node, agent, and spool faults are delivered through registered
// handlers so this layer never depends on lrms/, glidein/, or interpose/.
// Tests and harnesses wire the handlers to the component under attack.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/disk.hpp"

#include "sim/network.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace cg::sim {

enum class FaultKind {
  kLinkPartition,  ///< link fully down for [at, at + duration)
  kLinkDegrade,    ///< extra one-way latency on a link while active
  kNodeCrash,      ///< worker-node failure; delivered to a handler
  kAgentCrash,     ///< glide-in agent (carrier) kill; delivered to a handler
  kAgentWedge,     ///< agent event loop stalls (link stays up); via handler
  kSpoolFail,      ///< spool I/O failure window; registered disk + handler
  // Message-level faults on the control-plane bus, filtered by message type
  // (`target`, "*" for all) and endpoint pair (empty endpoints match any).
  // Delivered through registered MessageFaultSinks (net::ControlBus).
  kMsgDrop,     ///< matching messages are silently discarded at send
  kMsgDup,      ///< matching messages are delivered twice
  kMsgReorder,  ///< matching messages are delayed past later traffic
};

[[nodiscard]] constexpr bool is_message_fault(FaultKind kind) {
  return kind == FaultKind::kMsgDrop || kind == FaultKind::kMsgDup ||
         kind == FaultKind::kMsgReorder;
}

[[nodiscard]] std::string_view to_string(FaultKind kind);

/// The victim-query DSL: fault targets may name their victim *indirectly*
/// ("whichever agent job 7 runs on") so plans stay declarative and the
/// resolution happens at fire time against live broker state. Grammar:
///
///   query := func "(" ref ")" | ref
///   func  := "agent_of" | "node_of"
///   ref   := ("job" | "agent") ":" <decimal id>
///
/// Examples: "agent_of(job:7)", "node_of(agent:2)", "node_of(job:7)",
/// "agent:3". Targets that do not parse are treated as opaque strings and
/// passed to handlers unchanged (the pre-DSL behaviour).
struct VictimQuery {
  enum class Fn { kNone, kAgentOf, kNodeOf };
  enum class Ref { kJob, kAgent };
  Fn fn = Fn::kNone;
  Ref ref = Ref::kJob;
  std::uint64_t id = 0;
};

[[nodiscard]] std::optional<VictimQuery> parse_victim_query(
    std::string_view text);

/// One scheduled fault. Link faults name the two endpoints; the other kinds
/// carry an opaque `target` string the registered handler interprets (a node
/// index, an agent id, a spool path — whatever the harness wired up).
struct FaultSpec {
  FaultKind kind = FaultKind::kLinkPartition;
  SimTime at;
  /// Zero means instantaneous (no recovery event is scheduled).
  Duration duration = Duration::zero();
  std::string endpoint_a;
  std::string endpoint_b;
  std::string target;
  Duration extra_latency = Duration::zero();  ///< kLinkDegrade only
};

/// A reproducible fault schedule: built explicitly by a scenario, or
/// generated from a seed for randomized-fault property tests.
class FaultPlan {
public:
  FaultPlan& partition_link(std::string a, std::string b, SimTime at,
                            Duration duration);
  FaultPlan& degrade_link(std::string a, std::string b, SimTime at,
                          Duration duration, Duration extra_latency);
  FaultPlan& crash_node(std::string target, SimTime at,
                        Duration down_for = Duration::zero());
  FaultPlan& crash_agent(std::string target, SimTime at);
  /// Stalls an agent's event loop for the window without touching its link:
  /// the process stops sending heartbeats and accepting work while its
  /// residents keep running. The canonical "wedged but pingable" failure.
  FaultPlan& wedge_agent(std::string target, SimTime at, Duration duration);
  FaultPlan& fail_spool(std::string target, SimTime at, Duration duration);

  // Message-level faults on the control-plane bus. `type` names one message
  // type from the net catalog ("Heartbeat", ...) or "*" for all; `a`/`b`
  // filter by endpoint pair (empty matches any endpoint). The window is
  // [at, at + duration).
  FaultPlan& drop_messages(std::string type, std::string a, std::string b,
                           SimTime at, Duration duration);
  FaultPlan& duplicate_messages(std::string type, std::string a, std::string b,
                                SimTime at, Duration duration);
  /// Delays matching messages by `delay` beyond their modelled latency, so
  /// under per-link FIFO they arrive after later-sent traffic.
  FaultPlan& reorder_messages(std::string type, std::string a, std::string b,
                              SimTime at, Duration duration, Duration delay);

  struct RandomLinkFaultOptions {
    std::string endpoint_a;
    std::string endpoint_b;
    int outages = 3;
    /// Outage start times are drawn uniformly from [0, horizon).
    SimTime horizon = SimTime::from_seconds(60.0);
    Duration min_outage = Duration::seconds(1);
    Duration max_outage = Duration::seconds(10);
  };

  /// Seeded schedule of link partitions on one link: the workhorse of the
  /// randomized-fault properties. The same seed yields the same plan.
  [[nodiscard]] static FaultPlan random_link_outages(
      std::uint64_t seed, const RandomLinkFaultOptions& options);

  [[nodiscard]] const std::vector<FaultSpec>& events() const { return events_; }
  [[nodiscard]] bool empty() const { return events_.empty(); }

private:
  std::vector<FaultSpec> events_;
};

class FaultInjector;

/// Broker-free victim resolution: how kAgentCrash / kAgentWedge / kNodeCrash
/// faults find and hit their concrete victims. The `target` strings are the
/// FaultPlan's — victim-query DSL or opaque names — and each method returns
/// false when the target does not resolve against the harness's state (the
/// installed handlers log that and move on). broker::FaultBridge implements
/// this against live CrossBroker state for grid scenarios; pure stream tests
/// implement it over their hand-built console agents, so both layers declare
/// faults through the same FaultPlan DSL instead of wiring raw handlers.
class FaultVictimResolver {
public:
  virtual ~FaultVictimResolver() = default;
  /// Stalls (or unstalls) the victim agent's event loop.
  virtual bool set_agent_wedged(const std::string& target, bool wedged) = 0;
  /// Kills the victim agent (its carrier job, for glide-ins).
  virtual bool crash_agent(const std::string& target) = 0;
  /// Fails (or revives) the victim worker node.
  virtual bool set_node_failed(const std::string& target, bool failed) = 0;
};

/// How message-level faults (kMsgDrop / kMsgDup / kMsgReorder) reach the
/// control-plane bus without sim/ depending on net/: the bus implements this
/// interface and registers itself on the injector, which forwards each fire
/// and heal. The spec's `target` carries the message-type filter.
class MessageFaultSink {
public:
  virtual ~MessageFaultSink() = default;
  virtual void apply_message_fault(const FaultSpec& spec) = 0;
  virtual void clear_message_fault(const FaultSpec& spec) = 0;
};

/// Installs the canonical kAgentCrash / kAgentWedge / kNodeCrash handlers on
/// the injector, forwarding each fire/heal to the resolver (unresolved
/// targets are logged, not fatal). Replaces any handlers previously set for
/// those kinds. The resolver must outlive the injector's armed plans.
void install_victim_handlers(FaultInjector& injector,
                             FaultVictimResolver& resolver);

/// Arms a FaultPlan onto a simulation. Link faults are applied to the given
/// Network; the rest fire registered handlers at their scheduled times. The
/// injector records a virtual-time timeline of everything it did, whose
/// digest lets tests assert bit-for-bit reproducibility of a failure run.
class FaultInjector {
public:
  using Handler = std::function<void(const FaultSpec&)>;

  /// `network` may be null when the plan contains no link faults.
  explicit FaultInjector(Simulation& sim, Network* network = nullptr);

  /// Installs the delivery handlers for one fault kind. `on_fault` fires at
  /// spec.at; `on_recover` (optional) fires at spec.at + spec.duration.
  void set_handler(FaultKind kind, Handler on_fault, Handler on_recover = {});

  /// Registers every fault in the plan. Link partitions are written into the
  /// link's FailureSchedule immediately (the schedule is time-indexed);
  /// everything else is event-driven. May be called more than once.
  void arm(const FaultPlan& plan);

  /// Registers a spool disk under a name. A kSpoolFail whose target matches
  /// flips the disk unhealthy for the window — the fault fires through real
  /// sim state (appends fail at the DiskModel) instead of relying on a
  /// handler; any kSpoolFail handler still runs afterwards. The disk must
  /// outlive the injector (or be unregistered by registering nullptr).
  void register_disk(std::string name, DiskModel* disk);

  /// Registers a control-plane bus (or any sink) for message-level faults:
  /// every kMsgDrop / kMsgDup / kMsgReorder fire and heal is forwarded to
  /// each registered sink. The sink must outlive the injector's armed plans
  /// (or be unregistered).
  void register_message_sink(MessageFaultSink* sink);
  void unregister_message_sink(MessageFaultSink* sink);

  [[nodiscard]] std::size_t injected_faults() const { return injected_; }
  [[nodiscard]] std::size_t recoveries() const { return recovered_; }
  [[nodiscard]] const std::vector<std::string>& timeline() const {
    return timeline_;
  }
  /// One line per timeline entry; equal digests mean equal failure runs.
  [[nodiscard]] std::string timeline_digest() const;

private:
  void fire(const FaultSpec& spec);
  void heal(const FaultSpec& spec);
  void note(const std::string& entry);
  [[nodiscard]] Link* link_for(const FaultSpec& spec);

  struct Handlers {
    Handler on_fault;
    Handler on_recover;
  };

  Simulation& sim_;
  Network* network_;
  std::map<FaultKind, Handlers> handlers_;
  std::map<std::string, DiskModel*> disks_;
  std::vector<MessageFaultSink*> message_sinks_;
  std::vector<std::string> timeline_;
  std::size_t injected_ = 0;
  std::size_t recovered_ = 0;
};

}  // namespace cg::sim
