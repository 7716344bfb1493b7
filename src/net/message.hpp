// The closed catalog of control-plane messages. Every broker <-> agent <->
// site exchange travels as exactly one of these typed payloads inside an
// Envelope, so the whole control plane shares one delivery implementation
// (ControlBus) — one place that applies link latency, partition windows,
// per-link sequencing, per-type metrics, and message-level fault injection.
//
// The catalog is deliberately closed (a std::variant, not an interface):
// adding a message type is an explicit, reviewable act, and the per-type
// observability handles and fault filters index by the variant alternative.
// A payload names everything its receiver needs: what a message does is
// written once, in the handler bound at its destination endpoint.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <variant>

#include "util/ids.hpp"
#include "util/time.hpp"

namespace cg::net {

/// Two-phase-commit phase carried by a SubmitJob message.
enum class SubmitPhase { kPrepare, kCommit };

/// Lifecycle edge reported by a JobStatus message.
enum class StatusPhase { kStarted, kCompleted };

/// Broker -> gatekeeper: one phase of the two-phase-commit submission of a
/// grid job (or a glide-in carrier). `job` is the LRMS-visible job id, under
/// which the request was filed with the gatekeeper.
struct SubmitJob {
  JobId job;
  SubmitPhase phase = SubmitPhase::kPrepare;
};

/// Broker -> agent: start a subjob on a glide-in VM's interactive slot.
/// Rides the direct broker <-> agent channel plus the executable staging
/// transfer. `job` is the subjob's LRMS-visible id; `broker_job` and `sub`
/// name the broker's job and the attempt's subjob.
struct DispatchJob {
  JobId job;
  int rank = 0;
  JobId broker_job{};
  SubJobId sub{};
  AgentId agent{};
};

/// Broker -> gatekeeper: remove a job from the local queue (queued_only) or
/// kill it wherever it is.
struct CancelJob {
  JobId job;
  bool queued_only = false;
};

/// Broker -> agent: kill a resident job on a VM (user cancellation). `job`
/// is its LRMS-visible id. An interactive slot kills that job; the batch
/// slot kills whatever runs there.
struct KillJob {
  JobId job;
  AgentId agent{};
  bool interactive_slot = false;
};

/// Site/agent -> broker: a subjob crossed a lifecycle edge. `job` is the
/// broker's job, `sub` the attempt's subjob; `agent` and `interactive_slot`
/// name the VM it ran on (agent none() for a direct placement).
struct JobStatus {
  JobId job;
  StatusPhase phase = StatusPhase::kStarted;
  SubJobId sub{};
  AgentId agent{};
  bool interactive_slot = false;
};

/// Agent -> broker: the glide-in bootstrapped and its VMs exist.
struct AgentRegister {
  AgentId agent;
};

/// Agent -> broker: the agent's keepalive, one per supervision tick, sent
/// from its event loop (a wedged or dead agent sends none). `seq` counts the
/// agent's heartbeats from 1.
struct Heartbeat {
  AgentId agent;
  std::uint64_t seq = 0;
};

/// Broker -> agent: a running resident timed out behind a suspected agent
/// and is being evicted (best-effort kill on the agent side). `job` is the
/// broker's job; the kill follows KillJob's rule for `lrms_job_id` and the
/// slot.
struct EvictNotice {
  JobId job;
  AgentId agent;
  JobId lrms_job_id{};
  bool interactive_slot = false;
};

/// Bulk sandbox transfer riding a link's bandwidth: input staging toward a
/// site (inbound) or OutputSandbox return toward the submitter.
struct StageSandbox {
  JobId job;
  std::uint64_t bytes = 0;
  bool inbound = true;
};

using Message =
    std::variant<SubmitJob, DispatchJob, CancelJob, KillJob, JobStatus,
                 AgentRegister, Heartbeat, EvictNotice, StageSandbox>;

/// Mirror of the variant's alternative order (used to index per-type
/// observability handles and to name types in fault filters).
enum class MsgType : std::size_t {
  kSubmitJob,
  kDispatchJob,
  kCancelJob,
  kKillJob,
  kJobStatus,
  kAgentRegister,
  kHeartbeat,
  kEvictNotice,
  kStageSandbox,
};

inline constexpr std::size_t kMessageTypeCount =
    std::variant_size_v<Message>;

[[nodiscard]] constexpr MsgType type_of(const Message& msg) {
  return static_cast<MsgType>(msg.index());
}

[[nodiscard]] constexpr std::string_view to_string(MsgType type) {
  switch (type) {
    case MsgType::kSubmitJob: return "SubmitJob";
    case MsgType::kDispatchJob: return "DispatchJob";
    case MsgType::kCancelJob: return "CancelJob";
    case MsgType::kKillJob: return "KillJob";
    case MsgType::kJobStatus: return "JobStatus";
    case MsgType::kAgentRegister: return "AgentRegister";
    case MsgType::kHeartbeat: return "Heartbeat";
    case MsgType::kEvictNotice: return "EvictNotice";
    case MsgType::kStageSandbox: return "StageSandbox";
  }
  return "unknown";
}

/// Parses a type name as written in fault plans ("Heartbeat"). "*" and ""
/// mean every type and return nullopt from here; unknown names also return
/// nullopt (callers distinguish via is_wildcard_type).
[[nodiscard]] std::optional<MsgType> type_from_name(std::string_view name);

[[nodiscard]] constexpr bool is_wildcard_type(std::string_view name) {
  return name.empty() || name == "*";
}

/// The job a message concerns, for trace attribution (JobId::none() for
/// agent-level messages).
[[nodiscard]] JobId job_of(const Message& msg);

/// The glide-in agent a message names (AgentId::none() when it names none):
/// how a site's glide-in host finds the receiver of an agent-side message.
[[nodiscard]] AgentId agent_of(const Message& msg);

}  // namespace cg::net
