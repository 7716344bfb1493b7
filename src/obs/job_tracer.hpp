// Structured per-job lifecycle tracing: every transition a job makes through
// the grid (submitted -> matched -> leased -> dispatched -> started ->
// streaming -> resubmitted/suspected -> done) is recorded as a *typed* event
// with its virtual timestamp. It is the grid's one job trace, the analogue
// of the DataGrid Logging & Bookkeeping record: exports are JSON-lines for
// tooling and Chrome `trace_event` format for flame-graph viewing
// (chrome://tracing, Perfetto).
//
// Determinism contract: events are appended in simulation order and exports
// contain nothing but virtual time and recorded fields, so two same-seed
// runs produce byte-identical exports.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"  // LabelSet
#include "util/ids.hpp"
#include "util/time.hpp"

namespace cg::obs {

enum class TraceEventKind {
  // Lifecycle spine.
  kSubmitted,
  kDiscovery,
  kSelection,
  kMatched,
  kLeaseAcquired,
  kLeaseRevoked,
  kDispatched,
  kQueuedLocal,
  kQueuedBroker,
  kStarted,       ///< a subjob started on its resource
  kRunning,       ///< the whole job runs (startup barrier passed)
  kStreaming,     ///< console/streaming activity (frames, reconnects)
  kResubmitted,
  kJobEvicted,    ///< running resident timed out behind a suspected agent
  kCompleted,
  kFailed,
  kRejected,
  // Infrastructure events (JobId::none() unless tied to one job).
  kAgentDeployed,
  kAgentSuspected,
  kAgentRestored,
  kAgentDied,
  kHeartbeatMiss,
  kLivenessMiss,  ///< sequenced probe not echoed from the agent's event loop
  kLinkDown,
  kLinkUp,
  kFrameDropped,
  kReconnected,
  kSpoolFull,     ///< reliable-mode append rejected (capacity or disk fault)
  kMsgDropped,    ///< control-plane message lost (partition or kMsgDrop fault)
  kMsgDuplicated, ///< control-plane message delivered twice (kMsgDup fault)
  kInfo,
};

[[nodiscard]] std::string_view to_string(TraceEventKind kind);

struct JobTraceEvent {
  SimTime when;
  JobId job;  ///< JobId::none() for grid-global events
  TraceEventKind kind = TraceEventKind::kInfo;
  std::string detail;
  /// Structured attributes (site, agent, rank, bytes, attempt, ...) —
  /// queryable without parsing the detail string.
  LabelSet attrs;
};

class JobTracer {
public:
  /// Live subscription to recorded events: listeners run synchronously from
  /// record(), after the event is appended, in subscription order. They see
  /// only simulation-ordered, deterministic data, so observing does not
  /// perturb a run. A listener may subscribe or unsubscribe (itself
  /// included) from within a callback; listeners added during a callback
  /// only see later events.
  using SubscriptionId = std::uint64_t;
  using Listener = std::function<void(const JobTraceEvent&)>;

  void record(SimTime when, JobId job, TraceEventKind kind, std::string detail,
              LabelSet attrs = {});

  /// Subscribes to every event.
  SubscriptionId subscribe(Listener listener);
  /// Subscribes to one event kind.
  SubscriptionId subscribe(TraceEventKind kind, Listener listener);
  /// Removes a subscription; unknown ids are ignored.
  void unsubscribe(SubscriptionId id);

  [[nodiscard]] const std::vector<JobTraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::vector<JobTraceEvent> for_job(JobId job) const;
  [[nodiscard]] std::vector<JobTraceEvent> of_kind(TraceEventKind kind) const;
  [[nodiscard]] std::size_t count(TraceEventKind kind) const;
  /// First event of a kind for a job, or null.
  [[nodiscard]] const JobTraceEvent* first(JobId job, TraceEventKind kind) const;

  /// Human-readable rendering, one event per line.
  [[nodiscard]] std::string render() const;

  /// One JSON object per line:
  ///   {"ts_us":1234,"job":7,"kind":"resubmitted","detail":"...","attrs":{...}}
  [[nodiscard]] std::string to_jsonl() const;

  /// Chrome trace_event JSON (load in chrome://tracing or ui.perfetto.dev).
  /// Each job is a track (tid); consecutive lifecycle events become complete
  /// ("X") slices so the lifecycle reads as a flame graph, and infrastructure
  /// events appear as instant ("i") marks.
  [[nodiscard]] std::string to_chrome_trace() const;

  /// Drops recorded events; subscriptions stay installed.
  void clear() { events_.clear(); }

private:
  struct Subscription {
    SubscriptionId id = 0;
    std::optional<TraceEventKind> kind;  ///< nullopt: every kind
    Listener fn;
  };

  void notify(std::size_t event_index);

  std::vector<JobTraceEvent> events_;
  std::vector<Subscription> subscriptions_;
  SubscriptionId next_subscription_ = 1;
};

}  // namespace cg::obs
