// Broker-side job bookkeeping: lifecycle states and the phase timestamps
// that the Table I evaluation reports (resource discovery, resource
// selection, submission-to-first-activity).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "jdl/job_description.hpp"
#include "lrms/workload.hpp"
#include "util/expected.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace cg::broker {

enum class JobState {
  kSubmitted,    ///< accepted by the broker, not yet scheduled
  kDiscovery,    ///< querying the information system index
  kSelection,    ///< contacting candidate sites for fresh state
  kDispatching,  ///< submitting to a gatekeeper or glide-in agent
  kQueuedBroker, ///< waiting inside the broker for a free machine
  kRunning,
  kCompleted,
  kFailed,
  kRejected,     ///< refused by fair-share policy
};

[[nodiscard]] std::string to_string(JobState state);
[[nodiscard]] bool is_terminal(JobState state);

/// How the job was finally placed (Table I's row classes).
enum class PlacementKind {
  kNone,
  kIdleMachine,     ///< interactive exclusive / direct placement
  kInteractiveVm,   ///< glide-in interactive-vm (shared mode)
  kNewAgent,        ///< agent + job submitted together
};

[[nodiscard]] std::string to_string(PlacementKind kind);

struct JobTimestamps {
  SimTime submitted;
  std::optional<SimTime> discovery_done;
  std::optional<SimTime> selection_done;
  std::optional<SimTime> dispatched;
  std::optional<SimTime> running;
  std::optional<SimTime> completed;
};

struct JobRecord;

struct JobCallbacks {
  std::function<void(const JobRecord&)> on_state_change;
  std::function<void(const JobRecord&)> on_running;
  std::function<void(const JobRecord&)> on_complete;
  std::function<void(const JobRecord&, const Error&)> on_failed;
  /// Observes every executed workload phase with its measured (dilated)
  /// duration — the Fig. 8 instrumentation point. For parallel jobs the
  /// observer sees phases from every subjob.
  std::function<void(const lrms::Phase&, Duration measured)> phase_observer;
};

/// Names one subjob of one scheduling attempt. Every attempt gives its
/// subjobs fresh SubJobIds, so a ref held by a deferred continuation or an
/// agent-table entry stops resolving once its attempt is superseded.
struct SubJobRef {
  JobId job;
  SubJobId sub;

  [[nodiscard]] bool operator==(const SubJobRef&) const = default;
};

/// One subjob's placement (parallel jobs have several).
struct SubJobRecord {
  SubJobId id;
  int rank = 0;
  SiteId site;
  std::optional<AgentId> agent;  ///< set when running on an interactive-vm
  /// Grid-wide unique id under which this subjob is known to the site LRMS.
  JobId lrms_job_id;
  bool started = false;
  bool completed = false;
};

struct JobRecord {
  JobId id;
  UserId user;
  jdl::JobDescription description;
  lrms::Workload workload;
  std::string submitter_endpoint;
  JobState state = JobState::kSubmitted;
  PlacementKind placement = PlacementKind::kNone;
  JobTimestamps timestamps;
  std::vector<SubJobRecord> subjobs;
  int resubmissions = 0;
  std::optional<Error> last_error;

  /// The execution site for sequential jobs (first subjob's site).
  [[nodiscard]] std::optional<SiteId> site() const {
    if (subjobs.empty() || !subjobs.front().site.valid()) return std::nullopt;
    return subjobs.front().site;
  }
};

}  // namespace cg::broker
