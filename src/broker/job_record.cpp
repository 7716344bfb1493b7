#include "broker/job_record.hpp"

namespace cg::broker {

std::string to_string(JobState state) {
  switch (state) {
    case JobState::kSubmitted: return "submitted";
    case JobState::kDiscovery: return "discovery";
    case JobState::kSelection: return "selection";
    case JobState::kDispatching: return "dispatching";
    case JobState::kQueuedBroker: return "queued-broker";
    case JobState::kRunning: return "running";
    case JobState::kCompleted: return "completed";
    case JobState::kFailed: return "failed";
    case JobState::kRejected: return "rejected";
  }
  return "?";
}

bool is_terminal(JobState state) {
  return state == JobState::kCompleted || state == JobState::kFailed ||
         state == JobState::kRejected;
}

std::string to_string(PlacementKind kind) {
  switch (kind) {
    case PlacementKind::kNone: return "none";
    case PlacementKind::kIdleMachine: return "idle-machine";
    case PlacementKind::kInteractiveVm: return "interactive-vm";
    case PlacementKind::kNewAgent: return "new-agent";
  }
  return "?";
}

}  // namespace cg::broker
