#include "grid/grid.hpp"

namespace cg {

Grid::Grid(GridConfig config) : scenario_{std::move(config)} {
  scenario_.broker().set_observability(&obs_);
  for (std::size_t i = 0; i < scenario_.site_count(); ++i) {
    lrms::Site& site = scenario_.site(i);
    site.scheduler().set_metrics(
        &obs_.metrics,
        obs::LabelSet{{"site", std::to_string(site.id().value())}});
  }
}

Expected<JobHandle, broker::SubmitError> Grid::submit(
    jdl::JobDescription description, UserId user, lrms::Workload workload,
    broker::JobCallbacks callbacks) {
  Expected<JobId, broker::SubmitError> submitted = scenario_.broker().submit(
      std::move(description), user, std::move(workload),
      broker::GridScenario::ui_endpoint(), std::move(callbacks));
  if (!submitted) return submitted.error();
  return JobHandle{this, *submitted};
}

const broker::JobRecord* JobHandle::record() const {
  if (grid_ == nullptr) return nullptr;
  return grid_->broker().record(id_);
}

broker::JobState JobHandle::state() const {
  const broker::JobRecord* rec = record();
  return rec != nullptr ? rec->state : broker::JobState::kSubmitted;
}

bool JobHandle::done() const {
  const broker::JobRecord* rec = record();
  return rec != nullptr && broker::is_terminal(rec->state);
}

Expected<const broker::JobRecord*, broker::SubmitError> JobHandle::await() {
  if (grid_ == nullptr) {
    return broker::make_submit_error(broker::SubmitErrorKind::kInternal,
                                     "grid.no_handle",
                                     "await on a default-constructed handle");
  }
  const broker::JobRecord* rec = record();
  if (rec == nullptr) {
    return broker::make_submit_error(broker::SubmitErrorKind::kInternal,
                                     "grid.unknown_job",
                                     "no record for this job id");
  }
  sim::Simulation& sim = grid_->sim();
  while (!broker::is_terminal(rec->state) && sim.pending_events() > 0) {
    sim.step();
  }
  if (rec->state == broker::JobState::kCompleted) return rec;
  if (!broker::is_terminal(rec->state)) {
    return broker::make_submit_error(
        broker::SubmitErrorKind::kInternal, "grid.stalled",
        "simulation drained before the job finished (state " +
            broker::to_string(rec->state) + ")");
  }
  if (rec->last_error) return broker::classify_submit_error(*rec->last_error);
  return broker::make_submit_error(broker::SubmitErrorKind::kInternal,
                                   "grid.failed",
                                   "job ended " + broker::to_string(rec->state) +
                                       " without a recorded error");
}

std::vector<obs::JobTraceEvent> JobHandle::trace() const {
  if (grid_ == nullptr) return {};
  return grid_->tracer().for_job(id_);
}

obs::JobTracer::SubscriptionId JobHandle::on_event(
    obs::TraceEventKind kind,
    std::function<void(const obs::JobTraceEvent&)> callback) {
  if (grid_ == nullptr) return 0;
  return grid_->tracer().subscribe(
      kind, [job = id_, fn = std::move(callback)](const obs::JobTraceEvent& e) {
        if (e.job == job) fn(e);
      });
}

}  // namespace cg
