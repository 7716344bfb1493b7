#include "lrms/worker_node.hpp"

#include <stdexcept>

#include "jdl/parser.hpp"

namespace cg::lrms {

WorkerNode::WorkerNode(sim::Simulation& sim, NodeId id, WorkerNodeSpec spec)
    : sim_{sim}, id_{id}, spec_{std::move(spec)}, rng_{0x9e3779b9u ^ id.value()} {
  machine_ad_.set_int("MemoryMB", spec_.memory_mb);
  machine_ad_.set_real("CpuSpeed", spec_.cpu_speed);
  machine_ad_.set_int("NodeId", static_cast<std::int64_t>(id_.value()));
  for (const auto& [name, expression] : spec_.extra_attributes) {
    auto expr = jdl::parse_expression(expression);
    if (expr.has_value()) {
      machine_ad_.set(name, std::move(expr.value()));
    } else {
      throw std::invalid_argument{"WorkerNode: bad attribute expression for " +
                                  name + ": " + expr.error().to_string()};
    }
  }
}

std::optional<JobId> WorkerNode::current_job() const {
  if (!job_) return std::nullopt;
  return job_->id;
}

void WorkerNode::reserve() {
  if (runner_) throw std::logic_error{"WorkerNode::reserve: node is busy"};
  reserved_ = true;
}

void WorkerNode::run(LocalJob job) {
  if (runner_) throw std::logic_error{"WorkerNode::run: node is busy"};
  if (failed_) throw std::logic_error{"WorkerNode::run: node is failed"};
  reserved_ = false;
  job_ = std::move(job);

  auto dilation = job_->dilation;
  const double speed = spec_.cpu_speed;
  // Node speed composes with any job-supplied dilation: slower nodes stretch
  // CPU phases by 1/speed; I/O is unaffected by CPU speed. Multiplicative
  // execution noise reproduces the per-iteration scatter of real machines.
  TaskRunner::DilationFn effective = [this, dilation, speed](PhaseKind kind) {
    double d = dilation ? dilation(kind) : 1.0;
    if (kind == PhaseKind::kCpu && speed > 0.0) d /= speed;
    if (d < 1.0) d = 1.0;
    const double noise_fraction = kind == PhaseKind::kCpu
                                      ? spec_.cpu_noise_fraction
                                      : spec_.io_noise_fraction;
    if (noise_fraction > 0.0) {
      d *= rng_.normal(1.0, noise_fraction);
      if (d <= 0.0) d = noise_fraction;  // absurd tail sample
    }
    return d;
  };

  runner_ = std::make_unique<TaskRunner>(
      sim_, job_->workload, std::move(effective),
      [this] {
        // Keep the job's callback alive past the state reset: completion may
        // immediately re-dispatch another job onto this node.
        auto on_complete = job_ ? job_->on_complete : nullptr;
        // Move the runner into a local instead of resetting it: this closure
        // lives inside the runner, so destroying it here would free the
        // captures while the body is still executing. The local destroys it
        // after the last capture access, when the body ends.
        auto finished = std::move(runner_);
        job_.reset();
        if (on_complete) on_complete();
      },
      job_->phase_observer);
  if (job_->barrier_handler) runner_->set_barrier_handler(job_->barrier_handler);
  if (job_->on_start) job_->on_start(id_);
  runner_->start();
}

std::optional<JobId> WorkerNode::kill_current() {
  if (!runner_) return std::nullopt;
  const JobId killed = job_->id;
  runner_->cancel();
  runner_.reset();
  job_.reset();
  return killed;
}

std::optional<JobId> WorkerNode::fail() {
  failed_ = true;
  reserved_ = false;
  return kill_current();
}

void WorkerNode::finish_current_manual() {
  if (!runner_) return;
  runner_->finish_manual();
}

void WorkerNode::notify_dilation_changed() {
  if (runner_) runner_->notify_dilation_changed();
}

void WorkerNode::release_barrier() {
  if (runner_) runner_->release_barrier();
}

}  // namespace cg::lrms
