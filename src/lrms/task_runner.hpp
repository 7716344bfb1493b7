// Executes a Workload on the virtual clock under a time-varying dilation
// factor. When a co-resident job changes a node's CPU shares, the host calls
// notify_dilation_changed(); the in-flight phase is re-timed from its
// remaining undilated work, so arbitrary share changes mid-phase are exact.
#pragma once

#include <functional>

#include "lrms/workload.hpp"
#include "sim/simulation.hpp"

namespace cg::lrms {

class TaskRunner {
public:
  /// Returns the current dilation factor (>= 1.0) for a phase kind.
  using DilationFn = std::function<double(PhaseKind)>;
  /// Called when the task reaches a kBarrier phase (with the number of
  /// barriers passed so far, 0-based); the task blocks until
  /// release_barrier(). Without a handler, barriers complete instantly.
  using BarrierFn = std::function<void(int barrier_index)>;
  /// Observes each completed phase with its *measured* (dilated) duration.
  using PhaseObserver = std::function<void(const Phase&, Duration measured)>;
  using CompletionFn = std::function<void()>;

  TaskRunner(sim::Simulation& sim, Workload workload, DilationFn dilation,
             CompletionFn on_complete, PhaseObserver observer = nullptr);
  ~TaskRunner();
  TaskRunner(const TaskRunner&) = delete;
  TaskRunner& operator=(const TaskRunner&) = delete;

  /// Begins execution. Manual workloads complete only via finish_manual().
  void start();

  /// Re-reads the dilation factor and re-times the current phase.
  void notify_dilation_changed();

  /// Completes a manual workload (e.g. the broker dismissing an agent).
  /// No-op if the task already completed or is not manual.
  void finish_manual();

  /// Installs the barrier handler (before start()).
  void set_barrier_handler(BarrierFn handler);

  /// Releases a task blocked at a barrier; no-op otherwise.
  void release_barrier();

  /// Abandons execution without firing the completion callback.
  void cancel();

  [[nodiscard]] bool running() const { return state_ == State::kRunning; }
  [[nodiscard]] bool finished() const { return state_ == State::kFinished; }

private:
  enum class State { kIdle, kRunning, kFinished, kCancelled };

  void begin_phase();
  void schedule_phase_end();
  void on_phase_end();
  [[nodiscard]] double dilation_for(PhaseKind kind) const;

  sim::Simulation& sim_;
  Workload workload_;
  DilationFn dilation_;
  CompletionFn on_complete_;
  PhaseObserver observer_;
  BarrierFn barrier_handler_;
  bool at_barrier_ = false;
  int barriers_passed_ = 0;

  State state_ = State::kIdle;
  std::size_t phase_index_ = 0;
  Duration phase_remaining_base_ = Duration::zero();  ///< undilated work left
  SimTime phase_started_at_;        ///< when the current timing segment began
  SimTime phase_first_started_at_;  ///< when the phase itself began
  double current_dilation_ = 1.0;
  sim::EventHandle pending_;
};

}  // namespace cg::lrms
