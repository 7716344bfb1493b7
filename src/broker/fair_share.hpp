// Fair-share accounting (Section 5.1). Each user carries a dynamic priority
//
//   P(u,t) = beta * P(u, t - dt) + (1 - beta) * a_f * r(u,t),
//   beta   = 0.5^(dt / h)        (h = half-life period)
//
// where r(u,t) is the normalized resource usage and a_f the application
// factor: 1 for batch jobs, (2 - PL/100) for interactive jobs, and PL/100
// for a batch job forced to yield its machine to an interactive one. Higher
// P means *worse* priority. Idle users decay back toward zero with
// half-life h ("the original number of credits will gradually be restored").
//
// Note: the paper prints the decay constant as "beta = 0.5*dt/h"; we read it
// as the standard exponential half-life form 0.5^(dt/h), which is the only
// interpretation under which priorities "gradually restore according to h".
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "sim/simulation.hpp"
#include "util/ids.hpp"

namespace cg::broker {

struct FairShareConfig {
  /// Update period dt.
  Duration update_interval = Duration::seconds(10);
  /// Half-life h of the priority decay.
  Duration half_life = Duration::seconds(3600);
  /// Resources in the grid used to normalize r(u,t); set by the broker.
  int total_resources = 1;
};

/// Application factors (Section 5.1).
[[nodiscard]] double application_factor_batch();
[[nodiscard]] double application_factor_interactive(int performance_loss);
[[nodiscard]] double application_factor_yielding_batch(int performance_loss);

class FairShare {
public:
  FairShare(sim::Simulation& sim, FairShareConfig config);
  ~FairShare();
  FairShare(const FairShare&) = delete;
  FairShare& operator=(const FairShare&) = delete;

  /// Starts the periodic update loop (idempotent).
  void start();
  /// Stops the loop (tests; destruction also stops it).
  void stop();

  void set_total_resources(int total);

  /// Records a job consuming `nodes` resources with application factor `af`.
  void job_started(UserId user, JobId job, double af, int nodes);
  void job_finished(JobId job);

  /// Changes a running job's application factor (a batch job demoted to
  /// yield its machine gets af = PL/100, Section 5.1).
  void set_application_factor(JobId job, double af);

  /// Current priority (higher = worse). Unknown users have priority 0.
  [[nodiscard]] double priority(UserId user) const;

  /// Instantaneous weighted usage a_f * r for a user (before smoothing).
  [[nodiscard]] double instantaneous_usage(UserId user) const;

  /// Users ordered best (lowest P) to worst.
  [[nodiscard]] std::vector<UserId> users_by_priority() const;

  /// True if `user` has the strictly worst priority among all tracked users
  /// with any priority above `epsilon` (the rejection test used when
  /// resources run short).
  [[nodiscard]] bool is_worst(UserId user, double epsilon = 1e-9) const;

  [[nodiscard]] const FairShareConfig& config() const { return config_; }
  /// Applies one update step immediately (tests).
  void force_update();

private:
  /// One entry per user that has a priority or a running job. The entry
  /// lives in a map node, so the running jobs that name it keep a stable
  /// pointer across inserts; an update erases only entries no job names.
  struct User {
    double priority = 0.0;
    /// Set by the first update that charges the user: until then priority()
    /// reads 0 and the rankings leave the user out.
    bool charged = false;
    int running = 0;     ///< running jobs that name this entry
    double usage = 0.0;  ///< the current update's weighted usage
  };
  struct RunningJob {
    JobId job;
    User* user;
    double af;
    int nodes;
  };

  void schedule_update();
  [[nodiscard]] double beta() const;
  /// Where `job` is, or would be inserted, in running_.
  [[nodiscard]] std::vector<RunningJob>::iterator running_at(JobId job);

  sim::Simulation& sim_;
  FairShareConfig config_;
  std::map<UserId, User> users_;
  /// Flat and ordered by JobId: an update sums each user's terms in
  /// ascending job order, the order a std::map<JobId, ...> walk gave.
  std::vector<RunningJob> running_;
  bool started_ = false;
  sim::ScopedTimer timer_;
};

}  // namespace cg::broker
