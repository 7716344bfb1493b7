#include "broker/fair_share.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cg::broker {

double application_factor_batch() {
  return 1.0;
}

double application_factor_interactive(int performance_loss) {
  // "Interactive jobs worsen the priority faster": a_f = 2 - PL/100, so a
  // fully greedy interactive job (PL = 0) costs twice a batch job.
  return 2.0 - static_cast<double>(performance_loss) / 100.0;
}

double application_factor_yielding_batch(int performance_loss) {
  // A batch job that yielded its machine is charged only for the share it
  // retains.
  return static_cast<double>(performance_loss) / 100.0;
}

FairShare::FairShare(sim::Simulation& sim, FairShareConfig config)
    : sim_{sim}, config_{config} {
  if (config_.update_interval <= Duration::zero()) {
    throw std::invalid_argument{"FairShare: update_interval must be positive"};
  }
  if (config_.half_life <= Duration::zero()) {
    throw std::invalid_argument{"FairShare: half_life must be positive"};
  }
  if (config_.total_resources < 1) {
    throw std::invalid_argument{"FairShare: total_resources must be >= 1"};
  }
}

FairShare::~FairShare() = default;

void FairShare::start() {
  if (started_) return;
  started_ = true;
  schedule_update();
}

void FairShare::stop() {
  started_ = false;
  timer_.reset();
}

void FairShare::set_total_resources(int total) {
  if (total < 1) throw std::invalid_argument{"total_resources must be >= 1"};
  config_.total_resources = total;
}

void FairShare::schedule_update() {
  // Daemon event: accounting ticks must not keep the simulation alive.
  timer_.rearm(sim_, sim_.schedule_daemon(config_.update_interval, [this] {
    if (!started_) return;
    force_update();
    schedule_update();
  }));
}

double FairShare::beta() const {
  const double ratio = config_.update_interval.to_seconds() /
                       config_.half_life.to_seconds();
  return std::pow(0.5, ratio);
}

void FairShare::force_update() {
  const double b = beta();
  // Users with running jobs accumulate; idle users decay toward zero.
  // "User priorities are updated for each user whose current priority is
  // different (worse) than the initial priority" — plus active users.
  for (auto& [id, user] : users_) user.usage = 0.0;
  for (const RunningJob& rj : running_) {
    rj.user->usage += rj.af * static_cast<double>(rj.nodes) /
                      static_cast<double>(config_.total_resources);
  }
  for (auto it = users_.begin(); it != users_.end();) {
    User& user = it->second;
    if (user.running > 0) {
      user.priority = b * user.priority + (1.0 - b) * user.usage;
      user.charged = true;
    } else {
      user.priority *= b;  // pure decay
      if (user.priority < 1e-12) {
        it = users_.erase(it);  // fully restored credits
        continue;
      }
    }
    ++it;
  }
}

std::vector<FairShare::RunningJob>::iterator FairShare::running_at(JobId job) {
  return std::lower_bound(
      running_.begin(), running_.end(), job,
      [](const RunningJob& rj, JobId id) { return rj.job < id; });
}

void FairShare::job_started(UserId user, JobId job, double af, int nodes) {
  if (!user.valid() || !job.valid()) {
    throw std::invalid_argument{"FairShare::job_started: invalid ids"};
  }
  if (af < 0.0 || nodes < 1) {
    throw std::invalid_argument{"FairShare::job_started: bad af/nodes"};
  }
  User* entry = &users_[user];
  ++entry->running;
  const auto it = running_at(job);
  if (it != running_.end() && it->job == job) {
    --it->user->running;
    *it = RunningJob{job, entry, af, nodes};
  } else {
    running_.insert(it, RunningJob{job, entry, af, nodes});
  }
}

void FairShare::job_finished(JobId job) {
  const auto it = running_at(job);
  if (it == running_.end() || it->job != job) return;
  --it->user->running;
  running_.erase(it);
}

void FairShare::set_application_factor(JobId job, double af) {
  const auto it = running_at(job);
  if (it == running_.end() || it->job != job) return;
  it->af = af;
}

double FairShare::priority(UserId user) const {
  const auto it = users_.find(user);
  return it != users_.end() && it->second.charged ? it->second.priority : 0.0;
}

double FairShare::instantaneous_usage(UserId user) const {
  const auto entry = users_.find(user);
  if (entry == users_.end()) return 0.0;
  double total = 0.0;
  for (const RunningJob& rj : running_) {
    if (rj.user == &entry->second) {
      total += rj.af * static_cast<double>(rj.nodes) /
               static_cast<double>(config_.total_resources);
    }
  }
  return total;
}

std::vector<UserId> FairShare::users_by_priority() const {
  std::vector<UserId> users;
  users.reserve(users_.size());
  for (const auto& [user, entry] : users_) {
    if (entry.charged) users.push_back(user);
  }
  std::stable_sort(users.begin(), users.end(), [this](UserId a, UserId b) {
    return priority(a) < priority(b);
  });
  return users;
}

bool FairShare::is_worst(UserId user, double epsilon) const {
  const double p = priority(user);
  if (p <= epsilon) return false;
  for (const auto& [other, entry] : users_) {
    if (other != user && entry.charged && entry.priority >= p) return false;
  }
  return true;
}

}  // namespace cg::broker
