#include "broker/site_health.hpp"

#include <algorithm>
#include <cmath>

namespace cg::broker {

namespace {
/// Below this a decayed entry is indistinguishable from healthy; it is
/// dropped so long runs do not accumulate dead per-site state.
constexpr double kSuspicionFloor = 1e-6;
}  // namespace

double SiteHealth::suspicion_at(SiteId site, SimTime when) const {
  if (!config_.enabled) return 0.0;
  const auto it = entries_.find(site);
  if (it == entries_.end()) return 0.0;
  const Duration dt = when - it->second.updated;
  if (dt <= Duration::zero()) return it->second.suspicion;
  const double halves = dt.to_seconds() / config_.half_life.to_seconds();
  return it->second.suspicion * std::pow(0.5, halves);
}

double SiteHealth::score_of(double suspicion) const {
  return std::pow(0.5, suspicion);
}

void SiteHealth::apply(SiteId site, double delta) {
  if (!config_.enabled) return;
  const SimTime now = sim_.now();
  const double current = suspicion_at(site, now);
  if (delta < 0.0) {
    if (current == 0.0) return;  // nothing to reward away
    // Reward gating (see header): while the site is hard-excluded, only
    // decay may lower its suspicion.
    if (current >= config_.exclusion_threshold) return;
  }
  const double next =
      std::clamp(current + delta, 0.0, config_.max_suspicion);
  if (next < kSuspicionFloor) {
    entries_.erase(site);
  } else {
    entries_[site] = Entry{next, now};
  }
  if (metrics_ != nullptr) {
    metrics_
        ->gauge("broker.site.health",
                obs::LabelSet{{"site", std::to_string(site.value())}})
        .set(score_of(next < kSuspicionFloor ? 0.0 : next));
  }
}

}  // namespace cg::broker
