// Suspicion-aware placement: a per-site health score the broker maintains
// from supervision outcomes (agent suspicions, missed heartbeats,
// partition evictions, restorations, clean completions) and the matchmaker
// consults as a rank penalty plus a hard-exclusion window. The score is a
// *suspicion* accumulator with exponential time-decay in the spirit of the
// paper's fair-share half-life formula (beta = 0.5^(dt/h)): penalties raise
// it instantly, and with no further evidence it halves every kHalfLife of
// virtual time, so a partitioned site becomes eligible again once its score
// recovers below the exclusion threshold.
//
// Determinism contract: all timestamps are virtual (sim.now()), every update
// is driven by simulation events, and queries are pure functions of
// (recorded score, recorded time, query time) — same-seed runs see identical
// health state at identical virtual times, so placement decisions and the
// typed trace repeat byte for byte with scoring active.
//
// Reward gating: rewards (completion, restoration) are dropped while the
// decayed score is at or above the exclusion threshold, so a hard exclusion
// window ends by decay alone. Its length is set by the penalties that opened
// it (log2(suspicion / threshold) half-lives); jobs that still complete on
// the site, or an agent restored there, cannot readmit it early.
#pragma once

#include <cstddef>
#include <map>

#include "obs/metrics.hpp"
#include "sim/simulation.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace cg::broker {

class SiteHealth {
public:
  /// Suspicion halves every half-life with no new evidence
  /// (beta = 0.5^(dt/h)).
  static constexpr Duration kHalfLife = Duration::seconds(600);
  /// Evidence: an agent suspected on the site; one missed heartbeat (small,
  /// so isolated misses only bias tie-breaking); a running resident evicted
  /// behind a partition (the strongest signal the site is bad); rewards per
  /// clean job completion and per restored agent.
  static constexpr double kSuspectPenalty = 1.0;
  static constexpr double kMissPenalty = 0.1;
  static constexpr double kEvictionPenalty = 2.0;
  static constexpr double kCompletionReward = 0.25;
  static constexpr double kRestoreReward = 0.5;
  /// Suspicion at or above this hard-excludes the site from placement until
  /// decay brings it back under.
  static constexpr double kExclusionThreshold = 1.5;
  /// Suspicion cap, so one long incident cannot exclude a site forever
  /// (recovery from the cap takes log2(cap/threshold) half-lives).
  static constexpr double kMaxSuspicion = 8.0;

  explicit SiteHealth(sim::Simulation& sim) : sim_{sim} {}

  // -- evidence (called by the broker and its AgentSupervisor) -------------
  void note_suspected(SiteId site) { apply(site, kSuspectPenalty); }
  void note_miss(SiteId site) { apply(site, kMissPenalty); }
  void note_eviction(SiteId site) { apply(site, kEvictionPenalty); }
  void note_restored(SiteId site) { apply(site, -kRestoreReward); }
  void note_completion(SiteId site) { apply(site, -kCompletionReward); }

  // -- queries (pure; consulted by Matchmaker and CrossBroker) -------------
  /// Decayed suspicion at now(); 0 for untracked (healthy) sites.
  [[nodiscard]] double suspicion(SiteId site) const;
  /// Health score in (0, 1]: 0.5^suspicion (1 = no recorded suspicion).
  [[nodiscard]] double score(SiteId site) const {
    return score_of(suspicion(site));
  }
  [[nodiscard]] bool hard_excluded(SiteId site) const {
    return suspicion(site) >= kExclusionThreshold;
  }

  /// Attaches the registry the broker.site.health gauge is published to
  /// (nullptr detaches; observation is optional).
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Sites with nonzero recorded suspicion (tests).
  [[nodiscard]] std::size_t tracked_sites() const { return entries_.size(); }

private:
  struct Entry {
    double suspicion = 0.0;
    SimTime updated;
  };

  [[nodiscard]] double score_of(double suspicion) const;
  /// Decays to now, then applies a penalty (delta > 0) or reward (< 0).
  void apply(SiteId site, double delta);

  sim::Simulation& sim_;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::map<SiteId, Entry> entries_;
};

}  // namespace cg::broker
