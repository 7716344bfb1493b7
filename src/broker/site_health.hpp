// Suspicion-aware placement: a per-site health score the broker maintains
// from supervision outcomes (agent suspicions, heartbeat/liveness misses,
// partition evictions, restorations, clean completions) and the matchmaker
// consults as a rank penalty plus a hard-exclusion window. The score is a
// *suspicion* accumulator with exponential time-decay in the spirit of the
// paper's fair-share half-life formula (beta = 0.5^(dt/h)): penalties raise
// it instantly, and with no further evidence it halves every half_life of
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

struct SiteHealthConfig {
  /// Master switch: disabled, every note is dropped and every query reports
  /// a perfectly healthy site (score 1, no exclusion, zero penalty).
  bool enabled = true;
  /// Suspicion halves every half_life with no new evidence (beta = 0.5^(dt/h)).
  Duration half_life = Duration::seconds(600);
  /// Penalty when an agent on the site is suspected (either channel).
  double suspect_penalty = 1.0;
  /// Penalty per missed link heartbeat / liveness echo (pre-suspicion
  /// evidence; small, so isolated misses only bias tie-breaking).
  double miss_penalty = 0.1;
  /// Penalty per running resident evicted behind a partition
  /// (kJobEvicted{reason=partition}): the strongest signal the site is bad.
  double eviction_penalty = 2.0;
  /// Reward (suspicion reduction) per clean job completion on the site.
  double completion_reward = 0.25;
  /// Reward when a suspected agent on the site is restored.
  double restore_reward = 0.5;
  /// Suspicion at or above this hard-excludes the site from placement until
  /// decay brings it back under.
  double exclusion_threshold = 1.5;
  /// Rank penalty = weight * suspicion; any nonzero suspicion breaks rank
  /// ties away from the degraded site (tie margin is 1e-9).
  double rank_penalty_weight = 1.0;
  /// Suspicion cap, so one long incident cannot exclude a site forever
  /// (recovery from the cap takes log2(cap/threshold) half-lives).
  double max_suspicion = 8.0;
};

class SiteHealth {
public:
  explicit SiteHealth(sim::Simulation& sim, SiteHealthConfig config = {})
      : sim_{sim}, config_{config} {}

  // -- evidence (called by CrossBroker's supervision paths) ----------------
  void note_suspected(SiteId site) { apply(site, config_.suspect_penalty); }
  void note_heartbeat_miss(SiteId site) { apply(site, config_.miss_penalty); }
  void note_liveness_miss(SiteId site) { apply(site, config_.miss_penalty); }
  void note_eviction(SiteId site) { apply(site, config_.eviction_penalty); }
  void note_restored(SiteId site) { apply(site, -config_.restore_reward); }
  void note_completion(SiteId site) { apply(site, -config_.completion_reward); }

  // -- queries (pure; consulted by Matchmaker and CrossBroker) -------------
  /// Decayed suspicion at now(); 0 for untracked (healthy) sites.
  [[nodiscard]] double suspicion(SiteId site) const {
    return suspicion_at(site, sim_.now());
  }
  /// Health score in (0, 1]: 0.5^suspicion (1 = no recorded suspicion).
  [[nodiscard]] double score(SiteId site) const {
    return score_of(suspicion(site));
  }
  [[nodiscard]] bool hard_excluded(SiteId site) const {
    return config_.enabled && suspicion(site) >= config_.exclusion_threshold;
  }
  /// Subtracted from a candidate's rank by every matchmaking pass.
  [[nodiscard]] double rank_penalty(SiteId site) const {
    return config_.rank_penalty_weight * suspicion(site);
  }

  /// Attaches the registry the broker.site.health gauge is published to
  /// (nullptr detaches; observation is optional).
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  [[nodiscard]] const SiteHealthConfig& config() const { return config_; }
  /// Sites with nonzero recorded suspicion (tests).
  [[nodiscard]] std::size_t tracked_sites() const { return entries_.size(); }

private:
  struct Entry {
    double suspicion = 0.0;
    SimTime updated;
  };

  [[nodiscard]] double suspicion_at(SiteId site, SimTime when) const;
  [[nodiscard]] double score_of(double suspicion) const;
  /// Decays to now, then applies a penalty (delta > 0) or reward (< 0).
  void apply(SiteId site, double delta);

  sim::Simulation& sim_;
  SiteHealthConfig config_;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::map<SiteId, Entry> entries_;
};

}  // namespace cg::broker
