// Matchmaking: filters discovered sites against a job's Requirements (JDL
// symmetric match), ranks survivors by the job's Rank expression (higher is
// better; default rank = free CPUs), and picks randomly among the top-ranked
// candidates — the paper's "randomized selection of resources ... used to
// generate different answers when there are multiple resource choices".
//
// Every pass evaluates the job's CompiledMatch against each record's cached
// slot values — no ClassAd construction, no map lookups, constant conjuncts
// decided once per job. The ClassAd interpreter (jdl::symmetric_match over
// SiteRecord::to_classad()) stays the reference semantics: the tests compare
// every compiled decision against it, and bench/match_scale pins the
// decision digests.
//
// Suspicion-aware placement: with a SiteHealth attached (set_site_health),
// hard-excluded sites are skipped by every pass and each surviving
// candidate's rank is reduced by the site's health penalty.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "broker/candidate_source.hpp"
#include "broker/lease_manager.hpp"
#include "broker/site_health.hpp"
#include "infosys/information_system.hpp"
#include "infosys/site_record.hpp"
#include "jdl/compiled_match.hpp"
#include "jdl/job_description.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace cg::broker {

struct Candidate {
  SiteId site;
  double rank = 0.0;
  /// Free CPUs after subtracting active match leases.
  int effective_free_cpus = 0;
};

struct MatchmakerConfig {
  /// Ranks within this relative margin of the best are "ties" eligible for
  /// randomized selection.
  double rank_tie_margin = 1e-9;
  /// When false, the first tied candidate wins deterministically (the
  /// baseline the randomized-selection ablation compares against).
  bool randomize_ties = true;
};

class Matchmaker {
public:
  explicit Matchmaker(MatchmakerConfig config = {}) : config_{config} {}

  /// Applies Requirements and capacity filters. `needed_cpus` is the number
  /// of free CPUs a single site must offer (1 for sequential; the full node
  /// count for MPICH-P4; at least 1 for MPICH-G2, which can span sites).
  [[nodiscard]] std::vector<Candidate> filter(
      const jdl::JobDescription& job, const std::vector<infosys::SiteRecord>& records,
      const LeaseManager& leases, int needed_cpus) const;

  /// filter() against an already-compiled job (avoids recompiling per
  /// scheduling attempt). Scans any CandidateSource: the broker's fresh
  /// per-site replies and index snapshots alike.
  [[nodiscard]] std::vector<Candidate> filter_compiled(
      const jdl::CompiledMatch& compiled, CandidateSource records,
      const LeaseManager& leases, int needed_cpus) const;

  /// The coarse (discovery-time) pass: which sites survive Requirements +
  /// capacity. Rank is not evaluated — the broker only needs the site list
  /// to issue fresh queries. Scans any CandidateSource (record vectors and
  /// index snapshots alike).
  [[nodiscard]] std::vector<SiteId> filter_sites(
      const jdl::CompiledMatch& compiled, CandidateSource records,
      const LeaseManager& leases, int needed_cpus) const;

  /// Compiles a job's Requirements/Rank against the machine slot layout.
  /// The result is immutable and shared across scheduling attempts.
  [[nodiscard]] std::shared_ptr<const jdl::CompiledMatch> compile(
      const jdl::JobDescription& job) const;

  /// Picks one site from the candidates: best rank, random among ties (in
  /// candidate order). Draws one pick_index when at least one candidate
  /// survives and randomize_ties is on, and nothing otherwise; allocates
  /// nothing. Empty candidates give no site.
  [[nodiscard]] std::optional<SiteId> select(const std::vector<Candidate>& candidates,
                                             Rng& rng) const;

  /// Attaches the metrics registry the scan/cache counters are written to
  /// (nullptr detaches; observation is optional). Binds per-pass handle
  /// bundles once, so scans update instruments without rebuilding the
  /// {"pass": ...} label set per query.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Attaches the per-site health scores every pass consults: hard-excluded
  /// sites are skipped, surviving candidates' ranks are penalized. nullptr
  /// (the default) restores health-blind matching bit for bit.
  void set_site_health(const SiteHealth* health) { health_ = health; }

  [[nodiscard]] const MatchmakerConfig& config() const { return config_; }

private:
  /// True when health scoring vetoes the site outright; counts the skip.
  [[nodiscard]] bool health_excluded(SiteId site, std::size_t& excluded) const;
  /// Rank penalty for the site: its decayed suspicion, so any nonzero
  /// suspicion breaks rank ties away from it (0 without a SiteHealth).
  [[nodiscard]] double health_penalty(SiteId site) const;

  /// Symmetric tie test: |best - rank| within margin relative to the larger
  /// magnitude, so negated rank expressions see the same tie window
  /// (best - |best|*margin widened asymmetrically for negative ranks).
  [[nodiscard]] bool is_tie(double best, double rank) const;
  /// Pre-resolved instruments for one scan pass ("coarse" or "fresh").
  /// Counters materialize on first positive increment, so runs that never
  /// hit the cache (or never exclude a site) keep snapshots identical to
  /// the lazy create-on-first-use behavior.
  struct ScanMetrics {
    obs::HistogramHandle sites_scanned;
    obs::CounterHandle cache_hits;
    obs::CounterHandle cache_misses;
    obs::CounterHandle health_excluded;
    obs::CounterHandle health_reroutes;
  };

  /// Records broker.match.sites_scanned / cache_hits / cache_misses, plus
  /// the health_excluded / health_reroutes counters when scoring vetoed
  /// sites (`rerouted`: the scan still produced a result elsewhere).
  void note_scan(const char* pass, std::size_t scanned, std::size_t cache_hits,
                 std::size_t cache_misses, std::size_t health_excluded = 0,
                 bool rerouted = false) const;

  MatchmakerConfig config_;
  obs::MetricsRegistry* metrics_ = nullptr;
  mutable ScanMetrics coarse_scan_;
  mutable ScanMetrics fresh_scan_;
  const SiteHealth* health_ = nullptr;
};

}  // namespace cg::broker
