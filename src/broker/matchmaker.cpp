#include "broker/matchmaker.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace cg::broker {

namespace {

/// Slot context for one record: every attribute comes from the cached
/// machine view except FreeCPUs, which leases shadow per evaluation.
jdl::SlotEvalContext slot_context(const infosys::SiteRecord::MachineView& view,
                                  int effective_free) {
  jdl::SlotEvalContext ctx;
  ctx.slots = &view.slots;
  ctx.override_slot = infosys::machine_free_cpus_slot();
  ctx.override_value = jdl::Value::integer(effective_free);
  return ctx;
}

}  // namespace

bool Matchmaker::health_excluded(SiteId site, std::size_t& excluded) const {
  if (health_ == nullptr || !health_->hard_excluded(site)) return false;
  ++excluded;
  return true;
}

double Matchmaker::health_penalty(SiteId site) const {
  return health_ != nullptr ? health_->suspicion(site) : 0.0;
}

std::vector<Candidate> Matchmaker::filter(
    const jdl::JobDescription& job, const std::vector<infosys::SiteRecord>& records,
    const LeaseManager& leases, int needed_cpus) const {
  return filter_compiled(*compile(job), records, leases, needed_cpus);
}

std::vector<Candidate> Matchmaker::filter_compiled(
    const jdl::CompiledMatch& compiled, CandidateSource records,
    const LeaseManager& leases, int needed_cpus) const {
  std::vector<Candidate> out;
  if (compiled.never_matches()) {
    note_scan("fresh", 0, 0, 0);
    return out;
  }
  out.reserve(records.size());
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t excluded = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const infosys::SiteRecord& record = records[i];
    const int effective =
        record.dynamic_info.free_cpus - leases.leased_cpus(record.static_info.id);
    if (effective < needed_cpus) continue;
    if (health_excluded(record.static_info.id, excluded)) continue;

    record.cache_primed() ? ++hits : ++misses;
    const auto ctx = slot_context(record.machine_view(), effective);
    if (!compiled.matches(ctx)) continue;

    Candidate c;
    c.site = record.static_info.id;
    c.effective_free_cpus = effective;
    c.rank = (compiled.has_rank() ? compiled.rank(ctx)
                                  : static_cast<double>(effective)) -
             health_penalty(c.site);
    out.push_back(c);
  }
  note_scan("fresh", records.size(), hits, misses, excluded, !out.empty());
  return out;
}

std::vector<SiteId> Matchmaker::filter_sites(
    const jdl::CompiledMatch& compiled, CandidateSource records,
    const LeaseManager& leases, int needed_cpus) const {
  std::vector<SiteId> out;
  if (compiled.never_matches()) {
    note_scan("coarse", 0, 0, 0);
    return out;
  }
  out.reserve(records.size());
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t excluded = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const infosys::SiteRecord& record = records[i];
    const int effective =
        record.dynamic_info.free_cpus - leases.leased_cpus(record.static_info.id);
    if (effective < needed_cpus) continue;
    if (health_excluded(record.static_info.id, excluded)) continue;
    record.cache_primed() ? ++hits : ++misses;
    if (!compiled.matches(slot_context(record.machine_view(), effective))) {
      continue;
    }
    out.push_back(record.static_info.id);
  }
  note_scan("coarse", records.size(), hits, misses, excluded, !out.empty());
  return out;
}

std::shared_ptr<const jdl::CompiledMatch> Matchmaker::compile(
    const jdl::JobDescription& job) const {
  return std::make_shared<const jdl::CompiledMatch>(
      jdl::CompiledMatch::compile(job.ad(), infosys::machine_slot_layout()));
}

std::optional<SiteId> Matchmaker::select(const std::vector<Candidate>& candidates,
                                         Rng& rng) const {
  if (candidates.empty()) return std::nullopt;
  const double best =
      std::max_element(candidates.begin(), candidates.end(),
                       [](const Candidate& a, const Candidate& b) {
                         return a.rank < b.rank;
                       })
          ->rank;
  const auto tied = [&](const Candidate& c) { return is_tie(best, c.rank); };
  // Count the ties, draw one index among them, then walk to it: the pick
  // and the rng draw of a materialized tie list, without building one.
  std::size_t pick = 0;
  if (config_.randomize_ties) {
    pick = rng.pick_index(
        static_cast<std::size_t>(std::ranges::count_if(candidates, tied)));
  }
  for (const Candidate& c : candidates) {
    if (tied(c) && pick-- == 0) return c.site;
  }
  return std::nullopt;  // unreachable: the best candidate ties itself
}

bool Matchmaker::is_tie(double best, double rank) const {
  // Relative to the larger magnitude so the window is symmetric under
  // negation: ranks {10, 18} and {-10, -18} tie under the same margin.
  const double scale = std::max(std::abs(best), std::abs(rank));
  return best - rank <= config_.rank_tie_margin * scale + 1e-12;
}

void Matchmaker::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics == nullptr) {
    coarse_scan_ = ScanMetrics{};
    fresh_scan_ = ScanMetrics{};
    return;
  }
  const auto bind = [metrics](const char* pass) {
    const obs::LabelSet labels{{"pass", pass}};
    ScanMetrics m;
    m.sites_scanned =
        metrics->histogram_handle("broker.match.sites_scanned", labels);
    m.cache_hits = metrics->counter_handle("broker.match.cache_hits", labels);
    m.cache_misses =
        metrics->counter_handle("broker.match.cache_misses", labels);
    m.health_excluded =
        metrics->counter_handle("broker.match.health_excluded", labels);
    m.health_reroutes =
        metrics->counter_handle("broker.match.health_reroutes", labels);
    return m;
  };
  coarse_scan_ = bind("coarse");
  fresh_scan_ = bind("fresh");
}

void Matchmaker::note_scan(const char* pass, std::size_t scanned,
                           std::size_t cache_hits, std::size_t cache_misses,
                           std::size_t health_excluded, bool rerouted) const {
  if (metrics_ == nullptr) return;
  ScanMetrics& m =
      std::strcmp(pass, "coarse") == 0 ? coarse_scan_ : fresh_scan_;
  m.sites_scanned.observe(static_cast<double>(scanned));
  if (cache_hits > 0) m.cache_hits.inc(cache_hits);
  if (cache_misses > 0) m.cache_misses.inc(cache_misses);
  if (health_excluded > 0) {
    m.health_excluded.inc(health_excluded);
    if (rerouted) m.health_reroutes.inc();
  }
}

}  // namespace cg::broker
