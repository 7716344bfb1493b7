#include "infosys/information_system.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/log.hpp"

namespace cg::infosys {

InformationSystem::InformationSystem(sim::Simulation& sim,
                                     InformationSystemConfig config)
    : sim_{sim}, config_{config} {}

void InformationSystem::register_site(const SiteStaticInfo& info,
                                      FreshProvider provider,
                                      std::optional<Duration> site_query_latency) {
  if (!info.id.valid()) throw std::invalid_argument{"register_site: invalid id"};
  if (!provider) throw std::invalid_argument{"register_site: null provider"};
  // Re-registration resets the entry, dropping any published record.
  if (const auto old = sites_.find(info.id);
      old != sites_.end() && old->second.published) {
    ++publish_version_;
  }
  SiteEntry entry;
  entry.static_info = info;
  entry.provider = std::move(provider);
  entry.query_latency = site_query_latency.value_or(config_.default_site_query_latency);
  sites_.insert_or_assign(info.id, std::move(entry));
}

void InformationSystem::unregister_site(SiteId id) {
  const auto it = sites_.find(id);
  if (it == sites_.end()) return;
  const bool had_published = it->second.published != nullptr;
  sites_.erase(it);
  if (had_published) {
    ++publish_version_;
    notify_invalidation(id, "unregister");
  }
}

void InformationSystem::publish(const SiteRecord& record) {
  const auto it = sites_.find(record.static_info.id);
  if (it == sites_.end()) {
    log_warn("infosys", "publish for unregistered site ", record.static_info.name);
    return;
  }
  store_published(it->first, it->second, record);
}

void InformationSystem::publish_fresh(SiteId id) {
  const auto it = sites_.find(id);
  if (it == sites_.end()) return;
  store_published(id, it->second, it->second.provider());
}

void InformationSystem::store_published(SiteId id, SiteEntry& entry,
                                        SiteRecord record) {
  if (entry.published) notify_invalidation(id, "republish");
  record.sampled_at = sim_.now();
  // Prime before storing: every copy of this record the index hands out
  // shares the one machine view built here.
  record.prime_cache();
  entry.published = std::make_shared<const SiteRecord>(std::move(record));
  ++publish_version_;
}

void InformationSystem::notify_invalidation(SiteId id, const char* reason) {
  if (invalidation_listener_) invalidation_listener_(id, reason);
}

void InformationSystem::start_periodic_publication(SiteId id, Duration period) {
  const auto it = sites_.find(id);
  if (it == sites_.end()) throw std::invalid_argument{"unknown site"};
  if (period <= Duration::zero()) throw std::invalid_argument{"period must be positive"};
  it->second.periodic = true;
  it->second.period = period;
  publish_fresh(id);
  schedule_publication(id);
}

void InformationSystem::schedule_publication(SiteId id) {
  const auto it = sites_.find(id);
  if (it == sites_.end() || !it->second.periodic) return;
  // Daemon event: periodic publication must not keep the simulation alive.
  sim_.schedule_daemon(it->second.period, [this, id] {
    // The site may have been unregistered while the timer was pending.
    const auto entry = sites_.find(id);
    if (entry == sites_.end() || !entry->second.periodic) return;
    publish_fresh(id);
    schedule_publication(id);
  });
}

void InformationSystem::query_index_matching(int needed_cpus,
                                             SnapshotCallback callback) {
  if (!callback) throw std::invalid_argument{"query_index_matching: null callback"};
  ++index_queries_;
  sim_.schedule(config_.index_query_latency,
                [cb = std::move(callback),
                 snap = matching_snapshot(needed_cpus)]() mutable {
                  cb(std::move(snap));
                });
}

void InformationSystem::refresh_all_published() {
  if (all_published_version_ == publish_version_) return;
  all_published_.clear();
  all_published_.reserve(sites_.size());
  for (const auto& [id, entry] : sites_) {
    if (entry.published) all_published_.push_back(entry.published);
  }
  all_published_version_ = publish_version_;
}

std::shared_ptr<const InformationSystem::IndexSnapshot>
InformationSystem::matching_snapshot(int needed_cpus) {
  // The reply is {published sites : published free >= needed}, a pure
  // function of the published set, so it is cached per needed_cpus until the
  // next publication. Walking sites_ in map order yields ascending site ids
  // with no per-query sort.
  CachedMatching& cached = matching_cache_[needed_cpus];
  if (cached.version == publish_version_) return cached.snapshot;
  refresh_all_published();
  auto snap = std::make_shared<IndexSnapshot>();
  snap->reserve(all_published_.size());
  for (const auto& rec : all_published_) {
    if (rec->dynamic_info.free_cpus >= needed_cpus) snap->push_back(rec);
  }
  cached = CachedMatching{publish_version_, std::move(snap)};
  return cached.snapshot;
}

void InformationSystem::query_site(SiteId id, SiteCallback callback) {
  if (!callback) throw std::invalid_argument{"query_site: null callback"};
  ++site_queries_;
  const auto it = sites_.find(id);
  if (it == sites_.end()) {
    sim_.schedule(Duration::zero(),
                  [cb = std::move(callback)]() mutable { cb(std::nullopt); });
    return;
  }
  const Duration latency = it->second.query_latency;
  sim_.schedule(latency, [this, id, cb = std::move(callback)]() mutable {
    // Re-check: the site may disappear while the query is in flight.
    const auto entry = sites_.find(id);
    if (entry == sites_.end()) {
      cb(std::nullopt);
      return;
    }
    SiteRecord record = entry->second.provider();
    record.sampled_at = sim_.now();
    cb(std::move(record));
  });
}

std::optional<SiteRecord> InformationSystem::published_record(SiteId id) const {
  const auto it = sites_.find(id);
  if (it == sites_.end() || it->second.published == nullptr) return std::nullopt;
  return *it->second.published;
}

}  // namespace cg::infosys
