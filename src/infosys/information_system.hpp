// Globus-MDS-like information system. Two query paths mirror the paper's
// Section 6.1 timing breakdown:
//   - index query ("resource discovery"): returns the last *published* record
//     of every site whose published free CPUs cover the request; one round
//     trip to the (remote) index, ~0.5 s;
//   - direct site query ("resource selection"): contacts a site's GRIS for
//     fresh state; per-site latency, ~3 s total across 20 European sites.
// Publication is periodic, so index data is stale by up to one period — the
// reason the broker must re-contact candidate sites before committing. The
// index holds published state only: match leases and site health are broker
// policy, applied by the broker's matchmaker when a reply lands.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "infosys/site_record.hpp"
#include "sim/simulation.hpp"

namespace cg::infosys {

struct InformationSystemConfig {
  /// Round-trip to the index (paper: index in Germany, broker in Spain).
  Duration index_query_latency = Duration::millis(500);
  /// Default round-trip for a direct (fresh) site query.
  Duration default_site_query_latency = Duration::millis(150);
};

class InformationSystem {
public:
  /// Supplies a site's live state when the IS (or broker) asks directly.
  using FreshProvider = std::function<SiteRecord()>;
  /// Matching queries hand out shared immutable snapshots instead of record
  /// copies: publishing always creates a fresh record, so a snapshot taken
  /// at query time stays valid however the index changes afterwards.
  using IndexSnapshot = std::vector<std::shared_ptr<const SiteRecord>>;
  /// The whole snapshot is itself shared and immutable: repeat queries for
  /// the same `needed_cpus` between publications hand out the *same*
  /// vector, so delivering a reply costs one shared_ptr copy instead of a
  /// per-query vector copy + sort (the 10^4-site scaling cliff).
  using SnapshotCallback =
      std::function<void(std::shared_ptr<const IndexSnapshot>)>;
  using SiteCallback = std::function<void(std::optional<SiteRecord>)>;

  InformationSystem(sim::Simulation& sim, InformationSystemConfig config = {});

  /// Registers a site. `provider` answers direct queries with live state;
  /// `site_query_latency` overrides the default per-site round trip.
  void register_site(const SiteStaticInfo& info, FreshProvider provider,
                     std::optional<Duration> site_query_latency = std::nullopt);
  void unregister_site(SiteId id);

  /// Publishes a snapshot into the index (what GRIS pushes to GIIS).
  void publish(const SiteRecord& record);

  /// Publishes a fresh snapshot from the registered provider.
  void publish_fresh(SiteId id);

  /// Starts periodic publication for a site (every `period`, first at +period).
  void start_periodic_publication(SiteId id, Duration period);

  /// Asynchronous index query ("resource discovery"): after the index
  /// latency, delivers the published records whose *published* free CPUs
  /// cover `needed_cpus`, in ascending site-id order. The index knows
  /// nothing of match leases or site health: the broker applies both itself
  /// when the reply lands, and re-checks every survivor with a fresh site
  /// query before committing.
  void query_index_matching(int needed_cpus, SnapshotCallback callback);

  /// Observer fired whenever a site's published machine ad is invalidated:
  /// reason "republish" (a newer snapshot replaced it) or "unregister" (site
  /// gone). Single listener; pass nullptr to detach.
  using InvalidationListener = std::function<void(SiteId, const char* reason)>;
  void set_invalidation_listener(InvalidationListener listener) {
    invalidation_listener_ = std::move(listener);
  }

  /// Asynchronous fresh query of a single site; nullopt if unknown.
  void query_site(SiteId id, SiteCallback callback);

  /// Synchronous accessors for tests and local bookkeeping (no latency).
  [[nodiscard]] std::optional<SiteRecord> published_record(SiteId id) const;
  [[nodiscard]] std::size_t site_count() const { return sites_.size(); }
  [[nodiscard]] const InformationSystemConfig& config() const { return config_; }

  /// Total query counts (experiment bookkeeping).
  [[nodiscard]] std::size_t index_queries() const { return index_queries_; }
  [[nodiscard]] std::size_t site_queries() const { return site_queries_; }

private:
  struct SiteEntry {
    SiteStaticInfo static_info;
    FreshProvider provider;
    Duration query_latency;
    /// Last published snapshot; immutable and shared with in-flight queries.
    std::shared_ptr<const SiteRecord> published;
    bool periodic = false;
    Duration period = Duration::zero();
  };

  void schedule_publication(SiteId id);
  /// Stores a new published snapshot: notifies invalidation, primes the
  /// machine-ad cache, and bumps the publication version.
  void store_published(SiteId id, SiteEntry& entry, SiteRecord record);
  void notify_invalidation(SiteId id, const char* reason);

  /// Rebuilds the ascending-id roster of published records if the published
  /// set changed since it was last built.
  void refresh_all_published();
  /// The (cached or rebuilt) reply snapshot for a matching query.
  [[nodiscard]] std::shared_ptr<const IndexSnapshot> matching_snapshot(
      int needed_cpus);

  /// One cached matching reply: exact while the published set (version) is
  /// unchanged. Version 0 never matches, so a fresh entry always rebuilds.
  struct CachedMatching {
    std::uint64_t version = 0;
    std::shared_ptr<const IndexSnapshot> snapshot;
  };

  sim::Simulation& sim_;
  InformationSystemConfig config_;
  std::map<SiteId, SiteEntry> sites_;
  InvalidationListener invalidation_listener_;
  /// Bumped whenever the published-record set changes (publish, republish,
  /// unregister of a published site).
  std::uint64_t publish_version_ = 1;
  /// Ascending-id roster of published records (sites_ iteration order — the
  /// delivery order) + the version it was built at.
  std::vector<std::shared_ptr<const SiteRecord>> all_published_;
  std::uint64_t all_published_version_ = 0;
  /// Per-needed_cpus cached replies.
  std::map<int, CachedMatching> matching_cache_;
  std::size_t index_queries_ = 0;
  std::size_t site_queries_ = 0;
};

}  // namespace cg::infosys
