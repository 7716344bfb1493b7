// Exclusive temporal access to resources (Section 3): once a resource has
// been matched to a job, it is excluded from further matches for a bounded
// time so that concurrent submissions do not all pile onto the same "free"
// CPUs before the information system catches up. Leases expire automatically
// or are released when the match either commits or fails.
#pragma once

#include <map>

#include "sim/simulation.hpp"
#include "util/expected.hpp"
#include "util/ids.hpp"

namespace cg::broker {

class LeaseManager {
public:
  explicit LeaseManager(sim::Simulation& sim) : sim_{sim} {}
  ~LeaseManager();
  LeaseManager(const LeaseManager&) = delete;
  LeaseManager& operator=(const LeaseManager&) = delete;

  /// Leases `cpus` CPUs of a site for `ttl`. Fails with
  /// "broker.lease_invalid" on nonsense input, and — when the caller states
  /// the site's capacity (>= 0) — with "broker.lease_conflict" when the
  /// request would over-commit CPUs already under lease (a concurrent
  /// submission won the race). Capacity -1 skips the conflict check.
  [[nodiscard]] Expected<LeaseId> acquire(SiteId site, int cpus, Duration ttl,
                                          int site_capacity = -1);

  /// Releases a lease early (match committed or abandoned). Returns false
  /// if the lease already expired.
  bool release(LeaseId id);

  /// CPUs of a site currently under lease. O(log sites): answered from a
  /// per-site aggregate (the matchmaker asks once per scanned record).
  [[nodiscard]] int leased_cpus(SiteId site) const;
  [[nodiscard]] std::size_t active_leases() const { return leases_.size(); }

private:
  struct Lease {
    SiteId site;
    int cpus;
    sim::EventHandle expiry;
  };

  /// Applies a delta to the per-site aggregate.
  void account(SiteId site, int cpu_delta);

  sim::Simulation& sim_;
  IdGenerator<LeaseId> ids_;
  std::map<LeaseId, Lease> leases_;
  /// Leased CPUs per site (entries removed when they reach zero).
  std::map<SiteId, int> by_site_;
};

}  // namespace cg::broker
