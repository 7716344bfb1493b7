#include "broker/lease_manager.hpp"

namespace cg::broker {

LeaseManager::~LeaseManager() {
  for (auto& [id, lease] : leases_) {
    if (lease.expiry.valid()) sim_.cancel(lease.expiry);
  }
}

Expected<LeaseId> LeaseManager::acquire(SiteId site, int cpus, Duration ttl,
                                        int site_capacity) {
  if (!site.valid() || cpus < 1 || ttl <= Duration::zero()) {
    return make_error("broker.lease_invalid",
                      "lease needs a valid site, cpus >= 1, positive ttl");
  }
  if (site_capacity >= 0 && leased_cpus(site) + cpus > site_capacity) {
    return make_error("broker.lease_conflict",
                      "site " + std::to_string(site.value()) + " has " +
                          std::to_string(leased_cpus(site)) + "/" +
                          std::to_string(site_capacity) +
                          " CPUs under lease; " + std::to_string(cpus) +
                          " more would over-commit");
  }
  const LeaseId id = ids_.next();
  const sim::EventHandle expiry = sim_.schedule(ttl, [this, id] {
    const auto it = leases_.find(id);
    if (it == leases_.end()) return;
    const SiteId expired_site = it->second.site;
    const int expired_cpus = it->second.cpus;
    leases_.erase(it);
    account(expired_site, -expired_cpus);
  });
  leases_.emplace(id, Lease{site, cpus, expiry});
  account(site, cpus);
  return id;
}

bool LeaseManager::release(LeaseId id) {
  const auto it = leases_.find(id);
  if (it == leases_.end()) return false;
  if (it->second.expiry.valid()) sim_.cancel(it->second.expiry);
  const SiteId site = it->second.site;
  const int cpus = it->second.cpus;
  leases_.erase(it);
  account(site, -cpus);
  return true;
}

int LeaseManager::leased_cpus(SiteId site) const {
  const auto it = by_site_.find(site);
  return it != by_site_.end() ? it->second : 0;
}

void LeaseManager::account(SiteId site, int cpu_delta) {
  const auto it = by_site_.try_emplace(site, 0).first;
  it->second += cpu_delta;
  if (it->second <= 0) by_site_.erase(it);
}

}  // namespace cg::broker
