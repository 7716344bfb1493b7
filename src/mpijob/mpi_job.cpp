#include "mpijob/mpi_job.hpp"

#include <algorithm>
#include <stdexcept>

namespace cg::mpijob {

int AllocationPlan::total_processes() const {
  int n = 0;
  for (const auto& p : placements) n += p.processes;
  return n;
}

int AllocationPlan::console_agents(jdl::JobFlavor flavor) const {
  // One CA per MPICH-G2 subjob process; a single CA otherwise (Section 4).
  if (flavor == jdl::JobFlavor::kMpichG2) return total_processes();
  return 1;
}

Expected<AllocationPlan> plan_allocation(jdl::JobFlavor flavor, int processes,
                                         std::vector<SiteCapacity> capacity,
                                         Rng* rng) {
  if (processes < 1) {
    return make_error("mpijob.plan", "process count must be >= 1");
  }
  AllocationPlan plan;

  if (flavor == jdl::JobFlavor::kSequential || processes == 1) {
    std::vector<const SiteCapacity*> fits;
    for (const auto& c : capacity) {
      if (c.free_cpus >= 1) fits.push_back(&c);
    }
    if (fits.empty()) {
      return make_error("mpijob.no_resources", "no site has a free CPU");
    }
    const SiteCapacity* chosen =
        rng != nullptr ? fits[rng->pick_index(fits.size())] : fits.front();
    plan.placements.push_back(SubJobPlacement{chosen->site, 1});
    return plan;
  }

  if (flavor == jdl::JobFlavor::kMpichP4) {
    // Single-site co-allocation: every fitting site is a candidate.
    std::vector<const SiteCapacity*> fits;
    for (const auto& c : capacity) {
      if (c.free_cpus >= processes) fits.push_back(&c);
    }
    if (fits.empty()) {
      return make_error("mpijob.no_resources",
                        "no single site can hold " + std::to_string(processes) +
                            " processes (MPICH-P4 cannot span sites)");
    }
    const SiteCapacity* chosen =
        rng != nullptr ? fits[rng->pick_index(fits.size())] : fits.front();
    plan.placements.push_back(SubJobPlacement{chosen->site, processes});
    return plan;
  }

  // MPICH-G2: greedy fill, randomized site order when an RNG is supplied.
  if (rng != nullptr) {
    rng->shuffle(capacity);
  } else {
    // Deterministic fallback: most free CPUs first minimizes subjob count.
    std::stable_sort(capacity.begin(), capacity.end(),
                     [](const SiteCapacity& a, const SiteCapacity& b) {
                       return a.free_cpus > b.free_cpus;
                     });
  }
  int remaining = processes;
  for (const auto& c : capacity) {
    if (remaining == 0) break;
    const int take = std::min(c.free_cpus, remaining);
    if (take > 0) {
      plan.placements.push_back(SubJobPlacement{c.site, take});
      remaining -= take;
    }
  }
  if (remaining > 0) {
    return make_error("mpijob.no_resources",
                      "grid-wide free CPUs are insufficient for " +
                          std::to_string(processes) + " processes");
  }
  return plan;
}

RuntimeBarrierCoordinator::RuntimeBarrierCoordinator(int ranks,
                                                     ReleaseAllFn release_all)
    : ranks_{ranks}, release_all_{std::move(release_all)} {
  if (ranks < 1) throw std::invalid_argument{"coordinator needs >= 1 rank"};
  if (!release_all_) throw std::invalid_argument{"coordinator needs a callback"};
}

void RuntimeBarrierCoordinator::arrived(int rank, int barrier_index) {
  if (rank < 0 || rank >= ranks_) throw std::invalid_argument{"bad rank"};
  if (barrier_index < 0) throw std::invalid_argument{"bad barrier index"};
  int& count = arrivals_[barrier_index];
  ++count;
  if (count > ranks_) throw std::logic_error{"barrier over-arrival"};
  if (count == ranks_) {
    ++completed_;
    release_all_(barrier_index);
  }
}

}  // namespace cg::mpijob
