// Simulated MPI job structure. The paper supports two parallel flavors:
// MPICH-P4 (all processes inside one site, one Console Agent) and MPICH-G2
// (subjobs co-allocated across sites, one Console Agent per subjob). This
// module plans allocations and coordinates the runtime barriers of BSP
// workloads. The MPICH-G2 start-up barrier is the broker's: a job runs once
// every subjob of its attempt has started (CrossBroker::subjob_started).
// Message-passing semantics are out of scope (the paper measures none).
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "jdl/job_description.hpp"
#include "util/expected.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace cg::mpijob {

/// One MPI process group placed on a site.
struct SubJobPlacement {
  SiteId site;
  int processes = 0;
};

struct AllocationPlan {
  std::vector<SubJobPlacement> placements;
  [[nodiscard]] int total_processes() const;
  /// Number of Console Agents the plan needs for an interactive job.
  [[nodiscard]] int console_agents(jdl::JobFlavor flavor) const;
};

/// Free capacity advertised by a candidate site.
struct SiteCapacity {
  SiteId site;
  int free_cpus = 0;
};

/// Plans node allocation for an MPI job.
///  - MPICH-P4: the whole job must fit in a single site (the site with the
///    most free CPUs that fits; ties broken randomly when rng is given).
///  - MPICH-G2: subjobs may span sites; sites are filled greedily, in
///    randomized order when rng is given (the paper's randomized selection).
///  - Sequential: one process on any site with a free CPU.
[[nodiscard]] Expected<AllocationPlan> plan_allocation(
    jdl::JobFlavor flavor, int processes, std::vector<SiteCapacity> capacity,
    Rng* rng = nullptr);

/// Runtime barrier coordinator for BSP-style parallel workloads: each rank
/// reports reaching barrier k; when all ranks have, `release_all(k)` fires
/// and every rank proceeds. The slowest rank gates each superstep, exactly
/// the behaviour of the CrossGrid MPI applications.
class RuntimeBarrierCoordinator {
public:
  using ReleaseAllFn = std::function<void(int barrier_index)>;

  RuntimeBarrierCoordinator(int ranks, ReleaseAllFn release_all);

  /// Rank `rank` reached barrier `barrier_index`.
  void arrived(int rank, int barrier_index);

  [[nodiscard]] int ranks() const { return ranks_; }
  [[nodiscard]] int completed_barriers() const { return completed_; }

private:
  int ranks_;
  int completed_ = 0;
  std::map<int, int> arrivals_;  ///< barrier index -> count
  ReleaseAllFn release_all_;
};

}  // namespace cg::mpijob
