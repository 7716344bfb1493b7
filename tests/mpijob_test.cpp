// MPI co-allocation planning and the startup barrier.
#include <gtest/gtest.h>

#include "lrms/workload.hpp"
#include "mpijob/mpi_job.hpp"

namespace cg::mpijob {
namespace {

std::vector<SiteCapacity> capacities(std::initializer_list<std::pair<int, int>> list) {
  std::vector<SiteCapacity> out;
  for (const auto& [id, free] : list) {
    out.push_back(SiteCapacity{SiteId{static_cast<std::uint64_t>(id)}, free});
  }
  return out;
}

TEST(PlanTest, SequentialPicksAnySiteWithFreeCpu) {
  auto plan = plan_allocation(jdl::JobFlavor::kSequential, 1,
                              capacities({{1, 0}, {2, 3}}));
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->placements.size(), 1u);
  EXPECT_EQ(plan->placements[0].site, SiteId{2});
  EXPECT_EQ(plan->total_processes(), 1);
}

TEST(PlanTest, SequentialFailsWhenNothingFree) {
  auto plan = plan_allocation(jdl::JobFlavor::kSequential, 1,
                              capacities({{1, 0}, {2, 0}}));
  EXPECT_FALSE(plan.has_value());
  EXPECT_EQ(plan.error().code, "mpijob.no_resources");
}

TEST(PlanTest, P4RequiresSingleSite) {
  // 4 processes; total free is 6 but no single site has 4 -> P4 must fail.
  auto plan = plan_allocation(jdl::JobFlavor::kMpichP4, 4,
                              capacities({{1, 3}, {2, 3}}));
  EXPECT_FALSE(plan.has_value());

  auto ok = plan_allocation(jdl::JobFlavor::kMpichP4, 4,
                            capacities({{1, 3}, {2, 5}}));
  ASSERT_TRUE(ok.has_value());
  ASSERT_EQ(ok->placements.size(), 1u);
  EXPECT_EQ(ok->placements[0].site, SiteId{2});
  EXPECT_EQ(ok->placements[0].processes, 4);
}

TEST(PlanTest, G2SpansSites) {
  auto plan = plan_allocation(jdl::JobFlavor::kMpichG2, 5,
                              capacities({{1, 3}, {2, 3}}));
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->total_processes(), 5);
  EXPECT_GE(plan->placements.size(), 2u);
}

TEST(PlanTest, G2FailsWhenGridTooSmall) {
  auto plan = plan_allocation(jdl::JobFlavor::kMpichG2, 10,
                              capacities({{1, 3}, {2, 3}}));
  EXPECT_FALSE(plan.has_value());
}

TEST(PlanTest, ConsoleAgentCounts) {
  auto g2 = plan_allocation(jdl::JobFlavor::kMpichG2, 5,
                            capacities({{1, 3}, {2, 3}}));
  ASSERT_TRUE(g2.has_value());
  EXPECT_EQ(g2->console_agents(jdl::JobFlavor::kMpichG2), 5);

  auto p4 = plan_allocation(jdl::JobFlavor::kMpichP4, 3, capacities({{1, 4}}));
  ASSERT_TRUE(p4.has_value());
  EXPECT_EQ(p4->console_agents(jdl::JobFlavor::kMpichP4), 1);
}

TEST(PlanTest, RandomizedSelectionSpreadsChoices) {
  // With an RNG, equal sites must not always receive the job (the paper's
  // randomized selection of resources).
  Rng rng{2024};
  std::set<std::uint64_t> chosen;
  for (int i = 0; i < 64; ++i) {
    auto plan = plan_allocation(jdl::JobFlavor::kSequential, 1,
                                capacities({{1, 2}, {2, 2}, {3, 2}}), &rng);
    ASSERT_TRUE(plan.has_value());
    chosen.insert(plan->placements[0].site.value());
  }
  EXPECT_EQ(chosen.size(), 3u);
}

TEST(PlanTest, InvalidProcessCount) {
  EXPECT_FALSE(plan_allocation(jdl::JobFlavor::kSequential, 0, {}).has_value());
}

TEST(RuntimeBarrierTest, ReleasesWhenAllRanksArrive) {
  std::vector<int> released;
  RuntimeBarrierCoordinator coord{3, [&](int index) { released.push_back(index); }};
  coord.arrived(0, 0);
  coord.arrived(1, 0);
  EXPECT_TRUE(released.empty());
  coord.arrived(2, 0);
  EXPECT_EQ(released, (std::vector<int>{0}));
  // A second barrier, arrivals in any order.
  coord.arrived(2, 1);
  coord.arrived(0, 1);
  coord.arrived(1, 1);
  EXPECT_EQ(released, (std::vector<int>{0, 1}));
  EXPECT_EQ(coord.completed_barriers(), 2);
}

TEST(RuntimeBarrierTest, RanksCanRunAhead) {
  // Rank 0 reaches barrier 1 while rank 1 is still before barrier 0: the
  // per-index accounting keeps them separate.
  std::vector<int> released;
  RuntimeBarrierCoordinator coord{2, [&](int index) { released.push_back(index); }};
  coord.arrived(0, 0);
  coord.arrived(0, 1);  // rank 0 already at the next barrier? (pipelined app)
  coord.arrived(1, 0);
  EXPECT_EQ(released, (std::vector<int>{0}));
  coord.arrived(1, 1);
  EXPECT_EQ(released, (std::vector<int>{0, 1}));
}

TEST(RuntimeBarrierTest, Validation) {
  EXPECT_THROW(RuntimeBarrierCoordinator(0, [](int) {}), std::invalid_argument);
  EXPECT_THROW(RuntimeBarrierCoordinator(1, nullptr), std::invalid_argument);
  RuntimeBarrierCoordinator coord{1, [](int) {}};
  EXPECT_THROW(coord.arrived(-1, 0), std::invalid_argument);
  EXPECT_THROW(coord.arrived(0, -1), std::invalid_argument);
}

TEST(WorkloadBspTest, Shape) {
  const auto w = cg::lrms::Workload::bulk_synchronous(5, cg::Duration::seconds(2));
  EXPECT_EQ(w.phases.size(), 10u);
  EXPECT_EQ(w.barrier_count(), 5);
  EXPECT_EQ(w.total_cpu().to_seconds(), 10.0);
  EXPECT_THROW(cg::lrms::Workload::bulk_synchronous(0, cg::Duration::seconds(1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace cg::mpijob
