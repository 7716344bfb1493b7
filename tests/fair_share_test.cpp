// Fair-share accounting tests: the Section 5.1 priority formula, the
// application factors, half-life decay, and the rejection test.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "broker/fair_share.hpp"

namespace cg::broker {
namespace {

using namespace cg::literals;

TEST(ApplicationFactorTest, PaperValues) {
  EXPECT_DOUBLE_EQ(application_factor_batch(), 1.0);
  // Interactive jobs worsen priority faster: a_f = 2 - PL/100.
  EXPECT_DOUBLE_EQ(application_factor_interactive(0), 2.0);
  EXPECT_DOUBLE_EQ(application_factor_interactive(25), 1.75);
  // Yielding batch jobs are charged gently: a_f = PL/100.
  EXPECT_DOUBLE_EQ(application_factor_yielding_batch(25), 0.25);
  EXPECT_DOUBLE_EQ(application_factor_yielding_batch(0), 0.0);
}

class FairShareFixture : public ::testing::Test {
protected:
  FairShareConfig config() {
    FairShareConfig c;
    c.update_interval = 10_s;
    c.half_life = 100_s;
    c.total_resources = 10;
    return c;
  }

  sim::Simulation sim;
};

TEST_F(FairShareFixture, PriorityGrowsWhileRunningJobs) {
  FairShare fs{sim, config()};
  fs.start();
  EXPECT_EQ(fs.priority(UserId{1}), 0.0);
  fs.job_started(UserId{1}, JobId{1}, 1.0, 5);  // uses half the grid
  sim.run_until(SimTime::from_seconds(100));
  const double p = fs.priority(UserId{1});
  EXPECT_GT(p, 0.0);
  // Converges toward the steady-state usage a_f * r = 0.5.
  EXPECT_LT(p, 0.5);
  sim.run_until(SimTime::from_seconds(2000));
  EXPECT_NEAR(fs.priority(UserId{1}), 0.5, 0.01);
}

TEST_F(FairShareFixture, InteractiveChargesFasterThanBatch) {
  FairShare fs{sim, config()};
  fs.start();
  fs.job_started(UserId{1}, JobId{1}, application_factor_batch(), 2);
  fs.job_started(UserId{2}, JobId{2}, application_factor_interactive(0), 2);
  sim.run_until(SimTime::from_seconds(200));
  EXPECT_GT(fs.priority(UserId{2}), fs.priority(UserId{1}));
  EXPECT_NEAR(fs.priority(UserId{2}) / fs.priority(UserId{1}), 2.0, 0.01);
}

TEST_F(FairShareFixture, HalfLifeDecayRestoresCredits) {
  FairShare fs{sim, config()};
  fs.start();
  fs.job_started(UserId{1}, JobId{1}, 1.0, 10);
  sim.run_until(SimTime::from_seconds(1000));
  const double loaded = fs.priority(UserId{1});
  EXPECT_NEAR(loaded, 1.0, 0.01);
  fs.job_finished(JobId{1});
  // After one half-life of idleness the priority must have halved.
  sim.run_until(SimTime::from_seconds(1100));
  EXPECT_NEAR(fs.priority(UserId{1}), loaded / 2.0, 0.02);
  // And eventually the user is fully restored (entry dropped).
  sim.run_until(SimTime::from_seconds(20000));
  EXPECT_EQ(fs.priority(UserId{1}), 0.0);
}

TEST_F(FairShareFixture, ApplicationFactorSwitchMidFlight) {
  // A batch job demoted to "yielding" accumulates much more slowly.
  FairShare fs{sim, config()};
  fs.start();
  fs.job_started(UserId{1}, JobId{1}, application_factor_batch(), 10);
  sim.run_until(SimTime::from_seconds(200));
  const double before = fs.priority(UserId{1});
  fs.set_application_factor(JobId{1}, application_factor_yielding_batch(10));
  sim.run_until(SimTime::from_seconds(2000));
  // Steady state is now 0.1 * 1.0 = 0.1, far below the batch-rate value.
  EXPECT_LT(fs.priority(UserId{1}), before);
  EXPECT_NEAR(fs.priority(UserId{1}), 0.1, 0.01);
}

TEST_F(FairShareFixture, InstantaneousUsageSumsJobs) {
  FairShare fs{sim, config()};
  fs.job_started(UserId{1}, JobId{1}, 1.0, 2);
  fs.job_started(UserId{1}, JobId{2}, 2.0, 3);
  // 1*2/10 + 2*3/10 = 0.8
  EXPECT_DOUBLE_EQ(fs.instantaneous_usage(UserId{1}), 0.8);
  fs.job_finished(JobId{2});
  EXPECT_DOUBLE_EQ(fs.instantaneous_usage(UserId{1}), 0.2);
}

TEST_F(FairShareFixture, UserChargedOnlyFromTheirFirstUpdate) {
  FairShare fs{sim, config()};
  fs.job_started(UserId{1}, JobId{2}, 1.0, 2);
  // Running but not yet charged: no priority and no place in the ranking.
  EXPECT_TRUE(fs.users_by_priority().empty());
  fs.force_update();
  EXPECT_EQ(fs.users_by_priority(), std::vector<UserId>{UserId{1}});
  // A job started again under another user moves its charge with it; the
  // first user only decays, and an update forgets a user that ran nothing.
  fs.job_started(UserId{2}, JobId{2}, 1.0, 2);
  EXPECT_DOUBLE_EQ(fs.instantaneous_usage(UserId{1}), 0.0);
  EXPECT_DOUBLE_EQ(fs.instantaneous_usage(UserId{2}), 0.2);
  const double before = fs.priority(UserId{1});
  fs.job_started(UserId{3}, JobId{1}, 1.0, 1);
  fs.job_finished(JobId{1});
  fs.force_update();
  EXPECT_NEAR(fs.priority(UserId{1}), before * std::pow(0.5, 0.1), 1e-12);
  EXPECT_GT(fs.priority(UserId{2}), fs.priority(UserId{1}));
  EXPECT_EQ(fs.users_by_priority(), (std::vector<UserId>{UserId{1}, UserId{2}}));
}

TEST_F(FairShareFixture, UsersByPriorityOrdersBestFirst) {
  FairShare fs{sim, config()};
  fs.start();
  fs.job_started(UserId{1}, JobId{1}, 1.0, 1);
  fs.job_started(UserId{2}, JobId{2}, 1.0, 8);
  sim.run_until(SimTime::from_seconds(100));
  const auto ordered = fs.users_by_priority();
  ASSERT_EQ(ordered.size(), 2u);
  EXPECT_EQ(ordered[0], UserId{1});
  EXPECT_EQ(ordered[1], UserId{2});
}

TEST_F(FairShareFixture, IsWorstIdentifiesHeaviestUser) {
  FairShare fs{sim, config()};
  fs.start();
  fs.job_started(UserId{1}, JobId{1}, 1.0, 1);
  fs.job_started(UserId{2}, JobId{2}, 1.0, 8);
  sim.run_until(SimTime::from_seconds(100));
  EXPECT_TRUE(fs.is_worst(UserId{2}));
  EXPECT_FALSE(fs.is_worst(UserId{1}));
  EXPECT_FALSE(fs.is_worst(UserId{3}));  // unknown user has zero priority
}

TEST_F(FairShareFixture, BetaMatchesHalfLifeFormula) {
  // One update step multiplies an idle user's priority by 0.5^(dt/h).
  FairShareConfig c = config();  // dt = 10, h = 100
  FairShare fs{sim, c};
  fs.job_started(UserId{1}, JobId{1}, 1.0, 10);
  fs.force_update();
  fs.job_finished(JobId{1});
  const double p0 = fs.priority(UserId{1});
  fs.force_update();
  const double expected_beta = std::pow(0.5, 10.0 / 100.0);
  EXPECT_NEAR(fs.priority(UserId{1}) / p0, expected_beta, 1e-9);
}

TEST_F(FairShareFixture, StopHaltsUpdates) {
  FairShare fs{sim, config()};
  fs.start();
  fs.job_started(UserId{1}, JobId{1}, 1.0, 10);
  sim.run_until(SimTime::from_seconds(50));
  fs.stop();
  const double frozen = fs.priority(UserId{1});
  sim.run_until(SimTime::from_seconds(500));
  EXPECT_EQ(fs.priority(UserId{1}), frozen);
}

TEST_F(FairShareFixture, Validation) {
  FairShareConfig bad = config();
  bad.update_interval = Duration::zero();
  EXPECT_THROW(FairShare(sim, bad), std::invalid_argument);
  bad = config();
  bad.half_life = Duration::zero();
  EXPECT_THROW(FairShare(sim, bad), std::invalid_argument);
  bad = config();
  bad.total_resources = 0;
  EXPECT_THROW(FairShare(sim, bad), std::invalid_argument);

  FairShare fs{sim, config()};
  EXPECT_THROW(fs.job_started(UserId{}, JobId{1}, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(fs.job_started(UserId{1}, JobId{1}, -1.0, 1), std::invalid_argument);
  EXPECT_THROW(fs.set_total_resources(0), std::invalid_argument);
}

}  // namespace
}  // namespace cg::broker
