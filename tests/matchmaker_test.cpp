// Matchmaker and lease-manager tests: Requirements filtering, Rank ordering,
// randomized tie-breaking, and exclusive temporal access.
#include <gtest/gtest.h>

#include <set>

#include "broker/matchmaker.hpp"

namespace cg::broker {
namespace {

using namespace cg::literals;

infosys::SiteRecord make_record(std::uint64_t id, int free_cpus,
                                const std::string& arch = "i686") {
  infosys::SiteRecord r;
  r.static_info.id = SiteId{id};
  r.static_info.name = "site" + std::to_string(id);
  r.static_info.arch = arch;
  r.static_info.worker_nodes = free_cpus;
  r.static_info.cpus_per_node = 1;
  r.dynamic_info.free_cpus = free_cpus;
  return r;
}

jdl::JobDescription make_job(const std::string& extra = "") {
  auto jd = jdl::JobDescription::parse("Executable = \"app\";\n" + extra);
  EXPECT_TRUE(jd.has_value()) << (jd ? "" : jd.error().to_string());
  return jd.value();
}

class MatchmakerFixture : public ::testing::Test {
protected:
  sim::Simulation sim;
  LeaseManager leases{sim};
  Matchmaker matchmaker;
};

TEST_F(MatchmakerFixture, CapacityFilter) {
  const auto job = make_job();
  const auto out = matchmaker.filter(
      job, {make_record(1, 0), make_record(2, 3)}, leases, 1);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].site, SiteId{2});
  EXPECT_EQ(out[0].effective_free_cpus, 3);
}

TEST_F(MatchmakerFixture, RequirementsFilter) {
  const auto job = make_job("Requirements = other.Arch == \"x86_64\";");
  const auto out = matchmaker.filter(
      job, {make_record(1, 4, "i686"), make_record(2, 4, "x86_64")}, leases, 1);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].site, SiteId{2});
}

TEST_F(MatchmakerFixture, NeededCpusRespectsParallelJobs) {
  const auto job = make_job();
  const auto out = matchmaker.filter(
      job, {make_record(1, 2), make_record(2, 8)}, leases, 4);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].site, SiteId{2});
}

TEST_F(MatchmakerFixture, LeasesShadowFreeCpus) {
  const auto job = make_job();
  ASSERT_TRUE(leases.acquire(SiteId{1}, 3, 60_s));
  const auto out = matchmaker.filter(job, {make_record(1, 4)}, leases, 2);
  // 4 free - 3 leased = 1 effective, below the 2 needed.
  EXPECT_TRUE(out.empty());
  const auto loose = matchmaker.filter(job, {make_record(1, 4)}, leases, 1);
  ASSERT_EQ(loose.size(), 1u);
  EXPECT_EQ(loose[0].effective_free_cpus, 1);
}

TEST_F(MatchmakerFixture, DefaultRankPrefersFreeCpus) {
  const auto job = make_job();
  const auto out = matchmaker.filter(
      job, {make_record(1, 2), make_record(2, 8)}, leases, 1);
  Rng rng{1};
  // Site 2 has strictly better rank; selection must always pick it.
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(matchmaker.select(out, rng), SiteId{2});
  }
}

TEST_F(MatchmakerFixture, CustomRankExpression) {
  // Prefer the *fuller* site via a custom Rank.
  const auto job = make_job("Rank = -other.FreeCPUs;");
  const auto out = matchmaker.filter(
      job, {make_record(1, 2), make_record(2, 8)}, leases, 1);
  Rng rng{1};
  EXPECT_EQ(matchmaker.select(out, rng), SiteId{1});
}

TEST_F(MatchmakerFixture, RandomizedSelectionAmongTies) {
  // "Randomized selection of resources ... used to generate different
  // answers when there are multiple resource choices."
  const auto job = make_job();
  const auto out = matchmaker.filter(
      job, {make_record(1, 4), make_record(2, 4), make_record(3, 4)}, leases, 1);
  Rng rng{99};
  std::set<std::uint64_t> chosen;
  for (int i = 0; i < 100; ++i) {
    const auto site = matchmaker.select(out, rng);
    ASSERT_TRUE(site.has_value());
    chosen.insert(site->value());
  }
  EXPECT_EQ(chosen.size(), 3u);
}

TEST_F(MatchmakerFixture, SelectEmptyReturnsNullopt) {
  Rng rng{1};
  EXPECT_FALSE(matchmaker.select({}, rng).has_value());
}

TEST_F(MatchmakerFixture, NonNumericRankIsNeutral) {
  const auto job = make_job("Rank = \"not a number\";");
  const auto out = matchmaker.filter(job, {make_record(1, 4)}, leases, 1);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rank, 0.0);
}

TEST_F(MatchmakerFixture, TieMarginIsSymmetricUnderNegation) {
  // Regression for the asymmetric tie window: the old rule
  // `rank >= best - |best| * margin` scaled by the best rank's magnitude,
  // which for negative ranks is the *smallest* magnitude in the tie set —
  // ranks {10, 18} tied under margin 0.5 while the mirrored {-10, -18}
  // (gap 8, window |−10|·0.5 = 5) did not. The window now scales with the
  // larger magnitude, so negating every rank preserves the tie set.
  const Matchmaker wide{MatchmakerConfig{.rank_tie_margin = 0.5}};
  const auto records = [&] {
    return std::vector<infosys::SiteRecord>{make_record(1, 10),
                                            make_record(2, 18)};
  };
  const auto draws = [&](const std::string& rank_expr) {
    const auto out =
        wide.filter(make_job(rank_expr), records(), leases, 1);
    EXPECT_EQ(out.size(), 2u);
    Rng rng{7};
    std::set<std::uint64_t> chosen;
    for (int i = 0; i < 200; ++i) {
      const auto site = wide.select(out, rng);
      if (site) chosen.insert(site->value());
    }
    return chosen;
  };
  // Ranks {10, 18}: gap 8 within 0.5 * 18 = 9 -> both are ties.
  EXPECT_EQ(draws("Rank = other.FreeCPUs;").size(), 2u);
  // Mirrored ranks {-10, -18}: same gap, same window -> still both ties.
  EXPECT_EQ(draws("Rank = -other.FreeCPUs;").size(), 2u);
}

// ---------------------------------------------------------------- leases ----

TEST(LeaseManagerTest, AcquireReleaseCounts) {
  sim::Simulation sim;
  LeaseManager leases{sim};
  const LeaseId a = leases.acquire(SiteId{1}, 2, 60_s).value();
  ASSERT_TRUE(leases.acquire(SiteId{1}, 1, 60_s));
  ASSERT_TRUE(leases.acquire(SiteId{2}, 5, 60_s));
  EXPECT_EQ(leases.leased_cpus(SiteId{1}), 3);
  EXPECT_EQ(leases.leased_cpus(SiteId{2}), 5);
  EXPECT_EQ(leases.active_leases(), 3u);
  EXPECT_TRUE(leases.release(a));
  EXPECT_FALSE(leases.release(a));  // double release
  EXPECT_EQ(leases.leased_cpus(SiteId{1}), 1);
}

TEST(LeaseManagerTest, ExpiryFreesAutomatically) {
  sim::Simulation sim;
  LeaseManager leases{sim};
  ASSERT_TRUE(leases.acquire(SiteId{1}, 4, 30_s));
  sim.run_until(SimTime::from_seconds(29));
  EXPECT_EQ(leases.leased_cpus(SiteId{1}), 4);
  sim.run_until(SimTime::from_seconds(31));
  EXPECT_EQ(leases.leased_cpus(SiteId{1}), 0);
  EXPECT_EQ(leases.active_leases(), 0u);
}

TEST(LeaseManagerTest, ReleaseCancelsExpiryEvent) {
  sim::Simulation sim;
  LeaseManager leases{sim};
  const LeaseId a = leases.acquire(SiteId{1}, 1, 30_s).value();
  EXPECT_TRUE(leases.release(a));
  sim.run();  // the cancelled expiry must not fire on a stale id
  EXPECT_EQ(leases.active_leases(), 0u);
}

TEST(LeaseManagerTest, Validation) {
  sim::Simulation sim;
  LeaseManager leases{sim};
  // Validation failures come back as typed errors, not throws.
  const auto bad_site = leases.acquire(SiteId{}, 1, 1_s);
  ASSERT_FALSE(bad_site);
  EXPECT_EQ(bad_site.error().code, "broker.lease_invalid");
  EXPECT_FALSE(leases.acquire(SiteId{1}, 0, 1_s));
  EXPECT_FALSE(leases.acquire(SiteId{1}, 1, Duration::zero()));
}

TEST(LeaseManagerTest, CapacityConflict) {
  sim::Simulation sim;
  LeaseManager leases{sim};
  ASSERT_TRUE(leases.acquire(SiteId{1}, 3, 60_s));
  // A 4-CPU site with 3 leased refuses 2 more but accepts 1.
  const auto conflict = leases.acquire(SiteId{1}, 2, 60_s, 4);
  ASSERT_FALSE(conflict);
  EXPECT_EQ(conflict.error().code, "broker.lease_conflict");
  EXPECT_TRUE(leases.acquire(SiteId{1}, 1, 60_s, 4));
  EXPECT_EQ(leases.leased_cpus(SiteId{1}), 4);
}

}  // namespace
}  // namespace cg::broker
