// SiteHealth unit tests: exponential suspicion decay, the hard-exclusion
// window and its end-by-decay, reward gating above the exclusion threshold,
// the suspicion cap and erase floor, the disabled no-op mode, and the
// matchmaker wiring (hard-excluded sites skipped, ranks penalized), including
// the coarse pass over a real index reply.
#include <gtest/gtest.h>

#include <cmath>

#include "broker/matchmaker.hpp"
#include "broker/site_health.hpp"
#include "infosys/information_system.hpp"
#include "obs/metrics.hpp"

namespace cg::broker {
namespace {

using namespace cg::literals;

constexpr SiteId kSite{7};

SiteHealthConfig tuned() {
  SiteHealthConfig c;
  c.half_life = Duration::seconds(100);
  return c;
}

TEST(SiteHealthTest, SuspicionHalvesEveryHalfLife) {
  sim::Simulation sim;
  SiteHealth health{sim, tuned()};
  health.note_suspected(kSite);  // +1.0
  EXPECT_DOUBLE_EQ(health.suspicion(kSite), 1.0);
  EXPECT_DOUBLE_EQ(health.score(kSite), 0.5);

  sim.run_until(SimTime::from_seconds(100));
  EXPECT_DOUBLE_EQ(health.suspicion(kSite), 0.5);
  sim.run_until(SimTime::from_seconds(300));
  EXPECT_DOUBLE_EQ(health.suspicion(kSite), 0.125);
  // Untracked sites are perfectly healthy.
  EXPECT_DOUBLE_EQ(health.suspicion(SiteId{8}), 0.0);
  EXPECT_DOUBLE_EQ(health.score(SiteId{8}), 1.0);
}

TEST(SiteHealthTest, HardExclusionEndsByDecay) {
  sim::Simulation sim;
  SiteHealth health{sim, tuned()};
  health.note_eviction(kSite);   // +2.0
  health.note_suspected(kSite);  // +1.0 -> 3.0, above the 1.5 threshold
  EXPECT_TRUE(health.hard_excluded(kSite));
  // 3.0 halves to 1.5 after one half-life: still at the threshold...
  sim.run_until(SimTime::from_seconds(100));
  EXPECT_TRUE(health.hard_excluded(kSite));
  // ...and strictly below it any moment later.
  sim.run_until(SimTime::from_seconds(101));
  EXPECT_FALSE(health.hard_excluded(kSite));
  EXPECT_GT(health.suspicion(kSite), 0.0);
}

TEST(SiteHealthTest, RewardsAreDroppedWhileHardExcluded) {
  sim::Simulation sim;
  SiteHealth health{sim, tuned()};
  health.note_eviction(kSite);  // 2.0 >= threshold
  health.note_completion(kSite);
  health.note_restored(kSite);
  // Gated: rewards must not end an exclusion window early; only decay
  // closes it.
  EXPECT_DOUBLE_EQ(health.suspicion(kSite), 2.0);

  sim.run_until(SimTime::from_seconds(100));  // decayed to 1.0, back in play
  health.note_completion(kSite);              // -0.25 now applies
  EXPECT_DOUBLE_EQ(health.suspicion(kSite), 0.75);
  // Rewards for untracked sites stay no-ops (no negative suspicion).
  health.note_completion(SiteId{8});
  EXPECT_EQ(health.tracked_sites(), 1u);
}

TEST(SiteHealthTest, SuspicionIsCappedAndTinyResidueIsErased) {
  sim::Simulation sim;
  SiteHealth health{sim, tuned()};
  for (int i = 0; i < 10; ++i) health.note_eviction(kSite);
  EXPECT_DOUBLE_EQ(health.suspicion(kSite), health.config().max_suspicion);

  sim::Simulation sim2;
  SiteHealth small{sim2, tuned()};
  small.note_heartbeat_miss(kSite);  // 0.1, well under the threshold
  sim2.run_until(SimTime::from_seconds(100));
  small.note_completion(kSite);  // 0.05 - 0.25 clamps to 0 -> erased
  EXPECT_EQ(small.tracked_sites(), 0u);
  EXPECT_DOUBLE_EQ(small.suspicion(kSite), 0.0);
}

TEST(SiteHealthTest, DisabledConfigIsANoOp) {
  sim::Simulation sim;
  SiteHealthConfig config = tuned();
  config.enabled = false;
  SiteHealth health{sim, config};
  health.note_eviction(kSite);
  health.note_suspected(kSite);
  EXPECT_EQ(health.tracked_sites(), 0u);
  EXPECT_DOUBLE_EQ(health.suspicion(kSite), 0.0);
  EXPECT_DOUBLE_EQ(health.score(kSite), 1.0);
  EXPECT_FALSE(health.hard_excluded(kSite));
  EXPECT_DOUBLE_EQ(health.rank_penalty(kSite), 0.0);
}

TEST(SiteHealthTest, PublishesHealthGauge) {
  sim::Simulation sim;
  obs::MetricsRegistry metrics;
  SiteHealth health{sim, tuned()};
  health.set_metrics(&metrics);
  health.note_suspected(kSite);
  const auto snapshot = metrics.snapshot(sim.now());
  const auto* sample = snapshot.find(
      "broker.site.health", obs::LabelSet{{"site", "7"}});
  ASSERT_NE(sample, nullptr);
  EXPECT_DOUBLE_EQ(sample->value, 0.5);  // score of suspicion 1.0
}

// ------------------------------------------------- matchmaker integration --

infosys::SiteRecord make_record(std::uint64_t id, int free_cpus) {
  infosys::SiteRecord r;
  r.static_info.id = SiteId{id};
  r.static_info.name = "site" + std::to_string(id);
  r.static_info.arch = "i686";
  r.static_info.worker_nodes = free_cpus;
  r.static_info.cpus_per_node = 1;
  r.dynamic_info.free_cpus = free_cpus;
  return r;
}

jdl::JobDescription make_job() {
  auto jd = jdl::JobDescription::parse("Executable = \"app\";");
  EXPECT_TRUE(jd.has_value()) << (jd ? "" : jd.error().to_string());
  return jd.value();
}

class SiteHealthMatchFixture : public ::testing::Test {
protected:
  sim::Simulation sim;
  LeaseManager leases{sim};
  SiteHealth health{sim, tuned()};
  Matchmaker matchmaker;

  void SetUp() override { matchmaker.set_site_health(&health); }

  std::optional<SiteId> pick(const jdl::JobDescription& job,
                             const std::vector<infosys::SiteRecord>& records) {
    Rng rng{42};
    const auto compiled = matchmaker.compile(job);
    const auto chosen =
        matchmaker.match_one(*compiled, CandidateSource{records}, leases, 1, rng);
    return chosen ? std::optional<SiteId>{chosen->site} : std::nullopt;
  }
};

TEST_F(SiteHealthMatchFixture, PenaltyBreaksTiesAwayFromDegradedSite) {
  // Equal capacity: without health both sites tie. A single heartbeat miss
  // (suspicion 0.1, far below exclusion) must break the tie the other way.
  health.note_heartbeat_miss(SiteId{1});
  const auto job = make_job();
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(pick(job, {make_record(1, 4), make_record(2, 4)}), SiteId{2});
  }
}

TEST_F(SiteHealthMatchFixture, HardExcludedSiteIsSkippedEvenWhenBest) {
  // Site 1 offers strictly better rank but sits above the threshold.
  health.note_eviction(SiteId{1});
  const auto job = make_job();
  EXPECT_EQ(pick(job, {make_record(1, 8), make_record(2, 2)}), SiteId{2});
  // Exclusion everywhere -> no match at all.
  health.note_eviction(SiteId{2});
  EXPECT_EQ(pick(job, {make_record(1, 8), make_record(2, 2)}), std::nullopt);
  // Decay re-admits: after two half-lives site 1 (2.0 -> 0.5) is back and
  // wins on rank despite the residual penalty (8 - 0.5 > 2 - 0.5).
  sim.run_until(SimTime::from_seconds(200));
  EXPECT_EQ(pick(job, {make_record(1, 8), make_record(2, 2)}), SiteId{1});
}

TEST_F(SiteHealthMatchFixture, DetachedHealthRestoresHealthBlindMatching) {
  health.note_eviction(SiteId{1});
  matchmaker.set_site_health(nullptr);
  const auto job = make_job();
  EXPECT_EQ(pick(job, {make_record(1, 8), make_record(2, 2)}), SiteId{1});
}

TEST(SiteHealthCoarsePassTest, IndexListsExcludedSiteAndFilterSitesSkipsIt) {
  // The index serves published state only; hard exclusion is applied by the
  // matchmaker's coarse pass when the reply lands.
  sim::Simulation sim;
  infosys::InformationSystemConfig config;
  config.index_query_latency = 1_ms;
  infosys::InformationSystem is{sim, config};
  for (std::uint64_t id = 1; id <= 3; ++id) {
    const auto record = make_record(id, 4);
    is.register_site(record.static_info, [record] { return record; });
    is.publish(record);
  }
  SiteHealth health{sim, tuned()};
  health.note_eviction(SiteId{2});  // 2.0: hard-excluded
  ASSERT_TRUE(health.hard_excluded(SiteId{2}));

  std::shared_ptr<const infosys::InformationSystem::IndexSnapshot> reply;
  is.query_index_matching(
      1, [&reply](std::shared_ptr<const infosys::InformationSystem::IndexSnapshot>
                      records) { reply = std::move(records); });
  sim.run_until(SimTime::from_seconds(1));
  ASSERT_NE(reply, nullptr);
  std::vector<SiteId> listed;
  for (const auto& record : *reply) listed.push_back(record->static_info.id);
  EXPECT_EQ(listed, (std::vector<SiteId>{SiteId{1}, SiteId{2}, SiteId{3}}));

  obs::MetricsRegistry metrics;
  LeaseManager leases{sim};
  Matchmaker matchmaker;
  matchmaker.set_site_health(&health);
  matchmaker.set_metrics(&metrics);
  const auto compiled = matchmaker.compile(make_job());
  const auto coarse =
      matchmaker.filter_sites(*compiled, CandidateSource{*reply}, leases, 1);
  EXPECT_EQ(coarse, (std::vector<SiteId>{SiteId{1}, SiteId{3}}));
  const obs::Counter* excluded = metrics.find_counter(
      "broker.match.health_excluded", obs::LabelSet{{"pass", "coarse"}});
  ASSERT_NE(excluded, nullptr);
  EXPECT_EQ(excluded->value(), 1u);
}

}  // namespace
}  // namespace cg::broker
