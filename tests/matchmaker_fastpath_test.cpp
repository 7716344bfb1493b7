// Compiled matchmaking tests: compiled-expression semantics, the index
// reply and its invalidation rules, per-record parity with the ClassAd
// interpreter (down to rng lockstep), pinned end-to-end trace digests, and
// the scan/cache metrics. The interpreter is the oracle throughout.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "broker/matchmaker.hpp"
#include "grid/grid.hpp"
#include "jdl/eval.hpp"

namespace cg::broker {
namespace {

using namespace cg::literals;

infosys::SiteRecord make_record(std::uint64_t id, int free_cpus,
                                const std::string& arch = "i686",
                                std::int64_t memory_mb = 1024) {
  infosys::SiteRecord r;
  r.static_info.id = SiteId{id};
  r.static_info.name = "site" + std::to_string(id);
  r.static_info.arch = arch;
  r.static_info.worker_nodes = std::max(free_cpus, 1);
  r.static_info.cpus_per_node = 1;
  r.static_info.memory_mb_per_node = memory_mb;
  r.dynamic_info.free_cpus = free_cpus;
  return r;
}

jdl::JobDescription make_job(const std::string& extra = "") {
  auto jd = jdl::JobDescription::parse("Executable = \"app\";\n" + extra);
  EXPECT_TRUE(jd.has_value()) << (jd ? "" : jd.error().to_string());
  return jd.value();
}

// ------------------------------------------------- compiled expressions ----

jdl::CompiledMatch compile_job(const std::string& extra) {
  return jdl::CompiledMatch::compile(make_job(extra).ad(),
                                     infosys::machine_slot_layout());
}

jdl::SlotEvalContext context_for(const infosys::SiteRecord& record) {
  jdl::SlotEvalContext ctx;
  ctx.slots = &record.machine_view().slots;
  return ctx;
}

TEST(CompiledMatchTest, SiteIndependentConjunctsFoldAway) {
  // `true` and `1 + 1 == 2` are decidable at compile time; only the
  // site-dependent conjunct must survive to be evaluated per record.
  const auto compiled =
      compile_job("Requirements = true && 1 + 1 == 2 && other.FreeCPUs >= 1;");
  EXPECT_FALSE(compiled.never_matches());
  EXPECT_EQ(compiled.residual_conjunct_count(), 1u);
}

TEST(CompiledMatchTest, ConstantFalseConjunctNeverMatches) {
  const auto compiled =
      compile_job("Requirements = other.FreeCPUs >= 1 && 2 < 1;");
  EXPECT_TRUE(compiled.never_matches());
}

TEST(CompiledMatchTest, SelfScopeReferencesAreInlined) {
  // self.MinMem resolves against the job ad at compile time, so the
  // residual expression only reads machine slots.
  const auto compiled = compile_job(
      "MinMem = 2048;\nRequirements = other.MemoryMB >= self.MinMem;");
  EXPECT_EQ(compiled.residual_conjunct_count(), 1u);
  const auto small = make_record(1, 4, "i686", 1024);
  const auto big = make_record(2, 4, "i686", 4096);
  EXPECT_FALSE(compiled.matches(context_for(small)));
  EXPECT_TRUE(compiled.matches(context_for(big)));
}

TEST(CompiledMatchTest, UnknownAttributeIsStaticallyUnmatchable) {
  // Machine ads always carry exactly the slot-layout attributes, so a
  // reference to anything else is Undefined on every site — the compiler
  // may (and does) decide the requirement statically.
  const auto compiled = compile_job("Requirements = other.NoSuchAttr > 3;");
  EXPECT_TRUE(compiled.never_matches());
  EXPECT_FALSE(compiled.matches(context_for(make_record(1, 8))));
}

TEST(CompiledMatchTest, RankEvaluatesAgainstSlots) {
  const auto compiled = compile_job("Rank = other.FreeCPUs * 2 + 1;");
  ASSERT_TRUE(compiled.has_rank());
  EXPECT_EQ(compiled.rank(context_for(make_record(1, 5))), 11.0);
}

// ------------------------------------------------- interpreter parity ------

/// The interpreter oracle: rebuilds each site's machine ClassAd and walks
/// the job's Requirements/Rank ASTs with jdl::symmetric_match and
/// jdl::evaluate, the reference semantics the compiled form must reproduce.
std::vector<Candidate> interpreted_candidates(
    const jdl::JobDescription& job,
    const std::vector<infosys::SiteRecord>& records, const LeaseManager& leases,
    int needed_cpus) {
  std::vector<Candidate> out;
  for (const auto& record : records) {
    const int effective =
        record.dynamic_info.free_cpus - leases.leased_cpus(record.static_info.id);
    if (effective < needed_cpus) continue;

    jdl::ClassAd machine = record.to_classad();
    machine.set_int("FreeCPUs", effective);  // leases shadow the raw count
    if (!jdl::symmetric_match(job.ad(), machine)) continue;

    Candidate c;
    c.site = record.static_info.id;
    c.effective_free_cpus = effective;
    if (const jdl::ExprPtr rank_expr = job.rank()) {
      jdl::EvalContext ctx;
      ctx.self = &job.ad();
      ctx.other = &machine;
      const jdl::Value v = jdl::evaluate(*rank_expr, ctx);
      c.rank = v.is_number() ? v.as_number() : 0.0;  // non-numeric: neutral
    } else {
      c.rank = static_cast<double>(effective);  // default: emptier sites
    }
    out.push_back(c);
  }
  return out;
}

const std::vector<std::string>& job_templates() {
  static const std::vector<std::string> templates{
      "",
      "Requirements = other.Arch == \"x86_64\";",
      "Requirements = other.MemoryMB >= 1024 && other.FreeCPUs >= 2;",
      "Rank = -other.FreeCPUs;",
      "Requirements = other.Arch == \"i686\" || other.TotalCPUs > 6;\n"
      "Rank = other.MemoryMB + other.FreeCPUs;",
      "Requirements = false;",
      "Rank = 3;",
  };
  return templates;
}

std::vector<infosys::SiteRecord> parity_records() {
  std::vector<infosys::SiteRecord> records;
  for (std::uint64_t i = 1; i <= 12; ++i) {
    records.push_back(make_record(i, static_cast<int>(i * 5 % 9),
                                  i % 3 == 0 ? "x86_64" : "i686",
                                  512 << (i % 3)));
  }
  return records;
}

TEST(FastPathParityTest, FilterMatchesLegacyCandidateForCandidate) {
  sim::Simulation sim;
  LeaseManager leases{sim};
  ASSERT_TRUE(leases.acquire(SiteId{5}, 2, 3600_s));  // shadow one site
  const Matchmaker matchmaker;
  const auto records = parity_records();
  for (const auto& tmpl : job_templates()) {
    for (const int needed : {1, 4}) {
      const auto job = make_job(tmpl);
      const auto expect = interpreted_candidates(job, records, leases, needed);
      const auto got = matchmaker.filter(job, records, leases, needed);
      ASSERT_EQ(got.size(), expect.size()) << tmpl << " needed=" << needed;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].site, expect[i].site) << tmpl;
        EXPECT_EQ(got[i].rank, expect[i].rank) << tmpl;
        EXPECT_EQ(got[i].effective_free_cpus, expect[i].effective_free_cpus)
            << tmpl;
      }
    }
  }
}

TEST(FastPathParityTest, CompiledSelectEqualsInterpretedSelectInRngLockstep) {
  // The broker's one selection path, select(filter_compiled(...)), picks
  // the site the interpreter's candidates give, with the same rng draws.
  sim::Simulation sim;
  LeaseManager leases{sim};
  const Matchmaker matchmaker;
  const auto records = parity_records();
  for (const auto& tmpl : job_templates()) {
    for (const int needed : {1, 4}) {
      for (const std::uint64_t seed : {1ULL, 7ULL, 23ULL}) {
        const auto job = make_job(tmpl);
        Rng oracle_rng{seed};
        Rng compiled_rng{seed};
        const auto expect = matchmaker.select(
            interpreted_candidates(job, records, leases, needed), oracle_rng);
        const auto compiled = matchmaker.compile(job);
        const auto got = matchmaker.select(
            matchmaker.filter_compiled(*compiled, CandidateSource{records},
                                       leases, needed),
            compiled_rng);
        EXPECT_EQ(got, expect) << tmpl;
        // Both must have consumed the exact same number of draws.
        EXPECT_EQ(compiled_rng.next_u64(), oracle_rng.next_u64()) << tmpl;
      }
    }
  }
}

// ------------------------------------------------- index replies ---------

class IndexFixture : public ::testing::Test {
protected:
  IndexFixture() : is{sim, fast_config()} {}

  static infosys::InformationSystemConfig fast_config() {
    infosys::InformationSystemConfig c;
    c.index_query_latency = Duration::millis(1);
    c.default_site_query_latency = Duration::millis(1);
    return c;
  }

  void add_site(std::uint64_t id, int free_cpus) {
    const auto record = make_record(id, free_cpus);
    is.register_site(record.static_info, [record] { return record; });
    is.publish(record);
  }

  std::vector<std::uint64_t> matching_ids(int needed) {
    std::vector<std::uint64_t> ids;
    is.query_index_matching(
        needed,
        [&ids](std::shared_ptr<const infosys::InformationSystem::IndexSnapshot>
                   records) {
          for (const auto& r : *records) {
            ids.push_back(r->static_info.id.value());
          }
        });
    sim.run_until(sim.now() + Duration::millis(2));
    return ids;
  }

  sim::Simulation sim;
  infosys::InformationSystem is;
};

TEST_F(IndexFixture, PrunesByPublishedFreeCpusInAscendingIdOrder) {
  add_site(3, 9);
  add_site(1, 0);
  add_site(2, 5);
  add_site(4, 2);
  EXPECT_EQ(matching_ids(4), (std::vector<std::uint64_t>{2, 3}));
  EXPECT_EQ(matching_ids(1), (std::vector<std::uint64_t>{2, 3, 4}));
  EXPECT_EQ(matching_ids(10), (std::vector<std::uint64_t>{}));
}

TEST_F(IndexFixture, RepublishMovesSiteInAndOutOfReplies) {
  add_site(1, 8);
  EXPECT_EQ(matching_ids(4), (std::vector<std::uint64_t>{1}));
  auto drained = make_record(1, 1);
  is.publish(drained);  // site filled up: must leave the needed>=4 reply
  EXPECT_EQ(matching_ids(4), (std::vector<std::uint64_t>{}));
  EXPECT_EQ(matching_ids(1), (std::vector<std::uint64_t>{1}));
  is.publish(make_record(1, 8));
  EXPECT_EQ(matching_ids(4), (std::vector<std::uint64_t>{1}));
}

TEST_F(IndexFixture, UnregisterRemovesSiteFromIndex) {
  add_site(1, 8);
  add_site(2, 8);
  is.unregister_site(SiteId{1});
  EXPECT_EQ(matching_ids(1), (std::vector<std::uint64_t>{2}));
}

TEST_F(IndexFixture, InvalidationListenerReportsEveryReason) {
  std::vector<std::pair<std::uint64_t, std::string>> events;
  is.set_invalidation_listener([&events](SiteId id, const char* reason) {
    events.emplace_back(id.value(), reason);
  });
  add_site(1, 8);  // first publication: nothing to invalidate
  EXPECT_TRUE(events.empty());
  is.publish(make_record(1, 3));
  is.unregister_site(SiteId{1});
  const std::vector<std::pair<std::uint64_t, std::string>> expected{
      {1, "republish"}, {1, "unregister"}};
  EXPECT_EQ(events, expected);
}

TEST_F(IndexFixture, SnapshotsShareOnePrimedMachineView) {
  add_site(1, 8);
  using Snapshot = infosys::InformationSystem::IndexSnapshot;
  std::shared_ptr<const Snapshot> first;
  std::shared_ptr<const Snapshot> second;
  is.query_index_matching(
      1, [&first](std::shared_ptr<const Snapshot> r) { first = std::move(r); });
  is.query_index_matching(1, [&second](std::shared_ptr<const Snapshot> r) {
    second = std::move(r);
  });
  sim.run_until(sim.now() + Duration::millis(2));
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  ASSERT_EQ(first->size(), 1u);
  ASSERT_EQ(second->size(), 1u);
  // Publication primed the cache once; every snapshot aliases that record —
  // and with no index change in between, the queries share one cached
  // snapshot vector outright.
  EXPECT_TRUE((*first)[0]->cache_primed());
  EXPECT_EQ((*first)[0].get(), (*second)[0].get());
  EXPECT_EQ(first.get(), second.get());
}

// ------------------------------------------------- end-to-end digests -------

/// FNV-1a-64 over the bytes of `text`.
std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string run_trace(std::uint64_t seed) {
  GridConfig config;
  config.sites = 6;
  config.nodes_per_site = 4;
  config.seed = seed;
  Grid grid{config};
  const std::vector<std::string> jobs{
      "Executable = \"batch\";",
      "Executable = \"viz\"; JobType = \"interactive\";",
      "Executable = \"sim\"; Rank = -other.FreeCPUs;",
      "Executable = \"render\"; Requirements = other.FreeCPUs >= 2;",
      "Executable = \"viz2\"; JobType = \"interactive\"; Rank = 1;",
      "Executable = \"hold\"; Requirements = other.NoSuchAttr > 1;",
  };
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    auto jd = jdl::JobDescription::parse(jobs[i]);
    EXPECT_TRUE(jd.has_value());
    const auto handle =
        grid.submit(jd.value(), UserId{i + 1},
                    lrms::Workload::cpu(Duration::seconds(
                        60 * (static_cast<std::int64_t>(i) + 1))));
    EXPECT_TRUE(handle.has_value()) << jobs[i];
  }
  grid.run_for(Duration::seconds(3600));
  return grid.export_trace_jsonl();
}

TEST(FastPathEndToEndTest, SameSeedRunsExportByteIdenticalTraces) {
  // Pinned from the last commit that still ran the ClassAd interpreter
  // beside the compiled path, where both exported these exact traces.
  const std::pair<std::uint64_t, std::uint64_t> pinned[] = {
      {1, 0x3c7059259db4835cULL},
      {2, 0xfd8546b240caf19bULL},
      {3, 0x488bb351c2239aa3ULL},
  };
  for (const auto& [seed, digest] : pinned) {
    const std::string trace = run_trace(seed);
    EXPECT_EQ(trace.size(), 33883u) << "seed " << seed;
    EXPECT_EQ(fnv1a64(trace), digest)
        << "trace divergence at seed " << seed << ": 0x" << std::hex
        << fnv1a64(trace);
  }
}

TEST(FastPathEndToEndTest, OfflineSiteIsNeverMatchedFromStaleIndex) {
  GridConfig config;
  config.sites = 4;
  config.nodes_per_site = 4;
  config.seed = 11;
  Grid grid{config};
  const SiteId dead = grid.site(0).id();
  // Kill the site before any republication cycle: a missed index
  // invalidation would keep handing out its stale (idle) record, which
  // would out-rank every busy survivor.
  grid.scenario().take_site_offline(0);
  std::vector<JobHandle> handles;
  for (std::uint64_t u = 1; u <= 6; ++u) {
    auto jd = jdl::JobDescription::parse(
        "Executable = \"viz\"; JobType = \"interactive\";");
    ASSERT_TRUE(jd.has_value());
    auto handle = grid.submit(jd.value(), UserId{u},
                              lrms::Workload::cpu(Duration::seconds(300)));
    ASSERT_TRUE(handle.has_value());
    handles.push_back(*handle);
  }
  grid.run_for(Duration::seconds(1800));
  std::size_t placed = 0;
  for (const auto& handle : handles) {
    const JobRecord* record = handle.record();
    ASSERT_NE(record, nullptr);
    for (const auto& subjob : record->subjobs) {
      if (!subjob.site.valid()) continue;
      ++placed;
      EXPECT_NE(subjob.site, dead) << "job placed on an offline site";
    }
  }
  EXPECT_GT(placed, 0u);
}

TEST(FastPathEndToEndTest, FastPathEmitsCacheAndScanMetrics) {
  GridConfig config;
  config.sites = 4;
  config.nodes_per_site = 4;
  config.seed = 5;
  Grid grid{config};
  for (std::uint64_t u = 1; u <= 4; ++u) {
    auto jd = jdl::JobDescription::parse("Executable = \"app\";");
    ASSERT_TRUE(jd.has_value());
    ASSERT_TRUE(grid.submit(jd.value(), UserId{u},
                            lrms::Workload::cpu(Duration::seconds(120))));
  }
  grid.run_for(Duration::seconds(600));
  EXPECT_GT(grid.metrics().counter_total("broker.match.cache_hits"), 0u);
  // Periodic republication replaces published records -> "republish".
  EXPECT_GE(grid.metrics().counter_total("broker.match.cache_invalidations"),
            1u);
  const auto* coarse = grid.metrics().find_histogram(
      "broker.match.sites_scanned", obs::LabelSet{{"pass", "coarse"}});
  ASSERT_NE(coarse, nullptr);
  EXPECT_GE(coarse->count(), 1u);
  const auto* fresh = grid.metrics().find_histogram(
      "broker.match.sites_scanned", obs::LabelSet{{"pass", "fresh"}});
  ASSERT_NE(fresh, nullptr);
  EXPECT_GE(fresh->count(), 1u);
}

}  // namespace
}  // namespace cg::broker
