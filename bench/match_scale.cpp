// Matchmaking scale benchmark: runs a deterministic workload through the
// broker's discovery and selection path (cached index replies, cached
// machine views, compiled Requirements/Rank, filter then select) with
// SiteHealth scoring active and nontrivial throughout, folds every decision
// into an FNV-1a digest, and reports throughput. Each grid size's digest and
// matched count are pinned constants, measured when the ClassAd interpreter
// still ran beside the compiled path and both made these exact decisions;
// any drift is a decision change and fails the run.
//
// Usage:
//   match_scale                 full sweep (sites {100,1000,10000} x jobs)
//   match_scale --smoke         smallest grid only
//   match_scale --json <path>   also write machine-readable results
// Exit status 1 when any row's digest or matched count differs from its pin.
#include <chrono>
#include <cstdint>
#include <deque>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "broker/matchmaker.hpp"
#include "infosys/information_system.hpp"
#include "util/stats.hpp"

namespace {

using namespace cg;
using namespace cg::broker;
using namespace cg::literals;

constexpr std::uint64_t kSeed = 42;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Deterministic site population: mixed arches, node counts, memory sizes
/// and free-CPU levels (including full sites), all pure functions of the
/// site index.
infosys::SiteRecord make_site(std::uint64_t i) {
  infosys::SiteRecord r;
  r.static_info.id = SiteId{i};
  r.static_info.name = "site" + std::to_string(i);
  r.static_info.arch = (i % 4 == 0) ? "x86_64" : "i686";
  r.static_info.worker_nodes = static_cast<int>(1 + i % 32);
  r.static_info.cpus_per_node = static_cast<int>(1 + i % 2);
  r.static_info.memory_mb_per_node = static_cast<std::int64_t>(512 << (i % 3));
  const int total = r.static_info.total_cpus();
  r.dynamic_info.free_cpus =
      static_cast<int>((i * 7919) % static_cast<std::uint64_t>(total + 1));
  r.dynamic_info.running_jobs = total - r.dynamic_info.free_cpus;
  r.dynamic_info.free_interactive_vms = static_cast<int>(i % 3);
  return r;
}

/// Job mix: plain capacity jobs, arch constraints, compound Requirements,
/// negative and compound Rank expressions. Cycled per job index.
jdl::JobDescription make_job(std::size_t j) {
  static const char* kTemplates[] = {
      "Executable = \"app\";",
      "Executable = \"app\"; Requirements = other.Arch == \"x86_64\";",
      "Executable = \"app\"; Requirements = other.MemoryMB >= 1024 && "
      "other.FreeCPUs >= 2;",
      "Executable = \"app\"; Rank = -other.FreeCPUs;",
      "Executable = \"app\"; Requirements = other.Arch == \"i686\" || "
      "other.TotalCPUs > 16; Rank = other.MemoryMB + other.FreeCPUs;",
  };
  auto jd = jdl::JobDescription::parse(kTemplates[j % 5]);
  if (!jd) {
    std::cerr << "template parse failure: " << jd.error().to_string() << "\n";
    std::exit(2);
  }
  return std::move(jd).value();
}

int needed_cpus(std::size_t j) {
  static constexpr int kNeeded[] = {1, 2, 4, 8};
  return kNeeded[j % 4];
}

struct RunResult {
  std::uint64_t digest = 0;
  double seconds = 0.0;
  std::size_t matched = 0;
};

/// Runs `jobs` matchmaking rounds against `n_sites` published sites. Every
/// decision (including "no match") folds into the digest; matched jobs
/// acquire a lease (with deterministic release churn) so the matchmaker's
/// lease shadowing sees deltas of both signs mid-run, and every 16th job a
/// site republishes with shifted load to exercise cache invalidation.
/// SiteHealth runs hot the whole time: a deterministic pre-seeded spread of
/// hard-excluded, penalized, and tie-biased sites plus in-loop miss/reward
/// churn, so the digest covers suspicion-aware placement.
RunResult run(std::size_t n_sites, std::size_t jobs) {
  sim::Simulation sim;
  infosys::InformationSystemConfig icfg;
  icfg.index_query_latency = Duration::millis(1);
  icfg.default_site_query_latency = Duration::millis(1);
  infosys::InformationSystem is{sim, icfg};
  LeaseManager leases{sim};
  SiteHealth health{sim};
  Matchmaker mm;
  mm.set_site_health(&health);
  Rng rng{kSeed};

  for (std::uint64_t i = 1; i <= n_sites; ++i) {
    const auto record = make_site(i);
    is.register_site(record.static_info, [record] { return record; });
    is.publish(record);
    // Nontrivial health state, a pure function of the site index: every 7th
    // site hard-excluded, every 5th rank-penalized, every 3rd tie-biased.
    if (i % 7 == 0) {
      health.note_eviction(SiteId{i});
    } else if (i % 5 == 0) {
      health.note_suspected(SiteId{i});
    } else if (i % 3 == 0) {
      health.note_miss(SiteId{i});
    }
  }

  RunResult out;
  out.digest = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  std::deque<LeaseId> active;
  const std::size_t max_active = std::max<std::size_t>(4, n_sites / 8);

  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t j = 0; j < jobs; ++j) {
    const auto desc = make_job(j);
    const int needed = needed_cpus(j);
    std::optional<SiteId> picked;
    bool delivered = false;
    is.query_index_matching(
        needed,
        [&, compiled = mm.compile(desc)](
            std::shared_ptr<const infosys::InformationSystem::IndexSnapshot>
                records) {
          picked = mm.select(mm.filter_compiled(*compiled,
                                                CandidateSource{*records},
                                                leases, needed),
                             rng);
          delivered = true;
        });
    sim.run_until(sim.now() + Duration::millis(2));
    if (!delivered) {
      std::cerr << "index query never delivered\n";
      std::exit(2);
    }

    out.digest = fnv1a(out.digest, static_cast<std::uint64_t>(j));
    out.digest = fnv1a(out.digest, picked ? picked->value() : 0);
    if (picked) {
      ++out.matched;
      if (auto lease = leases.acquire(*picked, needed, 3600_s)) {
        active.push_back(*lease);
      }
      while (active.size() > max_active) {
        leases.release(active.front());
        active.pop_front();
      }
    }
    // Health churn between rounds: fresh evidence against a rotating site,
    // rewards on some matched sites.
    if (j % 4 == 0) {
      health.note_miss(SiteId{1 + (j * 13) % n_sites});
    }
    if (picked && j % 8 == 3) health.note_completion(*picked);
    if (j % 16 == 15) {
      // Republish one site with shifted load: invalidates its cached
      // machine view and every cached index reply.
      auto churned = make_site(1 + (j * 31) % n_sites);
      churned.dynamic_info.free_cpus =
          (churned.dynamic_info.free_cpus + static_cast<int>(j)) %
          (churned.static_info.total_cpus() + 1);
      is.publish(churned);
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  return out;
}

/// A pinned grid size: the digest and matched count its decisions fold to.
struct Pin {
  std::size_t sites;
  std::size_t jobs;
  std::uint64_t digest;
  std::size_t matched;
};

constexpr Pin kSmokePins[] = {{100, 16, 0xe0b130b0a9b9721cULL, 16}};
constexpr Pin kSweepPins[] = {
    {100, 128, 0x1e5e3af64527f8a8ULL, 128},
    {1000, 128, 0x1859cc0a669119c0ULL, 128},
    {10000, 64, 0xb5bbb9fcef207a75ULL, 64},
};

struct Row {
  Pin pin;
  RunResult result;
  [[nodiscard]] bool digest_match() const {
    return result.digest == pin.digest && result.matched == pin.matched;
  }
  [[nodiscard]] double jobs_per_sec() const {
    return result.seconds > 0.0
               ? static_cast<double>(pin.jobs) / result.seconds
               : 0.0;
  }
};

std::string hex(std::uint64_t v) {
  std::ostringstream out;
  out << "0x" << std::hex << v;
  return out.str();
}

void write_json(const std::string& path, const std::vector<Row>& rows) {
  std::ofstream f{path};
  f << "{\n  \"bench\": \"match_scale\",\n  \"seed\": " << kSeed
    << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    f << "    {\"sites\": " << r.pin.sites << ", \"jobs\": " << r.pin.jobs
      << ", \"matched\": " << r.result.matched
      << ", \"seconds\": " << r.result.seconds
      << ", \"jobs_per_sec\": " << r.jobs_per_sec() << ", \"digest\": \""
      << hex(r.result.digest) << "\", \"digest_match\": "
      << (r.digest_match() ? "true" : "false") << "}"
      << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  f << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: match_scale [--smoke] [--json <path>]\n";
      return 2;
    }
  }

  std::vector<Pin> pins;
  if (smoke) {
    pins.assign(std::begin(kSmokePins), std::end(kSmokePins));
  } else {
    pins.assign(std::begin(kSweepPins), std::end(kSweepPins));
  }

  std::cout << "== match_scale: compiled matchmaking vs pinned decisions ==\n";
  std::vector<Row> rows;
  bool diverged = false;
  for (const Pin& pin : pins) {
    Row row{pin, run(pin.sites, pin.jobs)};
    if (!row.digest_match()) {
      diverged = true;
      std::cerr << "[FAIL] decision drift at " << pin.sites << " sites x "
                << pin.jobs << " jobs: digest " << hex(row.result.digest)
                << " (pinned " << hex(pin.digest) << "), matched "
                << row.result.matched << " (pinned " << pin.matched << ")\n";
    }
    rows.push_back(row);
  }

  cg::TablePrinter table{
      {"Sites", "Jobs", "Matched", "Seconds", "Jobs/s", "Digest"}};
  for (const Row& r : rows) {
    table.add_row({std::to_string(r.pin.sites), std::to_string(r.pin.jobs),
                   std::to_string(r.result.matched),
                   cg::fmt_fixed(r.result.seconds, 4),
                   cg::fmt_fixed(r.jobs_per_sec(), 0),
                   r.digest_match() ? "pinned" : "DRIFTED"});
  }
  std::cout << table.render() << "\n";
  if (!json_path.empty()) write_json(json_path, rows);
  std::cout << (diverged ? "[MISS] decisions drifted from the pinned digests\n"
                         : "[ok]   every decision digest matches its pin\n");
  return diverged ? 1 : 0;
}
