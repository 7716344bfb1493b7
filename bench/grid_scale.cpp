// Grid-size sweep of per-job host cost: the full broker stack (GridScenario:
// sites, gatekeepers, information system, control bus, CrossBroker) driven
// by a WorkloadGenerator, with no observability attached. Each row has
// 8 nodes per site, batch arrivals every 281.25 s / sites on average (about
// 80% load with the generator's 30 min mean batch runtime) and interactive
// arrivals every 375 s / sites, for 2 h of arrivals, and runs to
// quiescence. It reports jobs, events, wall seconds, host milliseconds per
// job and heap allocations per job over the run phase (counted via replaced
// operator new). The paper's per-site selection implies linear cost in
// sites; per-job cost that grows with the grid shows up as host ms per job
// rising from row to row.
//
// The workload is deterministic, so every row's job and event counts are
// pinned: the run exits 1 when any differs, and when the 32-site row
// allocates more per job than its pinned ceiling.
//
// Usage:
//   grid_scale                 32, 64, 128 and 256 sites
//   grid_scale --smoke         32 sites only
//   grid_scale --json <path>   also write the rows as JSON
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "broker/grid_scenario.hpp"
#include "broker/workload_generator.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

// ------------------------------------------------- allocation accounting ----
// Replacing global operator new counts every heap allocation the stack makes
// while it runs. Single-threaded by construction, so a plain counter does.

namespace {
std::size_t g_alloc_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, std::align_val_t align) {
  ++g_alloc_count;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size)) {
    return p;
  }
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace cg;

/// Expected job and event counts per grid size (the workload is seeded).
struct Pinned {
  int sites;
  std::size_t jobs;
  std::size_t events;
};
constexpr Pinned kPinned[] = {
    {32, 1449, 225809},
    {64, 2911, 498830},
    {128, 5622, 1198976},
    {256, 11333, 3223623},
};
/// Ceiling on the 32-site row's run-phase allocations per job.
constexpr double kSmokeAllocsPerJobCeiling = 210.0;

struct Row {
  int sites = 0;
  std::size_t jobs = 0;
  std::size_t events = 0;
  double wall_s = 0.0;
  std::size_t allocs = 0;

  [[nodiscard]] double host_ms_per_job() const {
    return jobs > 0 ? wall_s * 1000.0 / static_cast<double>(jobs) : 0.0;
  }
  [[nodiscard]] double allocs_per_job() const {
    return jobs > 0 ? static_cast<double>(allocs) / static_cast<double>(jobs)
                    : 0.0;
  }
};

Row run_row(int sites) {
  broker::GridScenarioConfig config;
  config.sites = sites;
  config.nodes_per_site = 8;
  broker::GridScenario grid{config};

  broker::WorkloadGeneratorConfig load;
  load.batch_interarrival = Duration::from_seconds(281.25 / sites);
  load.interactive_interarrival = Duration::from_seconds(375.0 / sites);
  load.horizon = SimTime::from_seconds(2 * 3600);
  broker::WorkloadGenerator generator{grid.sim(), grid.broker(), load};
  generator.start();

  Row row;
  row.sites = sites;
  const std::size_t allocs_before = g_alloc_count;
  const auto start = std::chrono::steady_clock::now();
  grid.sim().run();
  row.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start)
                   .count();
  row.allocs = g_alloc_count - allocs_before;
  row.events = grid.sim().processed_events();
  row.jobs = grid.broker().all_records().size();
  return row;
}

void write_json(const std::string& path, const std::vector<Row>& rows) {
  std::ofstream f{path};
  f << "{\n  \"bench\": \"grid_scale\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    f << "    {\"sites\": " << r.sites << ", \"jobs\": " << r.jobs
      << ", \"events\": " << r.events << ", \"wall_s\": " << r.wall_s
      << ", \"host_ms_per_job\": " << r.host_ms_per_job()
      << ", \"allocs_per_job\": " << r.allocs_per_job() << "}"
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
      std::cerr << "usage: grid_scale [--smoke] [--json <path>]\n";
      return 2;
    }
  }
  Logger::instance().set_level(LogLevel::kOff);

  std::cout << "== grid_scale: per-job host cost of the broker stack vs sites ==\n";
  std::vector<Row> rows;
  bool failed = false;
  for (const Pinned& pinned : kPinned) {
    if (smoke && pinned.sites != 32) continue;
    const Row row = run_row(pinned.sites);
    if (row.jobs != pinned.jobs || row.events != pinned.events) {
      failed = true;
      std::cerr << "[FAIL] " << row.sites << " sites: " << row.jobs << " jobs / "
                << row.events << " events, pinned " << pinned.jobs << " / "
                << pinned.events << "\n";
    }
    if (row.sites == 32 && row.allocs_per_job() > kSmokeAllocsPerJobCeiling) {
      failed = true;
      std::cerr << "[FAIL] 32 sites: " << row.allocs_per_job()
                << " allocations per job, ceiling " << kSmokeAllocsPerJobCeiling
                << "\n";
    }
    rows.push_back(row);
  }

  TablePrinter table{
      {"Sites", "Jobs", "Events", "Wall s", "Host ms/job", "Allocs/job"}};
  for (const Row& r : rows) {
    table.add_row({std::to_string(r.sites), std::to_string(r.jobs),
                   std::to_string(r.events), fmt_fixed(r.wall_s, 3),
                   fmt_fixed(r.host_ms_per_job(), 3),
                   fmt_fixed(r.allocs_per_job(), 1)});
  }
  std::cout << table.render() << "\n";
  if (!json_path.empty()) write_json(json_path, rows);
  std::cout << (failed ? "[MISS] job/event counts or allocations off their pins\n"
                       : "[ok]   pinned job and event counts\n");
  return failed ? 1 : 0;
}
