// Event-engine scale benchmark: runs one deterministic workload — per-agent
// retry chains with heavy cancellation churn, cancel-and-rearm victim timers
// and periodic daemon lanes — through the slab/4-ary-heap/timer-wheel engine,
// checks that it fires the pinned event sequence, and reports events/sec.
// Each row's firing digest and processed count are pinned constants, read
// from the pre-rewrite engine (binary priority_queue + std::function
// callbacks + tombstone cancellation), which fired the identical sequence on
// every row; that engine's last measured throughput stays in
// BENCH_sim_scale.json as a baseline. The run also proves the zero-allocation
// claim: once the slab and heap reach their high-water mark, the
// steady-state schedule/cancel/fire cycle must not touch the global heap
// (counted via replaced operator new).
//
// Usage:
//   sim_scale                 full sweep (10^5..10^7 events, 10^2..10^4 agents)
//   sim_scale --smoke         smallest grid only
//   sim_scale --json <path>   also write machine-readable results
// Exit status 1 when a row leaves its pin or allocates in steady state.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "sim/simulation.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

// ------------------------------------------------- allocation accounting ----
// Replacing global operator new lets the benchmark count every heap
// allocation made while the engine runs its steady state. Single-threaded by
// construction (the simulation is), so plain counters suffice.

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
using namespace cg::literals;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ------------------------------------------------------------ workload ------
// Per-agent retry chains mirroring the broker's hot paths: each firing folds
// its (virtual time, identity) into the digest, reschedules itself with an
// LCG-drawn delay, and every fourth firing cancels-and-rearms a victim timer
// (the ScopedTimer pattern: flush timeouts, match leases). Each agent also
// runs a periodic daemon lane riding the timer wheel. Capture sizes are
// deliberately beyond std::function's inline buffer — broker callbacks carry
// ids and endpoints — and within the engine's 48-byte budget.

struct Driver {
  struct AgentState {
    sim::EventHandle victim{};
    std::uint64_t lcg = 0;
  };

  sim::Simulation& eng;
  std::size_t target;
  std::size_t issued = 0;
  std::size_t chain_fired = 0;
  std::uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  std::vector<AgentState> agents;

  Driver(sim::Simulation& engine, std::size_t n_events, std::size_t n_agents)
      : eng{engine}, target{n_events}, agents(n_agents) {
    // Prime the event pool to the workload's in-flight bound (one chain, one
    // victim and one daemon per agent, plus transients): schedule-then-cancel
    // a burst of leaf events. The pinned digests were read with this same
    // call stream, the cancelled events never fire, and pool growth becomes
    // a start-up cost instead of a mid-measurement one — which is exactly the
    // claim the allocation counter checks.
    std::vector<sim::EventHandle> primer;
    primer.reserve(n_agents * 4 + 64);
    for (std::size_t i = 0; i < n_agents * 4 + 64; ++i) {
      primer.push_back(eng.schedule(Duration::micros(1), [] {}));
    }
    for (sim::EventHandle& h : primer) {
      eng.cancel(h);
    }
    for (std::size_t a = 0; a < n_agents; ++a) {
      agents[a].lcg = 0x9e3779b97f4a7c15ULL * (a + 1) ^ 0xcafef00dd15ea5e5ULL;
      ++issued;
      const std::uint64_t salt = agents[a].lcg;
      eng.schedule(Duration::micros(static_cast<std::int64_t>(37 * (a + 1))),
                   [this, a, salt] { chain(a, salt); });
      eng.schedule_daemon(daemon_interval(a), [this, a] { daemon_tick(a); });
    }
  }

  [[nodiscard]] static Duration daemon_interval(std::size_t a) {
    return Duration::micros(static_cast<std::int64_t>(2048 + (a % 5) * 1024));
  }

  std::uint64_t next(std::size_t a) {
    std::uint64_t& s = agents[a].lcg;
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return s >> 29;
  }

  void chain(std::size_t a, std::uint64_t salt) {
    digest = fnv1a(digest, static_cast<std::uint64_t>(eng.now().count_micros()));
    digest = fnv1a(digest, salt ^ (a * 0x100000001b3ULL));
    ++chain_fired;
    const std::uint64_t r = next(a);
    if (r % 4 == 0) {
      // The cancel result is folded in too: a victim may already have fired,
      // and the pin records exactly which ones did.
      const bool cancelled = eng.cancel(agents[a].victim);
      digest = fnv1a(digest, cancelled ? 1 : 0);
      const std::uint64_t vsalt = next(a);
      agents[a].victim =
          eng.schedule(Duration::micros(static_cast<std::int64_t>(100 + r % 20000)),
                       [this, a, vsalt] {
                         digest = fnv1a(digest, vsalt ^ (a + 0x5bd1e995ULL));
                       });
    }
    if (issued < target) {
      ++issued;
      const std::uint64_t nsalt = next(a);
      eng.schedule(Duration::micros(static_cast<std::int64_t>(50 + r % 10000)),
                   [this, a, nsalt] { chain(a, nsalt); });
    }
  }

  void daemon_tick(std::size_t a) {
    digest = fnv1a(digest, 0xda30000ULL + a);
    eng.schedule_daemon(daemon_interval(a), [this, a] { daemon_tick(a); });
  }
};

struct RunResult {
  std::uint64_t digest = 0;
  double seconds = 0.0;
  std::size_t processed = 0;
  std::size_t steady_allocs = 0;
};

RunResult run_engine(std::size_t n_events, std::size_t n_agents) {
  sim::Simulation eng;
  RunResult out;
  const auto t0 = std::chrono::steady_clock::now();
  Driver driver{eng, n_events, n_agents};
  // Warm-up fifth: the slab, heap and wheel grow to their in-flight
  // high-water mark. Everything after must run allocation-free.
  while (driver.chain_fired < n_events / 5 && eng.step()) {
  }
  const std::size_t before = g_alloc_count;
  eng.run();
  out.steady_allocs = g_alloc_count - before;
  const auto t1 = std::chrono::steady_clock::now();
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  out.digest = driver.digest;
  out.processed = eng.processed_events();
  return out;
}

/// Folds a repetition into the kept result: fastest wall time wins (timing
/// noise on a shared box only ever slows a run down), while the allocation
/// count keeps its worst observation so a single dirty rep still fails. A
/// rep whose firing order differs from the kept one replaces it, so the
/// drift reaches the pin check.
void merge_rep(RunResult& kept, const RunResult& rep) {
  const std::size_t allocs = std::max(kept.steady_allocs, rep.steady_allocs);
  const bool drifted =
      rep.digest != kept.digest || rep.processed != kept.processed;
  if (drifted || rep.seconds < kept.seconds) kept = rep;
  kept.steady_allocs = allocs;
}

/// A pinned workload size: the firing digest and processed count of its
/// event sequence, and the pre-rewrite engine's last measured throughput on
/// it (events/sec, from the last BENCH_sim_scale.json that ran that engine).
struct Pin {
  std::size_t events;
  std::size_t agents;
  std::uint64_t digest;
  std::size_t processed;
  double legacy_events_per_sec;
};

constexpr Pin kSmokePins[] = {
    {20000, 100, 0x76e3e2816f770186ULL, 52017, 0.0}};
constexpr Pin kSweepPins[] = {
    {100000, 100, 0x925eceb4bcdcf72fULL, 258264, 5.08655e+06},
    {1000000, 100, 0x44fb09bf7b7e827fULL, 2582070, 5.71167e+06},
    {1000000, 1000, 0x24f759d7a687606aULL, 2592077, 4.70649e+06},
    {1000000, 10000, 0x806a4aa4d8398f57ULL, 3162532, 3.01824e+06},
    {10000000, 1000, 0xae0fba2ef4dcbfe2ULL, 25837532, 4.6325e+06},
};

struct Row {
  Pin pin;
  RunResult result;
  [[nodiscard]] bool digest_match() const {
    return result.digest == pin.digest && result.processed == pin.processed;
  }
  [[nodiscard]] bool zero_alloc() const { return result.steady_allocs == 0; }
  [[nodiscard]] double events_per_sec() const {
    return result.seconds > 0.0
               ? static_cast<double>(result.processed) / result.seconds
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
  f << "{\n  \"bench\": \"sim_scale\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    f << "    {\"events\": " << r.pin.events << ", \"agents\": " << r.pin.agents
      << ", \"processed\": " << r.result.processed
      << ", \"seconds\": " << r.result.seconds
      << ", \"events_per_sec\": " << r.events_per_sec()
      << ", \"legacy_events_per_sec_baseline\": "
      << r.pin.legacy_events_per_sec << ", \"digest\": \""
      << hex(r.result.digest) << "\", \"digest_match\": "
      << (r.digest_match() ? "true" : "false")
      << ", \"zero_alloc_steady_state\": " << (r.zero_alloc() ? "true" : "false")
      << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  f << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int reps = 3;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[++i]));
    } else {
      std::cerr << "usage: sim_scale [--smoke] [--reps <n>] [--json <path>]\n";
      return 2;
    }
  }

  std::vector<Pin> pins;
  if (smoke) {
    pins.assign(std::begin(kSmokePins), std::end(kSmokePins));
  } else {
    pins.assign(std::begin(kSweepPins), std::end(kSweepPins));
  }

  std::cout << "== sim_scale: slab/heap/wheel event engine vs pinned firing "
               "order ==\n";
  std::vector<Row> rows;
  bool failed = false;
  for (const Pin& pin : pins) {
    // The digest is checked on every rep — determinism is per-run, not
    // best-of.
    Row row{pin, run_engine(pin.events, pin.agents)};
    for (int r = 1; r < reps && row.digest_match(); ++r) {
      merge_rep(row.result, run_engine(pin.events, pin.agents));
    }
    if (!row.digest_match()) {
      failed = true;
      std::cerr << "[FAIL] firing order left its pin at " << pin.events
                << " events / " << pin.agents << " agents: digest "
                << hex(row.result.digest) << " (pinned " << hex(pin.digest)
                << "), processed " << row.result.processed << " (pinned "
                << pin.processed << ")\n";
    }
    if (!row.zero_alloc()) {
      failed = true;
      std::cerr << "[FAIL] " << row.result.steady_allocs
                << " heap allocations on the steady-state path at "
                << pin.events << " events / " << pin.agents << " agents\n";
    }
    rows.push_back(row);
  }

  cg::TablePrinter table{{"Events", "Agents", "Seconds", "Events/s",
                          "Legacy ev/s (baseline)", "Digest", "Allocs"}};
  for (const Row& r : rows) {
    table.add_row(
        {std::to_string(r.pin.events), std::to_string(r.pin.agents),
         cg::fmt_fixed(r.result.seconds, 3), cg::fmt_fixed(r.events_per_sec(), 0),
         r.pin.legacy_events_per_sec > 0.0
             ? cg::fmt_fixed(r.pin.legacy_events_per_sec, 0)
             : "-",
         r.digest_match() ? "pinned" : "DRIFTED",
         r.zero_alloc() ? "0" : std::to_string(r.result.steady_allocs)});
  }
  std::cout << table.render() << "\n";
  if (!json_path.empty()) write_json(json_path, rows);
  std::cout << (failed ? "[MISS] engine left its pinned firing order or "
                         "allocated in steady state\n"
                       : "[ok]   pinned firing order, allocation-free "
                         "steady state\n");
  return failed ? 1 : 0;
}
