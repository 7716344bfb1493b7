// Reproduces Figure 8: multiprogramming (lightweight VM) overhead. An
// interactive job iterates 1,000 times; each iteration performs an I/O
// operation followed by a CPU burst. Four cases:
//   1. exclusive:          alone on an idle machine (the reference),
//   2. shared-alone:       on an interactive-vm, batch-vm empty,
//   3. shared, PL = 10:    co-resident batch job, PerformanceLoss 10,
//   4. shared, PL = 25:    co-resident batch job, PerformanceLoss 25.
//
// Paper numbers (means over 1,000 iterations):
//   reference:   CPU 0.921 s (sd 0.001),  I/O 0.00606 s (sd 6.9e-5)
//   PL=10:       CPU 1.004 s (+8%),       I/O 0.00632 s (+5%)
//   PL=25:       CPU 1.132 s (+22%),      I/O 0.00661 s (+10%)
//   shared-alone: indistinguishable from exclusive.
#include <iostream>
#include <optional>

#include "claims.hpp"
#include "glidein/agent.hpp"
#include "lrms/worker_node.hpp"
#include "util/stats.hpp"

namespace {

using namespace cg;
using namespace cg::literals;

constexpr int kIterations = 1000;
const Duration kCpuBurst = Duration::micros(921'000);
const Duration kIoOp = Duration::micros(6'060);

struct CaseResult {
  RunningStats cpu;
  RunningStats io;
};

lrms::TaskRunner::PhaseObserver observer(CaseResult& result) {
  return [&result](const lrms::Phase& phase, Duration measured) {
    if (phase.kind == lrms::PhaseKind::kCpu) {
      result.cpu.add(measured.to_seconds());
    } else {
      result.io.add(measured.to_seconds());
    }
  };
}

// The paper's measured per-iteration scatter (reference run: sd 0.001 s on
// the CPU burst, 6.9e-5 s on the I/O op; growing with the shared load).
constexpr double kCpuNoiseBase = 0.0011;
constexpr double kCpuNoisePerShare = 0.035;
constexpr double kIoNoise = 0.0114;

/// Case 1: the job alone on an idle worker node (no agent at all).
CaseResult run_exclusive() {
  sim::Simulation sim;
  lrms::WorkerNodeSpec spec;
  spec.cpu_noise_fraction = kCpuNoiseBase;
  spec.io_noise_fraction = kIoNoise;
  lrms::WorkerNode node{sim, NodeId{1}, spec};
  CaseResult result;
  lrms::LocalJob job;
  job.id = JobId{1};
  job.workload = lrms::Workload::iterative(kIterations, kIoOp, kCpuBurst);
  job.phase_observer = observer(result);
  node.run(std::move(job));
  sim.run();
  return result;
}

/// Cases 2-4: on a glide-in agent's interactive-vm; optionally with a batch
/// job on the batch-vm and a PerformanceLoss value.
CaseResult run_shared(bool with_batch, int performance_loss) {
  sim::Simulation sim;
  glidein::GlideinAgentConfig config;
  config.vm.cpu_noise_base = kCpuNoiseBase;
  config.vm.cpu_noise_per_share = kCpuNoisePerShare;
  config.vm.io_noise_fraction = kIoNoise;
  glidein::GlideinAgent agent{sim, AgentId{1}, SiteId{1}, config};
  agent.on_carrier_started(NodeId{1});
  sim.run();

  if (with_batch) {
    glidein::SlotJob batch;
    batch.id = JobId{10};
    batch.workload = lrms::Workload::manual();  // endless background burner
    if (!agent.start_batch_job(std::move(batch)).ok()) {
      std::cerr << "batch start failed\n";
    }
  }

  CaseResult result;
  glidein::SlotJob interactive;
  interactive.id = JobId{11};
  interactive.workload = lrms::Workload::iterative(kIterations, kIoOp, kCpuBurst);
  interactive.phase_observer = observer(result);
  if (!agent.start_interactive_job(std::move(interactive), performance_loss).ok()) {
    std::cerr << "interactive start failed\n";
  }
  sim.run();
  return result;
}

std::string pct(double measured, double reference) {
  return fmt_fixed((measured / reference - 1.0) * 100.0, 1) + "%";
}

}  // namespace

int main() {
  std::cout << "== Figure 8: VM multiprogramming overhead ==\n"
            << "(interactive job, " << kIterations
            << " iterations of I/O op + CPU burst; seconds)\n\n";

  const CaseResult exclusive = run_exclusive();
  const CaseResult shared_alone = run_shared(false, 25);
  const CaseResult pl10 = run_shared(true, 10);
  const CaseResult pl25 = run_shared(true, 25);

  TablePrinter table{{"Case", "CPU mean", "CPU sd", "CPU overhead", "I/O mean",
                      "I/O sd", "I/O overhead", "Paper"}};
  const double ref_cpu = exclusive.cpu.mean();
  const double ref_io = exclusive.io.mean();
  table.add_row({"exclusive (reference)", fmt_fixed(ref_cpu, 4),
                 fmt_fixed(exclusive.cpu.stddev(), 5), "-",
                 fmt_fixed(ref_io, 5), fmt_fixed(exclusive.io.stddev(), 6), "-",
                 "0.921 / 0.00606"});
  table.add_row({"shared, alone", fmt_fixed(shared_alone.cpu.mean(), 4),
                 fmt_fixed(shared_alone.cpu.stddev(), 5),
                 pct(shared_alone.cpu.mean(), ref_cpu),
                 fmt_fixed(shared_alone.io.mean(), 5),
                 fmt_fixed(shared_alone.io.stddev(), 6),
                 pct(shared_alone.io.mean(), ref_io), "indistinguishable"});
  table.add_row({"shared + batch, PL=10", fmt_fixed(pl10.cpu.mean(), 4),
                 fmt_fixed(pl10.cpu.stddev(), 5), pct(pl10.cpu.mean(), ref_cpu),
                 fmt_fixed(pl10.io.mean(), 5), fmt_fixed(pl10.io.stddev(), 6),
                 pct(pl10.io.mean(), ref_io), "1.004 (+8%) / +5%"});
  table.add_row({"shared + batch, PL=25", fmt_fixed(pl25.cpu.mean(), 4),
                 fmt_fixed(pl25.cpu.stddev(), 5), pct(pl25.cpu.mean(), ref_cpu),
                 fmt_fixed(pl25.io.mean(), 5), fmt_fixed(pl25.io.stddev(), 6),
                 pct(pl25.io.mean(), ref_io), "1.132 (+22%) / +10%"});
  std::cout << table.render() << "\n";

  std::cout << "Shape checks against the paper:\n";
  cg::bench::Claims claims;
  claims.check(
      "agent overhead negligible (shared-alone within 0.5% of exclusive)",
      shared_alone.cpu.mean() / ref_cpu < 1.005);
  claims.check("PL=10 CPU overhead ~8% (6..11%)",
               pl10.cpu.mean() / ref_cpu > 1.06 &&
                   pl10.cpu.mean() / ref_cpu < 1.11);
  claims.check("PL=25 CPU overhead ~22% (19..25%)",
               pl25.cpu.mean() / ref_cpu > 1.19 &&
                   pl25.cpu.mean() / ref_cpu < 1.25);
  claims.check("PL=10 I/O overhead ~5% (3..7%)",
               pl10.io.mean() / ref_io > 1.03 &&
                   pl10.io.mean() / ref_io < 1.07);
  claims.check("PL=25 I/O overhead ~10% (8..13%)",
               pl25.io.mean() / ref_io > 1.08 &&
                   pl25.io.mean() / ref_io < 1.13);
  claims.check("I/O penalty much smaller than CPU penalty (network-bound)",
               (pl25.io.mean() / ref_io - 1.0) <
                   (pl25.cpu.mean() / ref_cpu - 1.0));
  return claims.exit_code();
}
