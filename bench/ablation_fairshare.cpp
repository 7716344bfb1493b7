// Ablation A4: what the fair-share machinery buys (Section 5.1).
//
// Part 1 — queue ordering. A spammer floods the broker queue with long
// batch jobs; an honest light user submits one batch job mid-flood. With
// fair-share priority ordering the honest job leapfrogs the spam backlog;
// with FIFO it waits behind all of it.
//
// Part 2 — rejection. The same flood as interactive jobs with a rejection
// threshold: once the spammer's priority degrades past it, their
// submissions are refused under contention, and idleness restores their
// credits with the configured half-life.
#include <iostream>
#include <optional>

#include "claims.hpp"
#include "grid/grid.hpp"
#include "util/stats.hpp"

namespace {

using namespace cg;
using namespace cg::broker;
using namespace cg::literals;

jdl::JobDescription batch_job() {
  return jdl::JobDescription::parse("Executable = \"sim\";").value();
}

/// Part 1: honest batch job's wait behind a spam backlog.
double honest_wait_seconds(bool priority_ordering) {
  GridConfig config;
  config.sites = 2;
  config.nodes_per_site = 1;
  config.broker.fair_share_queue_ordering = priority_ordering;
  config.broker.fair_share.update_interval = 10_s;
  config.broker.fair_share.half_life = 3600_s;
  config.broker.broker_queue_poll = 30_s;
  Grid grid{config};

  const UserId spammer{1};
  const UserId honest{2};
  // 10 spam batch jobs of 600 s each: 2 run, 8 queue in the broker.
  for (int i = 0; i < 10; ++i) {
    grid.sim().schedule(Duration::seconds(i), [&grid, spammer] {
      if (!grid.submit(batch_job(), spammer, lrms::Workload::cpu(600_s))) {
        std::cerr << "spam submission refused\n";
      }
    });
  }
  std::optional<double> honest_started;
  grid.sim().schedule(300_s, [&grid, honest, &honest_started] {
    const SimTime submitted = grid.sim().now();
    JobCallbacks callbacks;
    callbacks.on_running = [&honest_started, submitted,
                            &grid](const JobRecord&) {
      honest_started = (grid.sim().now() - submitted).to_seconds();
    };
    if (!grid.submit(batch_job(), honest, lrms::Workload::cpu(100_s),
                     callbacks)) {
      std::cerr << "honest submission refused\n";
    }
  });
  grid.sim().run_until(SimTime::from_seconds(6 * 3600));
  return honest_started.value_or(-1.0);
}

/// Part 2: interactive spam against a rejection threshold.
struct RejectionStats {
  int completed = 0;
  int rejected = 0;
  int failed = 0;
  std::vector<std::pair<double, double>> priority_trace;
};

RejectionStats run_rejection_demo() {
  GridConfig config;
  config.sites = 2;
  config.nodes_per_site = 1;
  config.broker.reject_priority_threshold = 0.5;
  config.broker.fair_share.update_interval = 10_s;
  config.broker.fair_share.half_life = 900_s;
  Grid grid{config};

  RejectionStats stats;
  const UserId spammer{1};
  auto jd = jdl::JobDescription::parse(
      "Executable = \"viz\"; JobType = \"interactive\";");
  for (int i = 0; i < 24; ++i) {
    grid.sim().schedule(Duration::seconds(180 * i), [&grid, &stats, &jd,
                                                     spammer] {
      JobCallbacks callbacks;
      callbacks.on_complete = [&stats](const JobRecord&) { ++stats.completed; };
      callbacks.on_failed = [&stats](const JobRecord& record, const Error&) {
        if (record.state == JobState::kRejected) {
          ++stats.rejected;
        } else {
          ++stats.failed;
        }
      };
      // An up-front over-share refusal and an async kRejected count the same.
      if (const auto job = grid.submit(jd.value(), spammer,
                                       lrms::Workload::cpu(600_s), callbacks);
          !job && job.error().kind == SubmitErrorKind::kOverShare) {
        ++stats.rejected;
      }
    });
  }
  for (int t = 0; t <= 9000; t += 900) {
    grid.sim().schedule(Duration::seconds(t), [&grid, &stats, spammer, t] {
      stats.priority_trace.emplace_back(
          t, grid.broker().fair_share().priority(spammer));
    });
  }
  grid.sim().run_until(SimTime::from_seconds(9000));
  return stats;
}

}  // namespace

int main() {
  std::cout << "== Ablation A4: fair-share ordering and rejection ==\n\n";

  const double wait_priority = honest_wait_seconds(true);
  const double wait_fifo = honest_wait_seconds(false);
  cg::TablePrinter part1{{"Broker queue policy", "Honest job wait (s)"}};
  part1.add_row({"fair-share priority", cg::fmt_fixed(wait_priority, 1)});
  part1.add_row({"FIFO", cg::fmt_fixed(wait_fifo, 1)});
  std::cout << part1.render() << "\n";

  const RejectionStats rejection = run_rejection_demo();
  cg::TablePrinter part2{{"Spammer outcome", "Count"}};
  part2.add_row({"completed", std::to_string(rejection.completed)});
  part2.add_row({"rejected (fair share)", std::to_string(rejection.rejected)});
  part2.add_row({"failed (no resources)", std::to_string(rejection.failed)});
  std::cout << part2.render() << "\n";

  std::cout << "spammer priority trace (t, P), threshold 0.5:\n  ";
  for (const auto& [t, p] : rejection.priority_trace) {
    std::cout << "(" << t << ", " << cg::fmt_fixed(p, 3) << ") ";
  }
  std::cout << "\n\n";

  cg::bench::Claims claims;
  claims.check("priority ordering lets the honest job leapfrog the spam backlog",
               wait_priority > 0.0 && wait_fifo > 0.0 &&
                   wait_priority < wait_fifo / 2.0);
  claims.check("spammer rejected under contention once their priority degraded",
               rejection.rejected > 0);
  claims.check("rejection recovers: some later submissions still complete",
               rejection.completed >= 2);
  return claims.exit_code();
}
