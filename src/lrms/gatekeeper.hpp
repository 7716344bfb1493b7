// Site gatekeeper: the Globus-GRAM-style front door. Every grid submission
// pays GSI authentication, jobmanager processing, and input staging over the
// submitter's link before the job even reaches the local queue — the layers
// whose cost Table I exposes and whose bypass (direct broker-to-agent
// submission) makes shared-mode startup more than twice as fast.
#pragma once

#include <functional>
#include <string>

#include <optional>

#include "gsi/credential.hpp"
#include "lrms/local_scheduler.hpp"
#include "sim/simulation.hpp"
#include "util/expected.hpp"

namespace cg::net {
class ControlBus;
}

namespace cg::lrms {

struct GatekeeperConfig {
  /// GSI mutual authentication round trips.
  Duration gsi_auth_latency = Duration::millis(1200);
  /// GRAM jobmanager processing (script generation, fork, LRMS submit call).
  Duration jobmanager_latency = Duration::millis(2500);
  /// Extra bookkeeping per two-phase-commit prepare (the paper: CrossBroker
  /// "uses a two phase commit protocol that guarantees a better detection of
  /// error conditions", costing slightly more than Glogin's direct path).
  Duration prepare_overhead = Duration::millis(400);
};

/// A job submission as it crosses the site boundary.
struct GridJobRequest {
  JobId id;
  UserId owner;
  /// GSI proxy chain presented at the gatekeeper (leaf first). Required
  /// when the gatekeeper has a trust anchor configured.
  std::optional<gsi::CertificateChain> proxy_chain;
  Workload workload;
  /// Input sandbox bytes staged from the submitter before execution.
  std::size_t stage_bytes = 0;
  /// Network endpoint of the submitting machine (for the staging link).
  std::string submitter_endpoint;
  std::function<void(NodeId)> on_start;
  std::function<void()> on_complete;
  TaskRunner::PhaseObserver phase_observer;
  TaskRunner::DilationFn dilation;
  TaskRunner::BarrierFn barrier_handler;
};

class Gatekeeper {
public:
  using StatusCallback = std::function<void(Status)>;

  Gatekeeper(sim::Simulation& sim, net::ControlBus& bus, const std::string& endpoint,
             LocalScheduler& scheduler, GatekeeperConfig config = {});

  /// Enables GSI verification: every prepare/submit must present a proxy
  /// chain valid against this trust anchor at arrival time.
  void set_trust_anchor(const gsi::Certificate* anchor) { trust_anchor_ = anchor; }

  /// Two-phase commit, phase 1: authenticate and check the site can take the
  /// job (free node or queue space). Reserves nothing; the check guards
  /// against submitting into a full site.
  void prepare(const GridJobRequest& request, StatusCallback callback);

  /// Two-phase commit, phase 2: stage the input sandbox and hand the job to
  /// the LRMS. The callback reports queue acceptance (not job start).
  void commit(GridJobRequest request, StatusCallback callback);

  /// One-shot submission without the 2PC prepare (the Glogin-style path).
  void submit_direct(GridJobRequest request, StatusCallback callback);

  /// Serves a CancelJob message: removes the job from the local queue, or —
  /// unless `queued_only` — kills it wherever it runs. Returns true when the
  /// job was found in either state.
  bool cancel(JobId id, bool queued_only);

  /// The site's bus endpoint, interned from the name given at construction.
  [[nodiscard]] EndpointId endpoint() const { return endpoint_; }
  [[nodiscard]] const GatekeeperConfig& config() const { return config_; }
  [[nodiscard]] LocalScheduler& scheduler() { return scheduler_; }

private:
  void stage_and_submit(GridJobRequest request, StatusCallback callback);
  [[nodiscard]] Status check_credentials(const GridJobRequest& request) const;

  const gsi::Certificate* trust_anchor_ = nullptr;
  sim::Simulation& sim_;
  net::ControlBus& bus_;
  EndpointId endpoint_;
  LocalScheduler& scheduler_;
  GatekeeperConfig config_;
};

}  // namespace cg::lrms
