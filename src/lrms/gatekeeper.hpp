// Site gatekeeper: the Globus-GRAM-style front door. Every grid submission
// pays GSI authentication, jobmanager processing, and input staging over the
// submitter's link before the job even reaches the local queue — the layers
// whose cost Table I exposes and whose bypass (direct broker-to-agent
// submission) makes shared-mode startup more than twice as fast.
//
// The gatekeeper is the one receiver bound at its site's endpoint. It serves
// SubmitJob, the inbound StageSandbox and CancelJob itself, and passes the
// agent-side messages to the site's glide-in host. A submitter files a
// request once under its LRMS id, the way a GRAM jobmanager holds a job
// under its contact; the SubmitJob and StageSandbox messages name that id.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>

#include "gsi/credential.hpp"
#include "lrms/local_scheduler.hpp"
#include "sim/simulation.hpp"
#include "util/expected.hpp"

namespace cg::net {
class ControlBus;
struct Envelope;
}  // namespace cg::net

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

/// A job submission as it crosses the site boundary: the local job the LRMS
/// receives once the submission is staged, and what only the grid leg
/// needs.
struct GridJobRequest {
  /// Handed whole to the LRMS; its id is the LRMS id the request is filed
  /// under.
  LocalJob job;
  /// GSI proxy chain presented at the gatekeeper (leaf first). Required
  /// when the gatekeeper has a trust anchor configured.
  std::optional<gsi::CertificateChain> proxy_chain;
  /// Input sandbox bytes staged from the submitter before execution.
  std::size_t stage_bytes = 0;
  /// Network endpoint of the submitting machine (for the staging link).
  std::string submitter_endpoint;
  /// The two-phase-commit results of a filed request. on_prepared returns
  /// whether the submitter goes on to commit; on_committed reports queue
  /// acceptance (not job start).
  std::function<bool(Status)> on_prepared;
  std::function<void(Status)> on_committed;
};

class Gatekeeper {
public:
  using StatusCallback = std::function<void(Status)>;
  /// Receives the agent-side messages addressed to the site endpoint.
  using GlideinHost = std::function<void(const net::Envelope&)>;

  /// Binds the endpoint named `endpoint` on `bus`; the bus must outlive the
  /// gatekeeper.
  Gatekeeper(sim::Simulation& sim, net::ControlBus& bus, const std::string& endpoint,
             LocalScheduler& scheduler, GatekeeperConfig config = {});
  ~Gatekeeper();
  Gatekeeper(const Gatekeeper&) = delete;
  Gatekeeper& operator=(const Gatekeeper&) = delete;

  /// Enables GSI verification: every prepare/submit must present a proxy
  /// chain valid against this trust anchor at arrival time.
  void set_trust_anchor(const gsi::Certificate* anchor) { trust_anchor_ = anchor; }

  /// Files a request under its LRMS id for the two-phase commit; both of
  /// its status callbacks must be set. A SubmitJob prepare naming the id
  /// runs prepare() and reports through on_prepared; once the submitter
  /// commits, a SubmitJob commit stages the input sandbox, and the inbound
  /// StageSandbox hands the job to the LRMS and reports through
  /// on_committed. Each phase acts once: a copy that finds the request past
  /// its phase, or gone, is ignored. Throws when the id is already filed.
  void file(GridJobRequest request);

  /// Two-phase commit, phase 1: authenticate and check the site can take the
  /// job (free node or queue space). Reserves nothing; the check guards
  /// against submitting into a full site.
  void prepare(const GridJobRequest& request, StatusCallback callback);

  /// One-shot submission without the 2PC prepare (the Glogin-style path):
  /// authenticate, then stage like a commit. The callback reports queue
  /// acceptance.
  void submit_direct(GridJobRequest request, StatusCallback callback);

  /// Serves a CancelJob message: withdraws the request filed under `id` if
  /// it has not reached the LRMS yet, else removes the job from the local
  /// queue, or — unless `queued_only` — kills it wherever it runs. Returns
  /// true when the job was found in any of these states.
  bool cancel(JobId id, bool queued_only);

  /// Hook installed by the broker, which keeps the site's glide-in agents:
  /// receives every other message addressed to the site endpoint
  /// (DispatchJob, KillJob, EvictNotice). nullptr uninstalls it.
  void set_glidein_host(GlideinHost host) { glidein_host_ = std::move(host); }

  /// The site's bus endpoint, interned from the name given at construction.
  [[nodiscard]] EndpointId endpoint() const { return endpoint_; }
  [[nodiscard]] const GatekeeperConfig& config() const { return config_; }
  [[nodiscard]] LocalScheduler& scheduler() { return scheduler_; }

private:
  /// How far a filed request has come. Each message acts only on the phase
  /// it advances.
  enum class Phase { kFiled, kPreparing, kPrepared, kStaging };
  struct Filed {
    GridJobRequest request;
    Phase phase = Phase::kFiled;
  };

  void handle(const net::Envelope& envelope);
  void insert(GridJobRequest request, Phase phase);
  /// The prepare of filed request `id` finished with `status`.
  void prepared(JobId id, Status status);
  /// Sends the inbound StageSandbox of a filed request.
  void stage(Filed& filed);
  /// The input sandbox of filed request `id` arrived: the job goes to the
  /// LRMS.
  void submit_staged(JobId id);
  [[nodiscard]] Status check_credentials(
      const std::optional<gsi::CertificateChain>& proxy_chain) const;

  const gsi::Certificate* trust_anchor_ = nullptr;
  sim::Simulation& sim_;
  net::ControlBus& bus_;
  EndpointId endpoint_;
  LocalScheduler& scheduler_;
  GatekeeperConfig config_;
  std::unordered_map<JobId, Filed> filed_;
  GlideinHost glidein_host_;
};

}  // namespace cg::lrms
