#include "lrms/gatekeeper.hpp"

#include <stdexcept>
#include <utility>
#include <variant>

#include "net/control_bus.hpp"
#include "util/log.hpp"

namespace cg::lrms {

Gatekeeper::Gatekeeper(sim::Simulation& sim, net::ControlBus& bus,
                       const std::string& endpoint, LocalScheduler& scheduler,
                       GatekeeperConfig config)
    : sim_{sim},
      bus_{bus},
      endpoint_{bus.endpoint(endpoint)},
      scheduler_{scheduler},
      config_{config} {
  bus_.bind(endpoint_, [this](const net::Envelope& envelope) { handle(envelope); });
}

Gatekeeper::~Gatekeeper() { bus_.unbind(endpoint_); }

void Gatekeeper::handle(const net::Envelope& envelope) {
  const net::Message& msg = envelope.payload;
  if (const auto* submit = std::get_if<net::SubmitJob>(&msg)) {
    const auto it = filed_.find(submit->job);
    if (it == filed_.end()) return;
    Filed& filed = it->second;
    if (submit->phase == net::SubmitPhase::kPrepare &&
        filed.phase == Phase::kFiled) {
      filed.phase = Phase::kPreparing;
      prepare(filed.request, [this, id = submit->job](Status status) {
        prepared(id, std::move(status));
      });
    } else if (submit->phase == net::SubmitPhase::kCommit &&
               filed.phase == Phase::kPrepared) {
      stage(filed);
    }
  } else if (const auto* sandbox = std::get_if<net::StageSandbox>(&msg)) {
    if (sandbox->inbound) submit_staged(sandbox->job);
  } else if (const auto* cancel_job = std::get_if<net::CancelJob>(&msg)) {
    cancel(cancel_job->job, cancel_job->queued_only);
  } else if (glidein_host_) {
    glidein_host_(envelope);
  }
}

Status Gatekeeper::check_credentials(
    const std::optional<gsi::CertificateChain>& proxy_chain) const {
  if (trust_anchor_ == nullptr) return Status::ok_status();
  if (!proxy_chain) {
    return make_error("gatekeeper.auth", "no proxy credentials presented");
  }
  const Status chain_ok =
      gsi::verify_chain(*proxy_chain, *trust_anchor_, sim_.now());
  if (!chain_ok.ok()) {
    return make_error("gatekeeper.auth",
                      "credential verification failed: " +
                          chain_ok.error().to_string());
  }
  return Status::ok_status();
}

void Gatekeeper::insert(GridJobRequest request, Phase phase) {
  if (!request.on_committed) {
    throw std::invalid_argument{"Gatekeeper: request without on_committed"};
  }
  const JobId id = request.job.id;
  if (!filed_.try_emplace(id, Filed{std::move(request), phase}).second) {
    throw std::logic_error{"Gatekeeper: request filed twice"};
  }
}

void Gatekeeper::file(GridJobRequest request) {
  if (!request.on_prepared) {
    throw std::invalid_argument{"Gatekeeper::file: null on_prepared"};
  }
  insert(std::move(request), Phase::kFiled);
}

void Gatekeeper::prepare(const GridJobRequest& request, StatusCallback callback) {
  if (!callback) throw std::invalid_argument{"prepare: null callback"};
  const Duration cost = config_.gsi_auth_latency + config_.prepare_overhead;
  const bool can_accept = scheduler_.has_capacity_or_queue_space();
  // Mutual authentication happens during the auth latency; the verdict is
  // evaluated against the chain's validity when the handshake completes.
  sim_.schedule(cost, [this, chain = request.proxy_chain,
                       cb = std::move(callback), can_accept] {
    const Status auth = check_credentials(chain);
    if (!auth.ok()) {
      cb(auth);
      return;
    }
    if (can_accept) {
      cb(Status::ok_status());
    } else {
      cb(make_error("gatekeeper.full",
                    "site cannot accept job (queue full)"));
    }
  });
}

void Gatekeeper::prepared(JobId id, Status status) {
  const auto it = filed_.find(id);
  if (it == filed_.end()) return;
  // Prepared before the verdict: a submitter that commits sends the commit
  // leg, which may arrive inline, before on_prepared returns.
  it->second.phase = Phase::kPrepared;
  if (!it->second.request.on_prepared(std::move(status))) filed_.erase(id);
}

void Gatekeeper::submit_direct(GridJobRequest request, StatusCallback callback) {
  const JobId id = request.job.id;
  request.on_committed = std::move(callback);
  // Filed as preparing: no SubmitJob acts on it; the auth below stands in
  // for the prepare.
  insert(std::move(request), Phase::kPreparing);
  sim_.schedule(config_.gsi_auth_latency, [this, id] {
    const auto it = filed_.find(id);
    if (it == filed_.end()) return;  // withdrawn by a CancelJob
    Filed& filed = it->second;
    const Status auth_ok = check_credentials(filed.request.proxy_chain);
    if (auth_ok.ok()) {
      stage(filed);
      return;
    }
    const StatusCallback refused = std::move(filed.request.on_committed);
    filed_.erase(id);
    refused(auth_ok);
  });
}

void Gatekeeper::stage(Filed& filed) {
  filed.phase = Phase::kStaging;
  // The sandbox transfer rides the submitter's link; the jobmanager
  // processing is paid on arrival. Both travel as one StageSandbox message.
  const GridJobRequest& request = filed.request;
  net::SendOptions options;
  options.processing_latency = config_.jobmanager_latency;
  options.payload_bytes = request.stage_bytes;
  const EndpointId submitter = bus_.endpoint(request.submitter_endpoint);
  const net::StageSandbox msg{request.job.id, request.stage_bytes,
                              /*inbound=*/true};
  bus_.send(submitter, endpoint_, msg, options);
}

void Gatekeeper::submit_staged(JobId id) {
  const auto it = filed_.find(id);
  if (it == filed_.end() || it->second.phase != Phase::kStaging) return;
  GridJobRequest request = std::move(it->second.request);
  filed_.erase(it);
  if (scheduler_.submit(std::move(request.job))) {
    request.on_committed(Status::ok_status());
  } else {
    request.on_committed(
        make_error("gatekeeper.rejected", "LRMS queue rejected the job"));
  }
}

bool Gatekeeper::cancel(JobId id, bool queued_only) {
  // A request still filed has not reached the LRMS: withdrawing it stops
  // every later phase, and its status callbacks never run.
  if (filed_.erase(id) > 0) return true;
  if (scheduler_.cancel_queued(id)) return true;
  if (queued_only) return false;
  return scheduler_.kill_running(id);
}

}  // namespace cg::lrms
