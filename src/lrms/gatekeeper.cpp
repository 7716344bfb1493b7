#include "lrms/gatekeeper.hpp"

#include <stdexcept>
#include <utility>

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
      config_{config} {}

Status Gatekeeper::check_credentials(const GridJobRequest& request) const {
  if (trust_anchor_ == nullptr) return Status::ok_status();
  if (!request.proxy_chain) {
    return make_error("gatekeeper.auth", "no proxy credentials presented");
  }
  const Status chain_ok =
      gsi::verify_chain(*request.proxy_chain, *trust_anchor_, sim_.now());
  if (!chain_ok.ok()) {
    return make_error("gatekeeper.auth",
                      "credential verification failed: " +
                          chain_ok.error().to_string());
  }
  return Status::ok_status();
}

void Gatekeeper::prepare(const GridJobRequest& request, StatusCallback callback) {
  if (!callback) throw std::invalid_argument{"prepare: null callback"};
  const Duration cost = config_.gsi_auth_latency + config_.prepare_overhead;
  const bool can_accept = scheduler_.has_capacity_or_queue_space();
  // Mutual authentication happens during the auth latency; the verdict is
  // evaluated against the chain's validity when the handshake completes.
  sim_.schedule(cost, [this, request, cb = std::move(callback), can_accept] {
    const Status auth = check_credentials(request);
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

void Gatekeeper::commit(GridJobRequest request, StatusCallback callback) {
  // Auth was already paid in prepare; commit stages and submits.
  stage_and_submit(std::move(request), std::move(callback));
}

void Gatekeeper::submit_direct(GridJobRequest request, StatusCallback callback) {
  const Duration auth = config_.gsi_auth_latency;
  sim_.schedule(auth, [this, request = std::move(request),
                       callback = std::move(callback)]() mutable {
    const Status auth_ok = check_credentials(request);
    if (!auth_ok.ok()) {
      callback(auth_ok);
      return;
    }
    stage_and_submit(std::move(request), std::move(callback));
  });
}

void Gatekeeper::stage_and_submit(GridJobRequest request, StatusCallback callback) {
  if (!callback) throw std::invalid_argument{"commit: null callback"};
  // The sandbox transfer rides the submitter's link; the jobmanager
  // processing is paid on arrival. Both travel as one StageSandbox message.
  net::SendOptions options;
  options.processing_latency = config_.jobmanager_latency;
  options.payload_bytes = request.stage_bytes;
  const EndpointId submitter = bus_.endpoint(request.submitter_endpoint);
  const net::StageSandbox msg{request.id, request.stage_bytes, /*inbound=*/true};
  bus_.send(submitter, endpoint_, msg, options,
            [this, request = std::move(request),
             callback = std::move(callback)](const net::Envelope&) mutable {
              LocalJob job;
              job.id = request.id;
              job.owner = request.owner;
              job.workload = std::move(request.workload);
              job.on_start = std::move(request.on_start);
              job.on_complete = std::move(request.on_complete);
              job.phase_observer = std::move(request.phase_observer);
              job.dilation = std::move(request.dilation);
              job.barrier_handler = std::move(request.barrier_handler);
              if (scheduler_.submit(std::move(job))) {
                callback(Status::ok_status());
              } else {
                callback(make_error("gatekeeper.rejected",
                                    "LRMS queue rejected the job"));
              }
            });
}

bool Gatekeeper::cancel(JobId id, bool queued_only) {
  if (scheduler_.cancel_queued(id)) return true;
  if (queued_only) return false;
  return scheduler_.kill_running(id);
}

}  // namespace cg::lrms
