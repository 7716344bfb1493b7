#include "glidein/agent.hpp"

#include <algorithm>
#include <stdexcept>
#include <variant>

#include "net/control_bus.hpp"
#include "util/log.hpp"

namespace cg::glidein {

GlideinAgent::GlideinAgent(sim::Simulation& sim, AgentId id, SiteId site,
                           GlideinAgentConfig config)
    : sim_{sim},
      id_{id},
      site_{site},
      config_{config},
      noise_rng_{0xa63e57a9b2c4d1ULL ^ id.value()} {
  if (!id.valid()) throw std::invalid_argument{"GlideinAgent: invalid id"};
  if (config_.interactive_slots < 1) {
    throw std::invalid_argument{"GlideinAgent: needs >= 1 interactive slot"};
  }
  interactive_.resize(static_cast<std::size_t>(config_.interactive_slots));
}

GlideinAgent::~GlideinAgent() {
  if (batch_job_ && batch_job_->runner) batch_job_->runner->cancel();
  for (auto& slot : interactive_) {
    if (slot && slot->runner) slot->runner->cancel();
  }
}

void GlideinAgent::on_carrier_started(NodeId node) {
  if (state_ != AgentState::kPending) {
    throw std::logic_error{"agent carrier started twice"};
  }
  node_ = node;
  bootstrap_timer_.rearm(sim_, sim_.schedule(config_.bootstrap_time, [this] {
    if (state_ == AgentState::kPending) set_state(AgentState::kRunning);
  }));
}

void GlideinAgent::on_carrier_killed() {
  if (state_ == AgentState::kDead) return;
  bootstrap_timer_.reset();
  // Resident jobs die with the agent; their completions never fire (the
  // broker observes the agent death and handles resubmission policy).
  if (batch_job_) {
    batch_job_->runner->cancel();
    batch_job_.reset();
  }
  for (auto& slot : interactive_) {
    if (slot) {
      slot->runner->cancel();
      slot.reset();
    }
  }
  update_occupancy_metrics();
  set_state(AgentState::kDead);
}

void GlideinAgent::set_state_observer(StateObserver observer) {
  observer_ = std::move(observer);
}

void GlideinAgent::connect_control_plane(net::ControlBus* bus,
                                         EndpointId site_endpoint,
                                         EndpointId broker_endpoint,
                                         Duration channel_latency) {
  bus_ = bus;
  site_endpoint_ = site_endpoint;
  broker_endpoint_ = broker_endpoint;
  channel_latency_ = channel_latency;
}

void GlideinAgent::receive(const net::Message& msg) {
  // The kill rule KillJob and EvictNotice share.
  const auto kill_resident = [this](JobId id, bool interactive_slot) {
    if (interactive_slot) {
      cancel_interactive_job(id);
    } else {
      cancel_slot(SlotType::kBatch);
    }
  };
  if (const auto* kill_job = std::get_if<net::KillJob>(&msg)) {
    kill_resident(kill_job->job, kill_job->interactive_slot);
  } else if (const auto* evict = std::get_if<net::EvictNotice>(&msg)) {
    kill_resident(evict->lrms_job_id, evict->interactive_slot);
  }
}

void GlideinAgent::send_heartbeat() {
  if (state_ != AgentState::kRunning || wedged_ || bus_ == nullptr) return;
  net::SendOptions options;
  options.channel_latency = channel_latency_;
  options.drop_when_down = true;  // a partitioned link swallows it
  bus_->send(site_endpoint_, broker_endpoint_,
             net::Heartbeat{id_, ++heartbeats_sent_}, options);
}

void GlideinAgent::set_metrics(obs::MetricsRegistry* metrics,
                               obs::LabelSet labels) {
  metrics_ = MetricHandles{};
  if (metrics != nullptr) {
    // The occupancy histogram feeds mean/peak utilisation of the interactive
    // VMs per site without per-agent cardinality.
    metrics_.interactive_occupancy =
        metrics->histogram_handle("glidein.interactive_occupancy", labels);
    obs::LabelSet batch = labels;
    batch.set("slot", "batch");
    metrics_.slot_starts_batch =
        metrics->counter_handle("glidein.slot_starts", std::move(batch));
    labels.set("slot", "interactive");
    metrics_.slot_starts_interactive =
        metrics->counter_handle("glidein.slot_starts", std::move(labels));
    metrics_.attached = true;
  }
  update_occupancy_metrics();
}

void GlideinAgent::update_occupancy_metrics() {
  if (!metrics_.attached) return;
  int occupied = 0;
  for (const auto& slot : interactive_) {
    if (slot) ++occupied;
  }
  metrics_.interactive_occupancy.observe(static_cast<double>(occupied));
}

void GlideinAgent::set_state(AgentState state) {
  state_ = state;
  if (observer_) observer_(state_);
  // Bootstrapped: announce the agent (and its fresh VMs) to the broker. The
  // registration is a local rendezvous on the already-open channel: a
  // zero-delay send, delivered inline — same instant the state observer
  // used to fire.
  if (state == AgentState::kRunning && bus_ != nullptr) {
    bus_->send(site_endpoint_, broker_endpoint_, net::AgentRegister{id_});
  }
}

bool GlideinAgent::interactive_vm_busy() const {
  return free_interactive_slots() == 0;
}

bool GlideinAgent::interactive_vm_free() const {
  return state_ == AgentState::kRunning && free_interactive_slots() > 0;
}

int GlideinAgent::free_interactive_slots() const {
  if (state_ != AgentState::kRunning) return 0;
  int free = 0;
  for (const auto& slot : interactive_) {
    if (!slot) ++free;
  }
  return free;
}

int GlideinAgent::interactive_slot_count() const {
  return config_.interactive_slots;
}

Status GlideinAgent::start_batch_job(SlotJob job) {
  return start_on_slot(-1, std::move(job), 0);
}

Status GlideinAgent::start_interactive_job(SlotJob job, int performance_loss) {
  if (performance_loss < 0 || performance_loss > 100) {
    return make_error("glidein.bad_pl", "PerformanceLoss out of range");
  }
  for (std::size_t i = 0; i < interactive_.size(); ++i) {
    if (!interactive_[i]) {
      return start_on_slot(static_cast<int>(i), std::move(job), performance_loss);
    }
  }
  return make_error("glidein.slot_busy", "all interactive VMs are occupied");
}

Status GlideinAgent::start_on_slot(int slot_index, SlotJob job,
                                   int performance_loss) {
  if (state_ != AgentState::kRunning) {
    return make_error("glidein.not_running", "agent is not running");
  }
  if (wedged_) {
    return make_error("glidein.wedged", "agent event loop is stalled");
  }
  auto& resident = slot_index < 0
                       ? batch_job_
                       : interactive_[static_cast<std::size_t>(slot_index)];
  if (resident) {
    return make_error("glidein.slot_busy", "virtual machine already occupied");
  }
  resident = std::make_unique<Resident>();
  resident->job = std::move(job);
  resident->performance_loss = performance_loss;
  resident->epoch = next_epoch_++;
  const std::uint64_t epoch = resident->epoch;

  auto dilation = [this, slot_index](lrms::PhaseKind kind) {
    return dilation_for(slot_index, kind);
  };
  auto on_complete = [this, slot_index] {
    auto& done = slot_index < 0
                     ? batch_job_
                     : interactive_[static_cast<std::size_t>(slot_index)];
    auto cb = done->job.on_complete;
    // Move the resident into a local rather than resetting in place: this
    // closure is owned by its runner, so freeing it here would destroy the
    // captures mid-execution. The local frees it after the body ends.
    auto finished = std::move(done);
    // The surviving jobs get their shares back from this instant.
    reapply_dilations();
    update_occupancy_metrics();
    if (cb) cb();
  };

  resident->runner = std::make_unique<lrms::TaskRunner>(
      sim_, resident->job.workload, std::move(dilation), std::move(on_complete),
      resident->job.phase_observer);
  if (resident->job.barrier_handler) {
    resident->runner->set_barrier_handler(resident->job.barrier_handler);
  }

  // Spawning on the slot costs job_start_overhead; dilations change the
  // moment the job actually starts.
  auto start_cb = resident->job.on_start;
  sim_.schedule(config_.job_start_overhead, [this, slot_index, epoch, start_cb] {
    auto& res = slot_index < 0
                    ? batch_job_
                    : interactive_[static_cast<std::size_t>(slot_index)];
    // The epoch check drops the event if the slot was cancelled (or re-used
    // by a different job) while this start was in flight.
    if (!res || res->epoch != epoch) return;
    if (start_cb) start_cb();
    res->runner->start();
    reapply_dilations();
  });
  (slot_index < 0 ? metrics_.slot_starts_batch
                  : metrics_.slot_starts_interactive)
      .inc();
  update_occupancy_metrics();
  return Status::ok_status();
}

void GlideinAgent::cancel_slot(SlotType slot) {
  if (slot == SlotType::kBatch) {
    if (!batch_job_) return;
    batch_job_->runner->cancel();
    batch_job_.reset();
    reapply_dilations();
    update_occupancy_metrics();
    return;
  }
  for (auto& resident : interactive_) {
    if (resident) {
      resident->runner->cancel();
      resident.reset();
      reapply_dilations();
      update_occupancy_metrics();
      return;
    }
  }
}

bool GlideinAgent::release_barrier(JobId id) {
  if (batch_job_ && batch_job_->job.id == id) {
    batch_job_->runner->release_barrier();
    return true;
  }
  for (auto& resident : interactive_) {
    if (resident && resident->job.id == id) {
      resident->runner->release_barrier();
      return true;
    }
  }
  return false;
}

bool GlideinAgent::cancel_interactive_job(JobId id) {
  for (auto& resident : interactive_) {
    if (resident && resident->job.id == id) {
      resident->runner->cancel();
      resident.reset();
      reapply_dilations();
      update_occupancy_metrics();
      return true;
    }
  }
  return false;
}

std::vector<JobId> GlideinAgent::interactive_job_ids() const {
  std::vector<JobId> out;
  for (const auto& resident : interactive_) {
    if (resident) out.push_back(resident->job.id);
  }
  return out;
}

void GlideinAgent::reapply_dilations() {
  if (batch_job_ && batch_job_->runner) batch_job_->runner->notify_dilation_changed();
  for (auto& resident : interactive_) {
    if (resident && resident->runner) resident->runner->notify_dilation_changed();
  }
}

int GlideinAgent::running_interactive_count() const {
  int n = 0;
  for (const auto& resident : interactive_) {
    if (resident && resident->runner && resident->runner->running()) ++n;
  }
  return n;
}

int GlideinAgent::max_running_performance_loss() const {
  int pl = 0;
  for (const auto& resident : interactive_) {
    if (resident && resident->runner && resident->runner->running()) {
      pl = std::max(pl, resident->performance_loss);
    }
  }
  return pl;
}

double GlideinAgent::dilation_for(int slot_index, lrms::PhaseKind kind) const {
  const int k = running_interactive_count();
  const bool batch_running =
      batch_job_ && batch_job_->runner && batch_job_->runner->running();

  double dilation = 1.0;
  double noise_fraction = 0.0;

  if (slot_index < 0) {
    // The batch slot concedes to the most demanding interactive resident.
    const VmDilations d = compute_dilations(
        config_.vm, max_running_performance_loss(), k > 0, batch_running);
    dilation = kind == lrms::PhaseKind::kCpu ? d.batch_cpu : d.batch_io;
    noise_fraction = kind == lrms::PhaseKind::kCpu ? config_.vm.cpu_noise_base
                                                   : config_.vm.io_noise_fraction;
  } else {
    const auto& self = interactive_[static_cast<std::size_t>(slot_index)];
    const int own_pl = self ? self->performance_loss : 0;
    const VmDilations d =
        compute_dilations(config_.vm, own_pl, k > 0, batch_running);
    if (kind == lrms::PhaseKind::kCpu) {
      // With degree > 1, running interactive jobs split the interactive CPU
      // share equally: each stretches by the number of active peers.
      dilation = d.interactive_cpu * static_cast<double>(std::max(k, 1));
      const double share = (k > 0 && batch_running)
                               ? static_cast<double>(own_pl) / 100.0
                               : 0.0;
      noise_fraction =
          config_.vm.cpu_noise_base + config_.vm.cpu_noise_per_share * share;
    } else {
      // Scheduling-latency interference grows mildly with extra residents.
      dilation = d.interactive_io * (1.0 + 0.03 * static_cast<double>(
                                                     std::max(k - 1, 0)));
      noise_fraction = config_.vm.io_noise_fraction;
    }
  }

  if (noise_fraction > 0.0) {
    const double factor = noise_rng_.normal(1.0, noise_fraction);
    if (factor > 0.0) dilation *= factor;
  }
  return dilation;
}

}  // namespace cg::glidein
