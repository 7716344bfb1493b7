#include "net/control_bus.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/observability.hpp"
#include "sim/network.hpp"
#include "sim/simulation.hpp"

namespace cg::net {

ControlBus::ControlBus(sim::Simulation& sim, sim::Network& network)
    : sim_{sim}, network_{network} {}

ControlBus::~ControlBus() = default;

EndpointId ControlBus::endpoint(const std::string& name) {
  const auto [it, inserted] =
      ids_.try_emplace(name, EndpointId{names_.size() + 1});
  if (inserted) {
    names_.push_back(name);
    pairs_.resize(names_.size() + 1);
    handlers_.resize(names_.size() + 1);
  }
  return it->second;
}

std::size_t ControlBus::table_index(EndpointId id) const {
  if (!id.valid() || id.value() > names_.size()) {
    throw std::out_of_range{"ControlBus: unknown endpoint id"};
  }
  return static_cast<std::size_t>(id.value());
}

const std::string& ControlBus::name(EndpointId id) const {
  return names_[table_index(id) - 1];
}

void ControlBus::bind(EndpointId endpoint, DeliverFn handler) {
  DeliverFn& bound = handlers_[table_index(endpoint)];
  if (bound) {
    throw std::logic_error{"ControlBus: endpoint " + name(endpoint) +
                           " already has a receiver"};
  }
  bound = std::move(handler);
}

void ControlBus::unbind(EndpointId endpoint) {
  handlers_[table_index(endpoint)] = nullptr;
}

void ControlBus::set_observability(obs::Observability* obs) {
  obs_ = obs;
  if (obs == nullptr) {
    sent_ = {};
    delivered_ = {};
    dropped_ = {};
    duplicated_ = {};
    latency_ = {};
    return;
  }
  for (std::size_t i = 0; i < kMessageTypeCount; ++i) {
    const obs::LabelSet labels{
        {"type", std::string{to_string(static_cast<MsgType>(i))}}};
    sent_[i] = obs->metrics.counter_handle("net.msg.sent", labels);
    delivered_[i] = obs->metrics.counter_handle("net.msg.delivered", labels);
    dropped_[i] = obs->metrics.counter_handle("net.msg.dropped", labels);
    duplicated_[i] = obs->metrics.counter_handle("net.msg.duplicated", labels);
    latency_[i] = obs->metrics.histogram_handle("net.msg.latency_s", labels);
  }
}

ControlBus::PairState& ControlBus::pair(EndpointId src, EndpointId dst) {
  std::vector<PairState>& row = pairs_[table_index(src)];
  const std::size_t column = table_index(dst);
  if (row.size() <= column) row.resize(column + 1);
  return row[column];
}

sim::Link& ControlBus::link(EndpointId src, EndpointId dst) {
  PairState& state = pair(src, dst);
  if (state.link == nullptr || state.link_version != network_.version()) {
    state.link = &network_.link(name(src), name(dst));
    state.link_version = network_.version();
  }
  return *state.link;
}

bool ControlBus::fault_matches(const ActiveFault& fault, MsgType type,
                               EndpointId src, EndpointId dst) {
  if (fault.type && *fault.type != type) return false;
  // Endpoint filters are unordered (like the network's link keys): a named
  // endpoint must be one of the two ends, and a fully named pair must be
  // exactly {src, dst}.
  const EndpointId a = fault.endpoint_a;
  const EndpointId b = fault.endpoint_b;
  if (!a.valid() && !b.valid()) return true;
  if (!b.valid()) return a == src || a == dst;
  if (!a.valid()) return b == src || b == dst;
  return (a == src && b == dst) || (a == dst && b == src);
}

bool ControlBus::drop_fault_active(MsgType type, EndpointId src,
                                   EndpointId dst) const {
  return std::any_of(faults_.begin(), faults_.end(), [&](const ActiveFault& f) {
    return f.kind == sim::FaultKind::kMsgDrop && fault_matches(f, type, src, dst);
  });
}

bool ControlBus::dup_fault_active(MsgType type, EndpointId src,
                                  EndpointId dst) const {
  return std::any_of(faults_.begin(), faults_.end(), [&](const ActiveFault& f) {
    return f.kind == sim::FaultKind::kMsgDup && fault_matches(f, type, src, dst);
  });
}

Duration ControlBus::reorder_delay(MsgType type, EndpointId src,
                                   EndpointId dst) const {
  Duration delay = Duration::zero();
  for (const ActiveFault& f : faults_) {
    if (f.kind == sim::FaultKind::kMsgReorder && fault_matches(f, type, src, dst))
      delay = delay + f.extra_latency;
  }
  return delay;
}

void ControlBus::count_drop(const Envelope& envelope, const char* reason) {
  const auto index = envelope.payload.index();
  dropped_[index].inc();
  if (obs_ != nullptr) {
    obs_->tracer.record(sim_.now(), job_of(envelope.payload),
                        obs::TraceEventKind::kMsgDropped, reason,
                        obs::LabelSet{
                            {"type", std::string{to_string(
                                         type_of(envelope.payload))}},
                            {"src", name(envelope.src)},
                            {"dst", name(envelope.dst)},
                        });
  }
}

std::uint64_t ControlBus::last_seq(EndpointId src, EndpointId dst) const {
  if (src.value() >= pairs_.size()) return 0;
  const std::vector<PairState>& row = pairs_[src.value()];
  return dst.value() < row.size() ? row[dst.value()].seq : 0;
}

bool ControlBus::send(EndpointId src, EndpointId dst, Message msg,
                      const SendOptions& options) {
  const MsgType type = type_of(msg);
  const auto index = msg.index();
  sent_[index].inc();

  const Envelope envelope{++pair(src, dst).seq, src, dst, sim_.now(),
                          std::move(msg)};

  if (options.drop_when_down && !link(src, dst).is_up(sim_.now())) {
    count_drop(envelope, "partition");
    return false;
  }
  if (drop_fault_active(type, src, dst)) {
    count_drop(envelope, "fault");
    return false;
  }

  Duration delay = options.channel_latency + options.processing_latency;
  if (options.payload_bytes > 0) {
    // The transfer rides the same link (and consumes the same jitter RNG
    // draw) the pre-bus call sites used, in send order.
    const EndpointId from =
        options.transfer_src.valid() ? options.transfer_src : src;
    delay = delay + link(from, dst).transfer_duration(options.payload_bytes);
  }
  delay = delay + reorder_delay(type, src, dst);

  const bool duplicate = dup_fault_active(type, src, dst);

  if (delay.count_micros() == 0 && !duplicate) {
    delivered_[index].inc();
    latency_[index].observe(0.0);
    deliver_envelope(envelope);
    return true;
  }

  if (duplicate) {
    duplicated_[index].inc();
    if (obs_ != nullptr) {
      obs_->tracer.record(sim_.now(), job_of(envelope.payload),
                          obs::TraceEventKind::kMsgDuplicated, "fault",
                          obs::LabelSet{
                              {"type", std::string{to_string(type)}},
                              {"src", name(src)},
                              {"dst", name(dst)},
                          });
    }
    schedule_delivery(envelope, delay);  // the copy
  }
  schedule_delivery(envelope, delay);
  return true;
}

void ControlBus::schedule_delivery(const Envelope& envelope, Duration delay) {
  std::uint32_t slot = 0;
  if (free_pending_.empty()) {
    slot = static_cast<std::uint32_t>(pending_.size());
    pending_.push_back(envelope);
  } else {
    slot = free_pending_.back();
    free_pending_.pop_back();
    pending_[slot] = envelope;
  }
  ++in_flight_;
  sim_.schedule(delay, [this, slot] { deliver(slot); });
}

void ControlBus::deliver(std::uint32_t slot) {
  // Out of the slab before the handler runs: handlers send more messages,
  // which may reuse the slot or grow the slab.
  const Envelope envelope = pending_[slot];
  free_pending_.push_back(slot);
  --in_flight_;
  const auto index = envelope.payload.index();
  delivered_[index].inc();
  latency_[index].observe_duration(sim_.now() - envelope.send_time);
  deliver_envelope(envelope);
}

void ControlBus::deliver_envelope(const Envelope& envelope) {
  const DeliverFn& handler = handlers_[envelope.dst.value()];
  if (handler) handler(envelope);
}

std::optional<ControlBus::ActiveFault> ControlBus::resolve_fault(
    const sim::FaultSpec& spec) {
  ActiveFault fault;
  fault.kind = spec.kind;
  if (!is_wildcard_type(spec.target)) {
    const auto type = type_from_name(spec.target);
    if (!type) return std::nullopt;
    fault.type = *type;
  }
  // Resolved now, so a filter naming an endpoint no message has used yet
  // matches its first send: interning is idempotent.
  if (!spec.endpoint_a.empty()) fault.endpoint_a = endpoint(spec.endpoint_a);
  if (!spec.endpoint_b.empty()) fault.endpoint_b = endpoint(spec.endpoint_b);
  fault.extra_latency = spec.extra_latency;
  return fault;
}

void ControlBus::apply_message_fault(const sim::FaultSpec& spec) {
  if (!sim::is_message_fault(spec.kind)) return;
  // An unknown type name can match nothing and is not armed.
  if (const auto fault = resolve_fault(spec)) faults_.push_back(*fault);
}

void ControlBus::clear_message_fault(const sim::FaultSpec& spec) {
  if (!sim::is_message_fault(spec.kind)) return;
  const auto cleared = resolve_fault(spec);
  if (!cleared) return;
  const auto it = std::find_if(
      faults_.begin(), faults_.end(), [&](const ActiveFault& f) {
        return f.kind == cleared->kind && f.type == cleared->type &&
               f.endpoint_a == cleared->endpoint_a &&
               f.endpoint_b == cleared->endpoint_b &&
               f.extra_latency == cleared->extra_latency;
      });
  if (it != faults_.end()) faults_.erase(it);
}

}  // namespace cg::net
