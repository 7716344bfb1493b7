#include "layer_trace.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.hpp"
#include "sim/simulation.hpp"

namespace gridbench {
namespace {

LayerTrace* g_active = nullptr;

/// Bounded so the span list of a long run stays small; per-call timings
/// are still collected for every call.
constexpr std::size_t kMaxCallSpans = 20000;

constexpr std::uint32_t bit(Layer layer) {
  return 1U << static_cast<unsigned>(layer);
}

std::uint32_t layer_bits_of(cg::obs::TraceEventKind kind) {
  using K = cg::obs::TraceEventKind;
  switch (kind) {
    case K::kSubmitted:
    case K::kDiscovery:
    case K::kSelection:
    case K::kMatched:
    case K::kLeaseAcquired:
    case K::kLeaseRevoked:
    case K::kDispatched:
    case K::kQueuedLocal:
    case K::kQueuedBroker:
    case K::kStarted:
    case K::kRunning:
    case K::kResubmitted:
    case K::kJobEvicted:
    case K::kCompleted:
    case K::kFailed:
    case K::kRejected:
      return bit(Layer::kBroker);
    case K::kAgentDeployed:
    case K::kAgentSuspected:
    case K::kAgentRestored:
    case K::kAgentDied:
    case K::kHeartbeatMiss:
    case K::kLivenessMiss:
      return bit(Layer::kGlidein);
    case K::kStreaming:
    case K::kFrameDropped:
    case K::kReconnected:
    case K::kSpoolFull:
      return bit(Layer::kStream);
    case K::kMsgDropped:
    case K::kMsgDuplicated:
    case K::kLinkDown:
    case K::kLinkUp:
      return bit(Layer::kNet);
    case K::kInfo:
      return 0;
  }
  return 0;
}

struct FamilySpec {
  const char* name;
  Layer layer;
  bool gauge;
  const char* label_key;
  const char* label_value;
};

constexpr FamilySpec kFamilies[] = {
    {"stream.flushes", Layer::kStream, false, nullptr, nullptr},
    {"stream.bytes_spooled", Layer::kStream, false, nullptr, nullptr},
    {"stream.retries", Layer::kStream, false, nullptr, nullptr},
    {"stream.frames_dropped", Layer::kStream, false, nullptr, nullptr},
    {"lrms.dispatches", Layer::kLrms, false, nullptr, nullptr},
    {"lrms.jobs_rejected", Layer::kLrms, false, nullptr, nullptr},
    {"lrms.queue_depth", Layer::kLrms, true, nullptr, nullptr},
    {"broker.match.cache_invalidations", Layer::kInfosys, false, "reason",
     "republish"},
    {"net.msg.sent", Layer::kNet, false, nullptr, nullptr},
    {"net.msg.delivered", Layer::kNet, false, nullptr, nullptr},
};

/// Signal-attribution precedence (see the header comment).
constexpr Layer kPrecedence[] = {Layer::kBroker, Layer::kGlidein, Layer::kStream,
                                 Layer::kLrms,   Layer::kInfosys, Layer::kNet};

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

}  // namespace

const char* to_string(Layer layer) {
  switch (layer) {
    case Layer::kBroker: return "broker";
    case Layer::kGlidein: return "glidein";
    case Layer::kStream: return "stream";
    case Layer::kLrms: return "lrms";
    case Layer::kInfosys: return "infosys";
    case Layer::kNet: return "net";
    case Layer::kJdl: return "jdl";
    case Layer::kOther: return "other";
  }
  return "other";
}

const char* to_string(Call call) {
  switch (call) {
    case Call::kParse: return "jdl.parse";
    case Call::kSubmit: return "broker.submit";
    case Call::kConsoleOpen: return "stream.console_open";
    case Call::kWrite: return "stream.write_stdout";
    case Call::kTypeLine: return "stream.type_line";
    case Call::kConsoleClose: return "stream.console_close";
  }
  return "call";
}

Layer layer_of(Call call) {
  switch (call) {
    case Call::kParse: return Layer::kJdl;
    case Call::kSubmit: return Layer::kBroker;
    case Call::kConsoleOpen:
    case Call::kWrite:
    case Call::kTypeLine:
    case Call::kConsoleClose: return Layer::kStream;
  }
  return Layer::kOther;
}

LayerTrace* active_trace() { return g_active; }
void set_active_trace(LayerTrace* trace) { g_active = trace; }

LayerTrace::LayerTrace(cg::Grid& grid) : grid_{grid}, origin_{Clock::now()} {
  subscription_ = grid_.subscribe([this](const cg::obs::JobTraceEvent& event) {
    tracer_mask_ |= layer_bits_of(event.kind);
  });
}

LayerTrace::~LayerTrace() {
  if (g_active == this) g_active = nullptr;  // unwinding out of run()
  grid_.unsubscribe(subscription_);
}

std::int32_t LayerTrace::open_span(const char* name) {
  Span span;
  span.name = name;
  span.start_ns = ns_between(origin_, Clock::now());
  span.end_ns = span.start_ns;
  spans_.push_back(span);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void LayerTrace::close_span(std::int32_t index) {
  spans_.at(static_cast<std::size_t>(index)).end_ns =
      ns_between(origin_, Clock::now());
}

void LayerTrace::finish_call(Call call, std::uint64_t job,
                             Clock::time_point start) {
  const auto end = Clock::now();
  const std::int64_t ns = ns_between(start, end);
  result_.call_ns[static_cast<std::size_t>(call)].push_back(static_cast<double>(ns));
  if (in_step_) step_calls_ns_[static_cast<std::size_t>(layer_of(call))] += ns;
  if (call_spans_ < kMaxCallSpans) {
    ++call_spans_;
    Span span;
    span.name = to_string(call);
    span.start_ns = ns_between(origin_, start);
    span.end_ns = ns_between(origin_, end);
    span.parent = run_span_;
    span.job = job;
    spans_.push_back(span);
  }
}

void LayerTrace::resolve_instruments() {
  const cg::obs::MetricsRegistry& metrics = grid_.metrics();
  for (auto& list : counters_) list.clear();
  for (auto& list : gauges_) list.clear();
  const cg::obs::MetricsSnapshot snap = metrics.snapshot();
  for (const cg::obs::MetricSample& sample : snap.samples) {
    for (const FamilySpec& family : kFamilies) {
      if (sample.name != family.name) continue;
      if (family.label_key != nullptr) {
        const std::string* value = sample.labels.find(family.label_key);
        if (value == nullptr || *value != family.label_value) continue;
      }
      const auto layer = static_cast<std::size_t>(family.layer);
      if (family.gauge) {
        if (const auto* g = metrics.find_gauge(sample.name, sample.labels)) {
          gauges_[layer].push_back(g);
        }
      } else if (const auto* c = metrics.find_counter(sample.name, sample.labels)) {
        counters_[layer].push_back(c);
      }
    }
  }
  resolved_instruments_ = metrics.instrument_count();
}

double LayerTrace::signal_sum(Layer layer) const {
  const auto i = static_cast<std::size_t>(layer);
  double sum = 0.0;
  for (const auto* c : counters_[i]) sum += static_cast<double>(c->value());
  // Gauges weigh by position so opposite moves on two sites cannot cancel.
  double weight = 1.0;
  for (const auto* g : gauges_[i]) {
    sum += g->value() * weight;
    weight += 1.0;
  }
  return sum;
}

std::size_t LayerTrace::lrms_queue_depth() const {
  std::size_t depth = 0;
  for (std::size_t s = 0; s < grid_.site_count(); ++s) {
    depth += static_cast<std::size_t>(
        grid_.scenario().site(s).scheduler().queued_jobs());
  }
  return depth;
}

void LayerTrace::run() {
  cg::sim::Simulation& sim = grid_.sim();
  set_active_trace(this);
  run_span_ = open_span("run");
  resolve_instruments();
  std::array<double, kLayerCount> before{};
  for (const Layer layer : kPrecedence) {
    before[static_cast<std::size_t>(layer)] = signal_sum(layer);
  }
  std::uint64_t resolve_interval = 64;
  std::uint64_t next_resolve_step = resolve_interval;
  while (sim.pending_events() > 0) {
    tracer_mask_ = 0;
    bench_signal_lrms_ = false;
    step_calls_ns_.fill(0);
    in_step_ = true;
    const auto t0 = Clock::now();
    const bool stepped = sim.step();
    const auto t1 = Clock::now();
    in_step_ = false;
    if (!stepped) break;
    const std::int64_t step_ns = ns_between(t0, t1);
    result_.step_ns += step_ns;
    ++result_.steps;

    std::uint32_t moved = tracer_mask_;
    if (bench_signal_lrms_) moved |= bit(Layer::kLrms);
    for (const Layer layer : kPrecedence) {
      const auto i = static_cast<std::size_t>(layer);
      const double now = signal_sum(layer);
      if (now != before[i]) moved |= bit(layer);
      before[i] = now;
    }
    // Instruments are created lazily (per site, agent, message type, ...).
    // Re-resolving takes a registry snapshot, so it happens on a doubling
    // step interval; the fresh baseline absorbs the new instruments' values.
    if (result_.steps >= next_resolve_step &&
        grid_.metrics().instrument_count() != resolved_instruments_) {
      resolve_instruments();
      for (const Layer layer : kPrecedence) {
        before[static_cast<std::size_t>(layer)] = signal_sum(layer);
      }
      resolve_interval = std::min<std::uint64_t>(resolve_interval * 2, 16384);
      next_resolve_step = result_.steps + resolve_interval;
    }

    std::int64_t remainder = step_ns;
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      const std::int64_t ns = std::min(step_calls_ns_[i], remainder);
      result_.layer_ns[i] += ns;
      remainder -= ns;
    }
    Layer owner = Layer::kOther;
    for (const Layer layer : kPrecedence) {
      if ((moved & bit(layer)) != 0) {
        owner = layer;
        break;
      }
    }
    result_.layer_ns[static_cast<std::size_t>(owner)] += remainder;

    result_.pending_high_water =
        std::max(result_.pending_high_water, sim.pending_events());
    result_.broker_queue_high_water = std::max(
        result_.broker_queue_high_water, grid_.broker().broker_queue_length());
    result_.in_flight_high_water =
        std::max(result_.in_flight_high_water, grid_.scenario().bus().in_flight());
    result_.agents_high_water = std::max(
        result_.agents_high_water,
        static_cast<std::size_t>(grid_.broker().agents().total_agents()));
    if ((moved & bit(Layer::kLrms)) != 0) {
      result_.lrms_queue_high_water =
          std::max(result_.lrms_queue_high_water, lrms_queue_depth());
    }
  }
  close_span(run_span_);
  run_span_ = -1;
  set_active_trace(nullptr);
}

std::string LayerTrace::spans_jsonl() const {
  std::string out;
  char line[256];
  for (const Span& span : spans_) {
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                  "\"parent\":%d,\"job\":%llu}\n",
                  span.name, static_cast<long long>(span.start_ns),
                  static_cast<long long>(span.end_ns), span.parent,
                  static_cast<unsigned long long>(span.job));
    out += line;
  }
  return out;
}

}  // namespace gridbench
