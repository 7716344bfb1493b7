#include "obs/job_tracer.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "util/strings.hpp"

namespace cg::obs {

std::string_view to_string(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kSubmitted: return "submitted";
    case TraceEventKind::kDiscovery: return "discovery";
    case TraceEventKind::kSelection: return "selection";
    case TraceEventKind::kMatched: return "matched";
    case TraceEventKind::kLeaseAcquired: return "lease_acquired";
    case TraceEventKind::kLeaseRevoked: return "lease_revoked";
    case TraceEventKind::kDispatched: return "dispatched";
    case TraceEventKind::kQueuedLocal: return "queued_local";
    case TraceEventKind::kQueuedBroker: return "queued_broker";
    case TraceEventKind::kStarted: return "started";
    case TraceEventKind::kRunning: return "running";
    case TraceEventKind::kStreaming: return "streaming";
    case TraceEventKind::kResubmitted: return "resubmitted";
    case TraceEventKind::kJobEvicted: return "job_evicted";
    case TraceEventKind::kCompleted: return "completed";
    case TraceEventKind::kFailed: return "failed";
    case TraceEventKind::kRejected: return "rejected";
    case TraceEventKind::kAgentDeployed: return "agent_deployed";
    case TraceEventKind::kAgentSuspected: return "agent_suspected";
    case TraceEventKind::kAgentRestored: return "agent_restored";
    case TraceEventKind::kAgentDied: return "agent_died";
    case TraceEventKind::kHeartbeatMiss: return "heartbeat_miss";
    case TraceEventKind::kLivenessMiss: return "liveness_miss";
    case TraceEventKind::kLinkDown: return "link_down";
    case TraceEventKind::kLinkUp: return "link_up";
    case TraceEventKind::kFrameDropped: return "frame_dropped";
    case TraceEventKind::kReconnected: return "reconnected";
    case TraceEventKind::kSpoolFull: return "spool_full";
    case TraceEventKind::kMsgDropped: return "msg_dropped";
    case TraceEventKind::kMsgDuplicated: return "msg_duplicated";
    case TraceEventKind::kInfo: return "info";
  }
  return "?";
}

void JobTracer::record(SimTime when, JobId job, TraceEventKind kind,
                       std::string detail, LabelSet attrs) {
  events_.push_back(
      JobTraceEvent{when, job, kind, std::move(detail), std::move(attrs)});
  if (!subscriptions_.empty()) notify(events_.size() - 1);
}

void JobTracer::notify(std::size_t event_index) {
  // Index-based on both sides: a callback may append subscriptions (they
  // only see later events — the bound is fixed here), unsubscribe, or even
  // record (the event is re-indexed each call, so vector growth is safe).
  const std::size_t limit = subscriptions_.size();
  for (std::size_t i = 0; i < limit && i < subscriptions_.size(); ++i) {
    const TraceEventKind kind = events_[event_index].kind;
    if (subscriptions_[i].kind && *subscriptions_[i].kind != kind) continue;
    subscriptions_[i].fn(events_[event_index]);
  }
}

JobTracer::SubscriptionId JobTracer::subscribe(Listener listener) {
  const SubscriptionId id = next_subscription_++;
  subscriptions_.push_back(Subscription{id, std::nullopt, std::move(listener)});
  return id;
}

JobTracer::SubscriptionId JobTracer::subscribe(TraceEventKind kind,
                                               Listener listener) {
  const SubscriptionId id = next_subscription_++;
  subscriptions_.push_back(Subscription{id, kind, std::move(listener)});
  return id;
}

void JobTracer::unsubscribe(SubscriptionId id) {
  std::erase_if(subscriptions_,
                [id](const Subscription& s) { return s.id == id; });
}

std::vector<JobTraceEvent> JobTracer::for_job(JobId job) const {
  std::vector<JobTraceEvent> out;
  for (const auto& e : events_) {
    if (e.job == job) out.push_back(e);
  }
  return out;
}

std::vector<JobTraceEvent> JobTracer::of_kind(TraceEventKind kind) const {
  std::vector<JobTraceEvent> out;
  for (const auto& e : events_) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

std::size_t JobTracer::count(TraceEventKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(events_.begin(), events_.end(),
                    [kind](const JobTraceEvent& e) { return e.kind == kind; }));
}

const JobTraceEvent* JobTracer::first(JobId job, TraceEventKind kind) const {
  for (const auto& e : events_) {
    if (e.job == job && e.kind == kind) return &e;
  }
  return nullptr;
}

std::string JobTracer::render() const {
  std::ostringstream os;
  for (const auto& e : events_) {
    os << e.when.count_micros() << "us ";
    if (e.job.valid()) {
      os << "job-" << e.job.value();
    } else {
      os << "grid";
    }
    os << ' ' << to_string(e.kind);
    if (!e.detail.empty()) os << ": " << e.detail;
    const std::string attrs = e.attrs.to_string();
    if (!attrs.empty()) os << ' ' << attrs;
    os << '\n';
  }
  return os.str();
}

namespace {

void append_json_attrs(std::string& out, const LabelSet& attrs) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : attrs.entries()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(k);
    out += "\":\"";
    out += json_escape(v);
    out += '"';
  }
  out += '}';
}

/// Appends one event's JSON line, newline included.
void append_jsonl(std::string& out, const JobTraceEvent& e) {
  out += "{\"ts_us\":";
  out += std::to_string(e.when.count_micros());
  out += ",\"job\":";
  out += std::to_string(e.job.value());
  out += ",\"kind\":\"";
  out += to_string(e.kind);
  out += "\",\"detail\":\"";
  out += json_escape(e.detail);
  out += "\",\"attrs\":";
  append_json_attrs(out, e.attrs);
  out += "}\n";
}

}  // namespace

std::string JobTracer::to_jsonl() const {
  // Measure, then write into one allocation of exactly that size. A string
  // grown by doubling holds its old and new buffers at each growth: at the
  // last one, up to three times the export, when the trace is largest.
  std::string line;
  std::size_t bytes = 0;
  for (const auto& e : events_) {
    line.clear();
    append_jsonl(line, e);
    bytes += line.size();
  }
  std::string out;
  out.reserve(bytes);
  for (const auto& e : events_) append_jsonl(out, e);
  return out;
}

std::string JobTracer::to_chrome_trace() const {
  // Group lifecycle events per job (preserving order); everything else
  // becomes an instant event on the grid track (tid 0).
  std::map<std::uint64_t, std::vector<const JobTraceEvent*>> per_job;
  std::vector<const JobTraceEvent*> global;
  for (const auto& e : events_) {
    if (e.job.valid()) {
      per_job[e.job.value()].push_back(&e);
    } else {
      global.push_back(&e);
    }
  }

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  const auto emit = [&out, &first](const std::string& line) {
    if (!first) out += ",\n";
    first = false;
    out += line;
  };
  const auto common = [](const JobTraceEvent& e, std::uint64_t tid) {
    std::string s = "\"name\":\"" + std::string{to_string(e.kind)} + "\"";
    s += ",\"pid\":1,\"tid\":" + std::to_string(tid);
    s += ",\"ts\":" + std::to_string(e.when.count_micros());
    s += ",\"args\":{\"detail\":\"" + json_escape(e.detail) + "\"";
    for (const auto& [k, v] : e.attrs.entries()) {
      s += ",\"" + json_escape(k) + "\":\"" + json_escape(v) + "\"";
    }
    s += "}";
    return s;
  };

  for (const auto& [job, evs] : per_job) {
    emit("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":" +
         std::to_string(job) + ",\"args\":{\"name\":\"job-" +
         std::to_string(job) + "\"}}");
    // Consecutive events become complete slices: the slice named after event
    // i spans until event i+1, so the lifecycle reads as adjacent phases.
    for (std::size_t i = 0; i < evs.size(); ++i) {
      const JobTraceEvent& e = *evs[i];
      if (i + 1 < evs.size()) {
        const std::int64_t dur =
            evs[i + 1]->when.count_micros() - e.when.count_micros();
        emit("{\"ph\":\"X\"," + common(e, job) +
             ",\"dur\":" + std::to_string(dur) + "}");
      } else {
        emit("{\"ph\":\"i\",\"s\":\"t\"," + common(e, job) + "}");
      }
    }
  }
  for (const JobTraceEvent* e : global) {
    emit("{\"ph\":\"i\",\"s\":\"g\"," + common(*e, 0) + "}");
  }
  out += "\n]}\n";
  return out;
}

}  // namespace cg::obs
