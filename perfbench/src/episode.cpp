#include "episode.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <string_view>

#include "alloc_counter.hpp"
#include "broker/fault_bridge.hpp"
#include "grid/grid.hpp"
#include "sim/fault.hpp"
#include "stream/grid_console.hpp"

namespace gridbench {
namespace {

using cg::Duration;
using cg::JobId;
using cg::SimTime;
using cg::broker::JobRecord;
using cg::broker::JobState;

/// A finished console is torn down once its chunk pool has drained; this
/// is how long after the application exits the first check happens.
constexpr double kReapDelayS = 30.0;
constexpr int kMaxReapTries = 40;
/// A FlushBuffer keeps its current segment chunk between flushes, so an
/// idle console still holds one chunk per buffer it used: the agent's
/// stdout and the shadow's screen. Anything above that is a frame in
/// flight (or leaked).
constexpr std::size_t kIdleChunks = 2;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

char* put_u32(char* out, std::uint32_t v) {
  char tmp[10];
  int n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0) *out++ = tmp[--n];
  return out;
}

char* put_hex(char* out, std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) *out++ = kDigits[(v >> shift) & 0xf];
  return out;
}

/// Parses the decimal number at the front of `s` (0 when there is none).
std::uint32_t parse_u32(std::string_view s) {
  std::uint32_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') break;
    v = v * 10 + static_cast<std::uint32_t>(c - '0');
  }
  return v;
}

struct Session;

/// One run of an interactive job's application with its Grid Console. A
/// resubmitted job gets a fresh attempt (new site, new console).
struct Attempt {
  Session* session = nullptr;
  std::uint32_t number = 0;
  JobId job;
  std::unique_ptr<cg::stream::GridConsole> console;
  cg::stream::ConsoleAgent* agent = nullptr;
  std::size_t site_index = 0;
  double started_s = 0.0;
  double ended_s = 0.0;
  bool active = true;  ///< the application runs and writes
  bool finalized = false;
  std::uint32_t next_write = 0;
  std::uint32_t next_type = 0;
  std::uint32_t seq = 0;
  /// Lines written and not yet seen at the screen: (sequence, FNV-1a).
  std::deque<std::pair<std::uint32_t, std::uint64_t>> expected;
  std::string partial;  ///< an incomplete delivered line
  std::vector<double> typed_at_s;
  std::uint64_t lost = 0;
  int reap_tries = 0;
};

struct Session {
  std::size_t input = 0;
  bool reliable = false;
  std::vector<std::unique_ptr<Attempt>> attempts;
  Attempt* current = nullptr;
};

/// Maps the plan's "job:N" (N = input index) onto the broker's job id at
/// fire time and forwards to the broker's FaultBridge.
class InputJobResolver : public cg::sim::FaultVictimResolver {
public:
  InputJobResolver(cg::broker::FaultBridge& bridge, const std::vector<JobId>& ids)
      : bridge_{bridge}, ids_{ids} {}

  bool set_agent_wedged(const std::string& target, bool wedged) override {
    return bridge_.set_agent_wedged(translate(target), wedged);
  }
  bool crash_agent(const std::string& target) override {
    return bridge_.crash_agent(translate(target));
  }
  bool set_node_failed(const std::string& target, bool failed) override {
    return bridge_.set_node_failed(translate(target), failed);
  }

private:
  std::string translate(const std::string& target) const {
    const auto query = cg::sim::parse_victim_query(target);
    if (!query || query->ref != cg::sim::VictimQuery::Ref::kJob) return target;
    if (query->id >= ids_.size() || !ids_[query->id].valid()) return "unresolved";
    const std::string job = "job:" + std::to_string(ids_[query->id].value());
    switch (query->fn) {
      case cg::sim::VictimQuery::Fn::kAgentOf: return "agent_of(" + job + ")";
      case cg::sim::VictimQuery::Fn::kNodeOf: return "node_of(" + job + ")";
      case cg::sim::VictimQuery::Fn::kNone: return job;
    }
    return target;
  }

  cg::broker::FaultBridge& bridge_;
  const std::vector<JobId>& ids_;
};

/// Sums a metric family over every label set: counter values, or the
/// histogram's observation sum (`use_count` picks its observation count).
double family_total(const cg::obs::MetricsSnapshot& snap, std::string_view name,
                    bool use_count = false) {
  double total = 0.0;
  for (const auto& s : snap.samples) {
    if (s.name == name) total += use_count ? static_cast<double>(s.count) : s.value;
  }
  return total;
}

double labelled_total(const cg::obs::MetricsSnapshot& snap, std::string_view name,
                      const std::string& key,
                      std::initializer_list<std::string_view> values) {
  double total = 0.0;
  for (const auto& s : snap.samples) {
    if (s.name != name) continue;
    const std::string* v = s.labels.find(key);
    if (v == nullptr) continue;
    for (const auto want : values) {
      if (*v == want) total += s.value;
    }
  }
  return total;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

class Episode {
public:
  Episode(const Inputs& inputs, const EpisodeOptions& options, EpisodeResult& out)
      : in_{inputs}, options_{options}, out_{out} {}

  /// Builds the grid and schedules the inputs, then tears it down.
  double setup_only() {
    const auto t0 = Clock::now();
    setup();
    const double s = seconds_between(t0, Clock::now());
    teardown();
    return s;
  }

  void run() {
    std::unique_ptr<LayerTrace> trace;
    const auto t0 = Clock::now();
    setup();
    const auto t1 = Clock::now();
    out_.setup_s = seconds_between(t0, t1);

    const std::uint64_t allocs_before = allocation_count();
    if (options_.traced) {
      trace = std::make_unique<LayerTrace>(*grid_);
      const auto r0 = Clock::now();
      trace->run();
      out_.run_s = seconds_between(r0, Clock::now());
    } else {
      const auto r0 = Clock::now();
      grid_->run();
      out_.run_s = seconds_between(r0, Clock::now());
    }
    out_.run_allocs = allocation_count() - allocs_before;

    const std::int32_t check_span = trace ? trace->open_span("checks") : -1;
    collect();
    if (trace) {
      trace->close_span(check_span);
      out_.trace = trace->result();
      out_.spans_jsonl = trace->spans_jsonl();
      trace.reset();
    }
    teardown();
  }

private:
  // ---------------------------------------------------------------- setup --
  void setup() {
    const WorkloadShape& s = in_.shape;
    cg::GridConfig config;
    config.sites = s.sites;
    config.nodes_per_site = s.nodes_per_site;
    config.enable_gsi = true;
    config.seed = in_.seed * 1000003ULL + 17;
    config.broker.seed = in_.seed ^ 0xb40cce5ULL;
    if (s.chaos) {
      config.broker.running_job_grace = Duration::seconds(30);
      config.broker.resubmit_interactive_on_agent_death = true;
      config.broker.max_resubmissions = 6;
    }
    grid_ = std::make_unique<cg::Grid>(config);
    for (int u = 1; u <= s.users; ++u) {
      grid_->register_user(cg::UserId{static_cast<std::uint64_t>(u)},
                           "user" + std::to_string(u));
    }
    for (std::size_t i = 0; i < grid_->site_count(); ++i) {
      site_index_[grid_->site(i).id()] = i;
    }
    job_ids_.assign(in_.jobs.size(), JobId{});
    first_running_s_.assign(in_.jobs.size(), -1.0);
    sessions_.resize(in_.jobs.size());
    if (!in_.faults.empty()) {
      injector_ = std::make_unique<cg::sim::FaultInjector>(grid_->sim(),
                                                           &grid_->network());
      bridge_ = std::make_unique<cg::broker::FaultBridge>(grid_->scenario(),
                                                          *injector_);
      resolver_ = std::make_unique<InputJobResolver>(*bridge_, job_ids_);
      cg::sim::install_victim_handlers(*injector_, *resolver_);
      injector_->register_message_sink(&grid_->scenario().bus());
      injector_->arm(in_.faults);
    }
    for (std::size_t i = 0; i < in_.jobs.size(); ++i) {
      grid_->sim().schedule_at(SimTime::from_seconds(in_.jobs[i].arrival_s),
                               [this, i] { arrive(i); });
    }
  }

  // ----------------------------------------------------------- job inputs --
  void arrive(std::size_t i) {
    const JobInput& job = in_.jobs[i];
    ++out_.operations;
    auto description = call_into(Call::kParse, 0, [&] {
      return cg::jdl::JobDescription::parse(job.jdl);
    });
    if (!description) {
      violation("input " + std::to_string(i) + ": JDL rejected: " +
                description.error().to_string());
      ++out_.jobs_refused;
      return;
    }
    cg::broker::JobCallbacks callbacks;
    // Startup is submit -> first start: a job restarted after a fault
    // already gave its user a session (or its batch slot) once.
    callbacks.on_running = [this, i, interactive = job.interactive](const JobRecord& record) {
      if (first_running_s_[i] < 0.0) first_running_s_[i] = grid_->now().to_seconds();
      if (interactive) start_attempt(i, record);
    };
    if (job.interactive) {
      callbacks.on_state_change = [this, i](const JobRecord& record) {
        if (record.state != JobState::kRunning) stop_attempt(i);
      };
    }
    callbacks.phase_observer = [](const cg::lrms::Phase&, Duration) {
      if (LayerTrace* trace = active_trace()) trace->note_lrms_phase();
    };
    auto handle = call_into(Call::kSubmit, 0, [&] {
      return grid_->submit(std::move(description.value()),
                           cg::UserId{job.user},
                           cg::lrms::Workload::cpu(Duration::from_seconds(job.runtime_s)),
                           std::move(callbacks));
    });
    if (!handle) {
      violation("input " + std::to_string(i) + ": refused at submit: " +
                handle.error().cause.to_string());
      ++out_.jobs_refused;
      return;
    }
    job_ids_[i] = handle->id();
    ++out_.jobs_submitted;
  }

  // -------------------------------------------------------------- console --
  void start_attempt(std::size_t i, const JobRecord& record) {
    if (!sessions_[i]) {
      sessions_[i] = std::make_unique<Session>();
      sessions_[i]->input = i;
      sessions_[i]->reliable = in_.jobs[i].reliable;
    }
    Session& session = *sessions_[i];
    if (session.current != nullptr && session.current->active) stop_attempt(i);
    auto attempt = std::make_unique<Attempt>();
    Attempt* a = attempt.get();
    a->session = &session;
    a->number = static_cast<std::uint32_t>(session.attempts.size());
    a->job = record.id;
    a->started_s = grid_->now().to_seconds();
    a->site_index = site_index_.at(record.subjobs.front().site);
    session.attempts.push_back(std::move(attempt));
    session.current = a;

    cg::stream::GridConsoleConfig config;
    config.mode = record.description.streaming_mode();
    config.obs = grid_->obs_ptr();
    config.job = record.id;
    call_into(Call::kConsoleOpen, record.id.value(), [&] {
      a->console = std::make_unique<cg::stream::GridConsole>(
          grid_->sim(), grid_->network(), config, cg::Grid::ui_endpoint(),
          cg::stream::ConsoleShadow::ChunkSink{[this, a](cg::stream::ChunkRef data) {
            on_screen(*a, data.view());
          }},
          cg::Rng{script(*a).payload_seed ^ (a->number + 1)});
      a->agent = &a->console->add_agent(
          0, grid_->site(a->site_index).endpoint());
      a->agent->set_input_handler([this, a](std::string line) { on_input(*a, line); });
    });
    const ConsoleScript& sc = script(*a);
    if (!sc.write_at.empty()) schedule_write(*a);
    if (!sc.type_at.empty()) schedule_type(*a);
  }

  const ConsoleScript& script(const Attempt& a) const {
    return in_.jobs[a.session->input].script;
  }

  void schedule_write(Attempt& a) {
    const double at = a.started_s + script(a).write_at[a.next_write];
    grid_->sim().schedule_at(SimTime::from_seconds(at), [this, p = &a] { app_write(*p); });
  }

  void schedule_type(Attempt& a) {
    const double at = a.started_s + script(a).type_at[a.next_type];
    grid_->sim().schedule_at(SimTime::from_seconds(at), [this, p = &a] { user_type(*p); });
  }

  /// Formats output line `seq` of attempt `a` ("o<seq> <32 hex>\n") into
  /// `out`, records what the screen must show, and returns the end.
  char* format_output_line(Attempt& a, char* out) {
    const std::uint32_t seq = a.seq++;
    char* const begin = out;
    const std::uint64_t base = script(a).payload_seed + (std::uint64_t{a.number} << 40);
    *out++ = 'o';
    out = put_u32(out, seq);
    *out++ = ' ';
    out = put_hex(out, mix64(base + 2 * seq));
    out = put_hex(out, mix64(base + 2 * seq + 1));
    *out++ = '\n';
    a.expected.emplace_back(seq, fnv1a({begin, static_cast<std::size_t>(out - begin)}));
    return out;
  }

  void app_write(Attempt& a) {
    if (!a.active) return;
    const ConsoleScript& sc = script(a);
    const std::uint32_t lines = sc.write_lines[a.next_write];
    char buf[64 * 256];
    char* end = buf;
    for (std::uint32_t k = 0; k < lines; ++k) end = format_output_line(a, end);
    out_.lines_written += lines;
    out_.operations += lines;
    call_into(Call::kWrite, a.job.value(), [&] {
      a.agent->write_stdout({buf, static_cast<std::size_t>(end - buf)});
    });
    if (++a.next_write < sc.write_at.size()) schedule_write(a);
  }

  void user_type(Attempt& a) {
    if (!a.active) return;
    const ConsoleScript& sc = script(a);
    const auto k = static_cast<std::uint32_t>(a.typed_at_s.size());
    char buf[64];
    char* end = buf;
    *end++ = 't';
    end = put_u32(end, k);
    *end++ = ' ';
    end = put_hex(end, mix64(sc.payload_seed ^ (0x7e57ULL + k)));
    a.typed_at_s.push_back(grid_->now().to_seconds());
    ++out_.lines_typed;
    ++out_.operations;
    call_into(Call::kTypeLine, a.job.value(), [&] {
      a.console->shadow().type_line(std::string{buf, static_cast<std::size_t>(end - buf)});
    });
    if (++a.next_type < sc.type_at.size()) schedule_type(a);
  }

  /// The application echoes each typed line back on stdout.
  void on_input(Attempt& a, const std::string& line) {
    if (!a.active) return;
    char buf[128];
    const std::uint32_t seq = a.seq++;
    char* end = buf;
    *end++ = 'e';
    end = put_u32(end, seq);
    *end++ = ' ';
    const std::size_t n = std::min(line.size(), sizeof buf - 16);
    std::memcpy(end, line.data(), n);
    end += n;
    if (end[-1] != '\n') *end++ = '\n';
    const std::string_view text{buf, static_cast<std::size_t>(end - buf)};
    a.expected.emplace_back(seq, fnv1a(text));
    ++out_.lines_written;
    call_into(Call::kWrite, a.job.value(), [&] { a.agent->write_stdout(text); });
  }

  /// The screen: delivered output, split into lines and checked.
  void on_screen(Attempt& a, std::string_view data) {
    while (!data.empty()) {
      const std::size_t nl = data.find('\n');
      if (nl == std::string_view::npos) {
        a.partial.append(data);
        return;
      }
      if (a.partial.empty()) {
        check_line(a, data.substr(0, nl + 1));
      } else {
        a.partial.append(data.substr(0, nl + 1));
        check_line(a, a.partial);
        a.partial.clear();
      }
      data.remove_prefix(nl + 1);
    }
  }

  [[nodiscard]] bool loss_allowed(const Attempt& a) const {
    return !a.session->reliable && a.agent != nullptr &&
           a.agent->frames_dropped() > 0;
  }

  void check_line(Attempt& a, std::string_view line) {
    ++out_.lines_delivered;
    const std::uint32_t seq = parse_u32(line.substr(1));
    const std::uint64_t hash = fnv1a(line);
    while (!a.expected.empty() && a.expected.front().first < seq) {
      a.expected.pop_front();
      if (loss_allowed(a)) {
        ++a.lost;
      } else {
        violation_on(a, "line " + std::to_string(seq) + " arrived before earlier lines");
      }
    }
    if (a.expected.empty() || a.expected.front().first != seq ||
        a.expected.front().second != hash) {
      violation_on(a, "line " + std::to_string(seq) + " out of order or corrupted");
      return;
    }
    a.expected.pop_front();
    if (line[0] != 'e') return;
    // "e<seq> t<k> ...": the echo of typed line k.
    const std::size_t t = line.find(" t");
    if (t == std::string_view::npos) return;
    const std::uint32_t k = parse_u32(line.substr(t + 2));
    if (k >= a.typed_at_s.size()) return;
    const double rtt_ms = (grid_->now().to_seconds() - a.typed_at_s[k]) * 1e3;
    out_.echo_rtt_ms.push_back(rtt_ms);
    (a.session->reliable ? out_.echo_reliable_ms : out_.echo_fast_ms).push_back(rtt_ms);
  }

  void stop_attempt(std::size_t i) {
    if (!sessions_[i] || sessions_[i]->current == nullptr) return;
    Attempt& a = *sessions_[i]->current;
    if (!a.active) return;
    a.active = false;
    a.ended_s = grid_->now().to_seconds();
    call_into(Call::kConsoleClose, a.job.value(), [&] { a.agent->close(); });
    grid_->sim().schedule(Duration::from_seconds(kReapDelayS), [this, p = &a] { reap(*p); });
  }

  void reap(Attempt& a) {
    const bool drained = a.console->chunk_pool().in_use_chunks() <= kIdleChunks &&
                         (a.expected.empty() || loss_allowed(a));
    if (!drained && ++a.reap_tries < kMaxReapTries) {
      grid_->sim().schedule(Duration::from_seconds(kReapDelayS),
                            [this, p = &a] { reap(*p); });
      return;
    }
    finalize(a);
    call_into(Call::kConsoleClose, a.job.value(), [&] {
      a.agent = nullptr;
      a.console.reset();
    });
  }

  /// End-of-attempt checks: the pool drained, every written line reached
  /// the screen in order, and any loss happened in fast mode inside an
  /// injected outage of the attempt's site.
  void finalize(Attempt& a) {
    if (a.finalized) return;
    a.finalized = true;
    const cg::stream::ChunkPool& pool = a.console->chunk_pool();
    if (pool.in_use_chunks() > kIdleChunks) {
      violation_on(a, "chunk pool not drained at quiescence");
    }
    pool_high_water_ = std::max(pool_high_water_, pool.high_water_in_use());
    if (!a.partial.empty()) violation_on(a, "truncated line at the screen");
    if (!a.expected.empty()) {
      if (loss_allowed(a)) {
        a.lost += a.expected.size();
        a.expected.clear();
      } else {
        violation_on(a, std::to_string(a.expected.size()) + " lines never delivered");
      }
    }
    if (a.lost > 0) {
      const double end = a.active ? grid_->now().to_seconds() : a.ended_s + kReapDelayS;
      bool in_outage = false;
      if (a.site_index < in_.ui_outages.size()) {
        for (const auto& [from, to] : in_.ui_outages[a.site_index]) {
          in_outage = in_outage || (from <= end && to >= a.started_s);
        }
      }
      if (!in_outage) violation_on(a, "fast-mode loss outside any injected outage");
      out_.lines_lost_in_outages += a.lost;
    }
  }

  void violation_on(const Attempt& a, const std::string& what) {
    violation("job input " + std::to_string(a.session->input) + " attempt " +
              std::to_string(a.number) + ": " + what);
  }

  void violation(std::string what) {
    ++out_.failed_operations;
    if (out_.failures.size() < 20) out_.failures.push_back(std::move(what));
  }

  // ------------------------------------------------------------- results --
  void collect() {
    cg::sim::Simulation& sim = grid_->sim();
    out_.sim_s = sim.now().to_seconds();
    out_.events = sim.processed_events();

    for (auto& session : sessions_) {
      if (!session) continue;
      for (auto& a : session->attempts) {
        if (a->active) {
          violation_on(*a, "application still running at quiescence");
          a->active = false;
        }
        if (a->console) finalize(*a);
      }
    }

    std::vector<double> discovery;
    std::vector<double> selection;
    std::vector<double> dispatch;
    std::uint64_t shared_ran = 0;
    std::uint64_t shared_on_vm = 0;
    for (std::size_t i = 0; i < in_.jobs.size(); ++i) {
      if (!job_ids_[i].valid()) continue;
      const JobInput& job = in_.jobs[i];
      const JobRecord* record = grid_->broker().record(job_ids_[i]);
      if (record == nullptr) {
        violation("input " + std::to_string(i) + ": broker lost the record");
        continue;
      }
      if (!cg::broker::is_terminal(record->state)) {
        violation("input " + std::to_string(i) + ": not terminal at quiescence (" +
                  cg::broker::to_string(record->state) + ")");
        continue;
      }
      ++out_.jobs_terminal;
      if (record->state == JobState::kCompleted) {
        ++out_.jobs_completed;
      } else {
        ++out_.failed_by_code[record->last_error ? record->last_error->code
                                                 : cg::broker::to_string(record->state)];
      }
      if (job.interactive) ++out_.interactive_jobs;
      const auto& ts = record->timestamps;
      if (first_running_s_[i] < 0.0 || !ts.running) continue;
      const double startup = first_running_s_[i] - ts.submitted.to_seconds();
      if (!job.interactive) {
        out_.batch_startup_s.push_back(startup);
        continue;
      }
      out_.interactive_startup_s.push_back(startup);
      if (!job.shared) out_.exclusive_startup_s.push_back(startup);
      if (job.shared && !job.mpi) {
        out_.shared_startup_s.push_back(startup);
        ++shared_ran;
        if (record->placement == cg::broker::PlacementKind::kInteractiveVm) ++shared_on_vm;
      }
      if (ts.discovery_done && ts.selection_done) {
        discovery.push_back((*ts.discovery_done - ts.submitted).to_seconds());
        selection.push_back((*ts.selection_done - *ts.discovery_done).to_seconds());
        dispatch.push_back((*ts.running - *ts.selection_done).to_seconds());
      }
    }
    if (grid_->broker().leases().active_leases() != 0) {
      violation(std::to_string(grid_->broker().leases().active_leases()) +
                " match leases still active at quiescence");
    }
    // Paper-shape guards (Table I / E1, Figs. 6-7).
    if (!out_.shared_startup_s.empty() && !out_.exclusive_startup_s.empty() &&
        !(median(out_.shared_startup_s) < median(out_.exclusive_startup_s))) {
      violation("shared-mode median startup is not below exclusive-mode");
    }
    if (!out_.echo_fast_ms.empty() && !out_.echo_reliable_ms.empty() &&
        !(median(out_.echo_fast_ms) < median(out_.echo_reliable_ms))) {
      violation("fast-mode median echo is not below reliable-mode");
    }

    const auto s0 = Clock::now();
    const cg::obs::MetricsSnapshot snap = grid_->metrics_snapshot();
    const auto s1 = Clock::now();
    const std::string jsonl = grid_->export_trace_jsonl();
    const auto s2 = Clock::now();
    out_.snapshot_ms = seconds_between(s0, s1) * 1e3;
    out_.export_ms = seconds_between(s1, s2) * 1e3;

    const double jobs = static_cast<double>(out_.jobs_submitted);
    const double lines = static_cast<double>(out_.lines_written);
    auto& c = out_.counts;
    c["sim.events"] = static_cast<double>(out_.events);
    c["sim.events_per_job"] = ratio(static_cast<double>(out_.events), jobs);
    c["broker.resubmissions_per_job"] = ratio(family_total(snap, "broker.resubmissions"), jobs);
    c["broker.lease_conflicts_per_job"] =
        ratio(family_total(snap, "broker.lease_conflicts"), jobs);
    c["broker.shared_vm_placement_ratio"] =
        ratio(static_cast<double>(shared_on_vm), static_cast<double>(shared_ran));
    c["broker.discovery_s_p50"] = median(discovery);
    c["broker.selection_s_p50"] = median(selection);
    c["broker.dispatch_s_p50"] = median(dispatch);
    c["broker.match.sites_scanned_per_match"] =
        ratio(family_total(snap, "broker.match.sites_scanned"),
              family_total(snap, "broker.match.sites_scanned", true));
    const double hits = family_total(snap, "broker.match.cache_hits");
    c["broker.match.cache_hit_ratio"] =
        ratio(hits, hits + family_total(snap, "broker.match.cache_misses"));
    c["infosys.index_queries_per_job"] =
        ratio(static_cast<double>(grid_->scenario().infosys().index_queries()), jobs);
    c["infosys.site_queries_per_job"] =
        ratio(static_cast<double>(grid_->scenario().infosys().site_queries()), jobs);
    c["infosys.republishes_per_sim_s"] =
        ratio(labelled_total(snap, "broker.match.cache_invalidations", "reason",
                             {"republish"}),
              out_.sim_s);
    const double sent = family_total(snap, "net.msg.sent");
    c["net.msgs_per_job"] = ratio(sent, jobs);
    c["net.supervision_msgs_per_job"] =
        ratio(labelled_total(snap, "net.msg.sent", "type",
                             {"Heartbeat", "LivenessProbe", "LivenessEcho"}),
              jobs);
    c["net.dropped_ratio"] = ratio(family_total(snap, "net.msg.dropped"), sent);
    c["glidein.agents_per_job"] = ratio(family_total(snap, "broker.agents_deployed"), jobs);
    c["glidein.demotions_per_interactive_job"] =
        ratio(family_total(snap, "glidein.batch_demotions"),
              static_cast<double>(out_.interactive_jobs));
    c["lrms.dispatches_per_job"] = ratio(family_total(snap, "lrms.dispatches"), jobs);
    c["lrms.dispatch_latency_s_p50"] = merged_p50(snap, "lrms.dispatch_latency_s");
    c["stream.flushes_per_line"] = ratio(family_total(snap, "stream.flushes"), lines);
    c["stream.spooled_bytes_per_line"] =
        ratio(family_total(snap, "stream.bytes_spooled"), lines);
    c["stream.retries_per_line"] = ratio(family_total(snap, "stream.retries"), lines);
    c["stream.chunk_pool_high_water"] = static_cast<double>(pool_high_water_);
    c["stream.oversize_allocs"] = family_total(snap, "stream.chunk_pool.oversize_allocs");
    c["stream.frames_dropped"] = family_total(snap, "stream.frames_dropped");
    c["obs.trace_events_per_job"] =
        ratio(static_cast<double>(grid_->tracer().events().size()), jobs);
    c["obs.instruments"] = static_cast<double>(grid_->metrics().instrument_count());
    c["faults.injected"] =
        injector_ ? static_cast<double>(injector_->injected_faults()) : 0.0;

    // The virtual-time digest: trace, instruments, simulated outcomes.
    std::uint64_t h = fnv1a(jsonl);
    h = fnv1a(snap.to_jsonl(), h);
    for (const auto& [name, value] : c) {
      h = fnv1a(name, h);
      h = fnv1a_u64(std::bit_cast<std::uint64_t>(value), h);
    }
    for (const std::vector<double>* v :
         {&out_.interactive_startup_s, &out_.batch_startup_s, &out_.echo_rtt_ms}) {
      for (const double x : *v) h = fnv1a_u64(std::bit_cast<std::uint64_t>(x), h);
    }
    for (const std::uint64_t x :
         {out_.jobs_submitted, out_.jobs_refused, out_.jobs_terminal, out_.jobs_completed,
          out_.lines_written, out_.lines_delivered, out_.lines_lost_in_outages,
          out_.lines_typed, out_.failed_operations}) {
      h = fnv1a_u64(x, h);
    }
    out_.digest = h;
  }

  double merged_p50(const cg::obs::MetricsSnapshot& snap, const std::string& name) {
    cg::obs::Histogram merged;
    for (const auto& s : snap.samples) {
      if (s.name != name) continue;
      if (const auto* hist = grid_->metrics().find_histogram(s.name, s.labels)) {
        merged.merge(*hist);
      }
    }
    return merged.count() > 0 ? merged.percentile(50.0) : 0.0;
  }

  void teardown() {
    // Consoles and fault wiring reference the grid; release them first.
    sessions_.clear();
    resolver_.reset();
    bridge_.reset();
    injector_.reset();
    grid_.reset();
  }

  const Inputs& in_;
  const EpisodeOptions& options_;
  EpisodeResult& out_;
  std::unique_ptr<cg::Grid> grid_;
  std::unique_ptr<cg::sim::FaultInjector> injector_;
  std::unique_ptr<cg::broker::FaultBridge> bridge_;
  std::unique_ptr<InputJobResolver> resolver_;
  std::map<cg::SiteId, std::size_t> site_index_;
  std::vector<JobId> job_ids_;
  std::vector<double> first_running_s_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::size_t pool_high_water_ = 0;
};

}  // namespace

double measure_setup(const Inputs& inputs) {
  EpisodeResult unused;
  const EpisodeOptions options;
  Episode episode{inputs, options, unused};
  return episode.setup_only();
}

EpisodeResult run_episode(const Inputs& inputs, const EpisodeOptions& options) {
  EpisodeResult result;
  Episode episode{inputs, options, result};
  episode.run();
  return result;
}

}  // namespace gridbench
