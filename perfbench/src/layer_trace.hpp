// Per-layer host-time attribution measured from outside the program. The
// traced episode drives Simulation::step() one event at a time with a
// monotonic clock around each step, and charges the step's time to exactly
// one layer, decided by which public signals the step moved:
//
//   1. the benchmark's own timed calls into a layer (submit, parse, console
//      writes, typed lines) are charged to that layer;
//   2. the rest of the step goes, in this order of precedence, to
//        broker  - a job-lifecycle event reached the JobTracer,
//        glidein - an agent event (deployed/suspected/restored/died/misses),
//        stream  - a streaming event, or a stream.* counter moved,
//        lrms    - an lrms.* counter or queue gauge moved, or a workload
//                  phase finished,
//        infosys - a republish invalidated a cached machine ad,
//        net     - a control-plane message was sent or delivered
//                  (net.msg.sent / net.msg.delivered);
//   3. a step that moved none of these is charged to `other`.
//
// Everything is charged in integer nanoseconds, so the layers plus `other`
// sum exactly to the total step time.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common.hpp"
#include "grid/grid.hpp"

namespace gridbench {

enum class Layer : std::uint8_t {
  kBroker,
  kGlidein,
  kStream,
  kLrms,
  kInfosys,
  kNet,
  kJdl,
  kOther,
};
inline constexpr std::size_t kLayerCount = 8;
[[nodiscard]] const char* to_string(Layer layer);

/// The benchmark's own calls into a layer's public functions.
enum class Call : std::uint8_t {
  kParse,       ///< jdl::JobDescription::parse
  kSubmit,      ///< cg::Grid::submit
  kConsoleOpen, ///< GridConsole construction + agent attach
  kWrite,       ///< ConsoleAgent::write_stdout
  kTypeLine,    ///< ConsoleShadow::type_line
  kConsoleClose, ///< ConsoleAgent::close + GridConsole teardown
};
inline constexpr std::size_t kCallCount = 6;
[[nodiscard]] const char* to_string(Call call);
[[nodiscard]] Layer layer_of(Call call);

/// One recorded span: a phase of the episode or a benchmark call into a
/// layer. Kept in memory, written out when the run ends.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  ///< since the trace started
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;   ///< index into the span list, -1 for a root
  std::uint64_t job = 0;      ///< broker job id (0: none)
};

class LayerTrace {
public:
  /// Subscribes to `grid`'s tracer; the grid must outlive the trace.
  explicit LayerTrace(cg::Grid& grid);
  ~LayerTrace();
  LayerTrace(const LayerTrace&) = delete;
  LayerTrace& operator=(const LayerTrace&) = delete;

  /// Runs the simulation until no non-daemon event remains (the exact stop
  /// rule of Simulation::run), one attributed step at a time.
  void run();

  /// Marks that a workload phase finished in the current step (the LRMS
  /// task runner's public phase observer).
  void note_lrms_phase() { bench_signal_lrms_ = true; }

  /// Times a benchmark call into a layer. Nested inside a step, its time
  /// is charged to the call's layer instead of the step's.
  template <typename F>
  decltype(auto) call(Call call, std::uint64_t job, F&& fn) {
    const auto start = Clock::now();
    if constexpr (std::is_void_v<std::invoke_result_t<F&>>) {
      fn();
      finish_call(call, job, start);
    } else {
      decltype(auto) result = fn();
      finish_call(call, job, start);
      return result;
    }
  }

  /// Opens / closes an episode-phase span ("run", "checks").
  std::int32_t open_span(const char* name);
  void close_span(std::int32_t index);

  struct Result {
    std::array<std::int64_t, kLayerCount> layer_ns{};
    std::int64_t step_ns = 0;  ///< sum over steps; == sum of layer_ns
    std::uint64_t steps = 0;
    std::array<std::vector<double>, kCallCount> call_ns;
    std::size_t pending_high_water = 0;
    std::size_t broker_queue_high_water = 0;
    std::size_t in_flight_high_water = 0;
    std::size_t agents_high_water = 0;
    std::size_t lrms_queue_high_water = 0;
  };
  [[nodiscard]] const Result& result() const { return result_; }

  /// JSON lines, one span per line.
  [[nodiscard]] std::string spans_jsonl() const;

private:
  void finish_call(Call call, std::uint64_t job, Clock::time_point start);
  void resolve_instruments();
  [[nodiscard]] double signal_sum(Layer layer) const;
  [[nodiscard]] std::size_t lrms_queue_depth() const;

  cg::Grid& grid_;
  cg::obs::JobTracer::SubscriptionId subscription_ = 0;
  Clock::time_point origin_;
  /// Layers whose tracer events fired during the current step (bitmask).
  std::uint32_t tracer_mask_ = 0;
  bool bench_signal_lrms_ = false;
  bool in_step_ = false;
  std::array<std::int64_t, kLayerCount> step_calls_ns_{};
  std::int32_t run_span_ = -1;
  std::size_t resolved_instruments_ = 0;
  std::vector<const cg::obs::Counter*> counters_[kLayerCount];
  std::vector<const cg::obs::Gauge*> gauges_[kLayerCount];
  Result result_;
  std::vector<Span> spans_;
  std::size_t call_spans_ = 0;
};

/// The trace of the episode being run, or null (untraced episodes).
[[nodiscard]] LayerTrace* active_trace();
void set_active_trace(LayerTrace* trace);

/// Calls `fn`, timed and attributed when a trace is active.
template <typename F>
decltype(auto) call_into(Call call, std::uint64_t job, F&& fn) {
  if (LayerTrace* trace = active_trace(); trace != nullptr) {
    return trace->call(call, job, std::forward<F>(fn));
  }
  return fn();
}

}  // namespace gridbench
