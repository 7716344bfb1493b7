// The Grid Console (Section 4): a split-execution system made of Console
// Agents (one per sequential/MPICH-P4 job, one per MPICH-G2 subjob) on the
// worker nodes and a Console Shadow / Job Shadow on the user's machine.
// Agents trap the application's stdio and forward it over GSI-secured
// channels; the shadow merges subjob output through its own flush buffer and
// fans typed input lines out to every subjob.
//
// Output payloads travel as pooled ChunkRefs end to end: the agent's flush
// buffer hands the shadow a view of the same chunk it filled, so relaying a
// frame performs no per-hop payload copy or heap allocation. Every buffer in
// a console packs its lines into the console's page-sized slabs, so a
// console holds a few slabs whatever it prints; only a segment longer than a
// page takes a one-off chunk.
//
// This is the *simulated* console used by the grid-side experiments; the
// real OS-level implementation lives in src/interpose.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "jdl/job_description.hpp"
#include "obs/observability.hpp"
#include "sim/disk.hpp"
#include "stream/channel_model.hpp"
#include "stream/chunk.hpp"
#include "stream/flush_buffer.hpp"
#include "stream/reliable_channel.hpp"

namespace cg::stream {

enum class StdStream { kStdout, kStderr };

struct GridConsoleConfig {
  jdl::StreamingMode mode = jdl::StreamingMode::kFast;
  ChannelSpec channel_spec = ChannelSpec::interposition_fast();
  FlushBufferConfig agent_buffer{};   ///< per-subjob output buffer on the WN
  FlushBufferConfig shadow_buffer{};  ///< Job Shadow buffer on the UI machine
  RetryPolicy retry{};
  /// Optional observability bundle (must outlive the console): flush-reason
  /// and spool counters, per-rank dropped-frame counts, and trace events
  /// (kFrameDropped / kReconnected) under `job`'s track.
  obs::Observability* obs = nullptr;
  JobId job{};  ///< trace track for the console's events
};

class ConsoleShadow;

/// One Console Agent: runs beside a subjob on a worker node, buffers its
/// stdout/stderr and relays them to the shadow; delivers forwarded stdin.
class ConsoleAgent {
public:
  using InputHandler = std::function<void(std::string line)>;

  ConsoleAgent(sim::Simulation& sim, int rank, const GridConsoleConfig& config,
               SimChannel uplink, sim::DiskModel* wn_disk, ConsoleShadow& shadow);
  ~ConsoleAgent();
  ConsoleAgent(const ConsoleAgent&) = delete;
  ConsoleAgent& operator=(const ConsoleAgent&) = delete;

  [[nodiscard]] int rank() const { return rank_; }

  /// The application writes to its (trapped) stdout/stderr.
  void write_stdout(std::string_view data);
  void write_stderr(std::string_view data);

  /// Fault injection (kAgentWedge): while wedged, the agent's relay loop is
  /// stalled. Fast mode loses every flushed frame exactly as on a down link
  /// (same counters, same kFrameDropped events, same reconnect report on
  /// unwedge) — the silent-loss gap a healthy link otherwise hides.
  void set_wedged(bool wedged) { wedged_ = wedged; }
  [[nodiscard]] bool wedged() const { return wedged_; }

  /// Flushes any buffered output (job exit).
  void close();

  /// The application's stdin handler (it is the user's responsibility that
  /// only one rank actually consumes input — the paper's rank-0 convention).
  void set_input_handler(InputHandler handler);

  /// Called by the shadow's input channel on delivery.
  void deliver_input(std::string line);

  [[nodiscard]] std::size_t output_bytes_lost() const { return lost_bytes_; }
  /// Fast-mode frames lost to a down link (each lost frame is one flushed
  /// buffer that never reached the shadow).
  [[nodiscard]] std::size_t frames_dropped() const { return frames_dropped_; }
  [[nodiscard]] bool failed() const { return failed_; }

private:
  friend class ConsoleShadow;
  void dispatch(StdStream stream, ChunkRef data);
  void on_fast_frame_lost(std::size_t lost);
  void report_drops_on_reconnect();

  sim::Simulation& sim_;
  int rank_;
  const GridConsoleConfig& config_;
  sim::DiskModel* wn_disk_;
  SimChannel uplink_;
  std::unique_ptr<ReliableChannel> reliable_uplink_;
  std::unique_ptr<FlushBuffer> out_buffer_;
  std::unique_ptr<FlushBuffer> err_buffer_;
  InputHandler input_handler_;
  ConsoleShadow& shadow_;
  std::size_t lost_bytes_ = 0;
  std::size_t frames_dropped_ = 0;
  /// Drops since the last successful delivery; reported to the shadow (and
  /// reset) when the link heals.
  std::size_t pending_dropped_frames_ = 0;
  std::size_t pending_dropped_bytes_ = 0;
  bool failed_ = false;
  bool wedged_ = false;
  /// Pre-resolved per-rank counters (inert without config.obs): these fire
  /// on the frame relay path and must not pay a registry lookup per frame.
  struct MetricHandles {
    obs::CounterHandle spool_full;
    obs::CounterHandle frames_dropped;
    obs::CounterHandle reconnects;
  };
  MetricHandles metrics_;
};

/// The Console/Job Shadow on the submitting machine.
class ConsoleShadow {
public:
  /// Receives merged, flush-policy-shaped output ready for the screen.
  /// Allocation-free flavour: the sink borrows the shadow buffer's chunk.
  using ChunkSink = util::InplaceFunction<void(ChunkRef data), 48>;
  /// String-copy convenience flavour (tests, examples).
  using ScreenSink = std::function<void(std::string data)>;
  /// Observes raw per-subjob frames before merging (tests, logging). The
  /// view borrows the agent's chunk; copy it to retain past the call.
  using FrameObserver = std::function<void(int rank, StdStream, std::string_view)>;
  /// Fired when a reliable channel exhausts retries (the job gets killed).
  using FatalHandler = std::function<void(int rank)>;

  ConsoleShadow(sim::Simulation& sim, GridConsoleConfig config,
                sim::DiskModel* ui_disk, ChunkSink sink);
  ConsoleShadow(sim::Simulation& sim, GridConsoleConfig config,
                sim::DiskModel* ui_disk, ScreenSink sink);
  ~ConsoleShadow() = default;
  ConsoleShadow(const ConsoleShadow&) = delete;
  ConsoleShadow& operator=(const ConsoleShadow&) = delete;

  /// Registers an agent's downlink (shadow -> agent) for input forwarding.
  void attach_agent(ConsoleAgent& agent, SimChannel downlink);

  /// The user typed a line and hit Enter: forwarded to every subjob
  /// (Section 4: "the input will be forwarded to every subjob").
  void type_line(std::string line);

  /// Incoming output frame from an agent (borrows the agent's chunk).
  void on_output_frame(int rank, StdStream stream, const ChunkRef& data);

  void set_frame_observer(FrameObserver observer) { frame_observer_ = std::move(observer); }
  void set_fatal_handler(FatalHandler handler) { fatal_handler_ = std::move(handler); }

  [[nodiscard]] const GridConsoleConfig& config() const { return config_; }
  [[nodiscard]] std::size_t frames_received() const { return frames_; }
  [[nodiscard]] std::size_t lines_typed() const { return lines_typed_; }
  /// Fast-mode frames its agents dropped during link outages, as reported
  /// when the link heals. The user-facing answer to "did I see everything?".
  [[nodiscard]] std::size_t frames_dropped() const { return frames_dropped_; }
  /// Number of reconnect reports received (one per healed outage per agent).
  [[nodiscard]] std::size_t drop_reports() const { return drop_reports_; }

private:
  friend class ConsoleAgent;
  void init(sim::DiskModel* ui_disk);
  void agent_failed(int rank);
  /// An agent's uplink healed after dropping fast-mode frames.
  void on_agent_reconnected(int rank, std::size_t frames, std::size_t bytes);

  struct AgentLink {
    ConsoleAgent* agent;
    std::unique_ptr<SimChannel> downlink;
    std::unique_ptr<ReliableChannel> reliable_downlink;
  };

  sim::Simulation& sim_;
  GridConsoleConfig config_;
  sim::DiskModel* ui_disk_;
  ChunkSink sink_;
  std::unique_ptr<FlushBuffer> screen_buffer_;
  std::vector<AgentLink> agents_;
  FrameObserver frame_observer_;
  FatalHandler fatal_handler_;
  std::size_t frames_ = 0;
  std::size_t lines_typed_ = 0;
  std::size_t frames_dropped_ = 0;
  std::size_t drop_reports_ = 0;
};

/// Convenience bundle: a shadow plus its agents for one (possibly parallel)
/// interactive job. Owns all components, including the chunk pool (default,
/// one-page slabs) every flush buffer in the console draws from.
class GridConsole {
public:
  GridConsole(sim::Simulation& sim, sim::Network& network, GridConsoleConfig config,
              std::string ui_endpoint, ConsoleShadow::ScreenSink sink, Rng rng);
  GridConsole(sim::Simulation& sim, sim::Network& network, GridConsoleConfig config,
              std::string ui_endpoint, ConsoleShadow::ChunkSink sink, Rng rng);

  /// Adds a Console Agent on a worker-node endpoint; returns its reference.
  ConsoleAgent& add_agent(int rank, const std::string& wn_endpoint);

  [[nodiscard]] ConsoleShadow& shadow() { return *shadow_; }
  [[nodiscard]] ConsoleAgent& agent(std::size_t i) { return *agents_.at(i); }
  [[nodiscard]] std::size_t agent_count() const { return agents_.size(); }
  /// Disks used by the reliable mode (exposed for experiment bookkeeping).
  [[nodiscard]] sim::DiskModel& ui_disk() { return ui_disk_; }
  [[nodiscard]] sim::DiskModel& wn_disk(std::size_t i) { return *wn_disks_.at(i); }
  [[nodiscard]] ChunkPool& chunk_pool() { return pool_; }

private:
  void init_pool();

  sim::Simulation& sim_;
  sim::Network& network_;
  GridConsoleConfig config_;
  std::string ui_endpoint_;
  Rng rng_;
  sim::DiskModel ui_disk_;
  ChunkPool pool_;  ///< shared by every agent/shadow flush buffer
  std::unique_ptr<ConsoleShadow> shadow_;
  std::vector<std::unique_ptr<sim::DiskModel>> wn_disks_;
  std::vector<std::unique_ptr<ConsoleAgent>> agents_;
};

}  // namespace cg::stream
