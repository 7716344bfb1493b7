#include "stream/grid_console.hpp"

#include <stdexcept>

#include "util/log.hpp"

namespace cg::stream {

// ---------------------------------------------------------------- agent ----

ConsoleAgent::ConsoleAgent(sim::Simulation& sim, int rank,
                           const GridConsoleConfig& config, SimChannel uplink,
                           sim::DiskModel* wn_disk, ConsoleShadow& shadow)
    : sim_{sim},
      rank_{rank},
      config_{config},
      wn_disk_{wn_disk},
      uplink_{std::move(uplink)},
      shadow_{shadow} {
  if (config_.obs != nullptr) {
    const obs::LabelSet rank_labels{{"rank", std::to_string(rank_)}};
    metrics_.spool_full =
        config_.obs->metrics.counter_handle("stream.spool_full", rank_labels);
    metrics_.frames_dropped =
        config_.obs->metrics.counter_handle("stream.frames_dropped", rank_labels);
    metrics_.reconnects =
        config_.obs->metrics.counter_handle("stream.reconnects", rank_labels);
  }
  if (config_.mode == jdl::StreamingMode::kReliable) {
    if (wn_disk == nullptr) {
      throw std::invalid_argument{"reliable mode requires a worker-node disk"};
    }
    reliable_uplink_ = std::make_unique<ReliableChannel>(
        sim_, uplink_, *wn_disk, shadow.ui_disk_, config_.retry);
    reliable_uplink_->set_give_up_handler([this] {
      failed_ = true;
      shadow_.agent_failed(rank_);
    });
    reliable_uplink_->set_spool_reject_handler([this](std::size_t bytes) {
      if (config_.obs == nullptr) return;
      metrics_.spool_full.inc();
      config_.obs->tracer.record(
          sim_.now(), config_.job, obs::TraceEventKind::kSpoolFull,
          std::to_string(bytes) + " byte append rejected; retrying",
          obs::LabelSet{{"rank", std::to_string(rank_)}});
    });
  }
  out_buffer_ = std::make_unique<FlushBuffer>(
      sim_, config_.agent_buffer, FlushBuffer::FlushFn{[this](ChunkRef data) {
        dispatch(StdStream::kStdout, std::move(data));
      }});
  err_buffer_ = std::make_unique<FlushBuffer>(
      sim_, config_.agent_buffer, FlushBuffer::FlushFn{[this](ChunkRef data) {
        dispatch(StdStream::kStderr, std::move(data));
      }});
  if (config_.obs != nullptr) {
    const obs::LabelSet labels{{"rank", std::to_string(rank_)},
                               {"side", "agent"}};
    out_buffer_->set_metrics(&config_.obs->metrics, labels);
    err_buffer_->set_metrics(&config_.obs->metrics, labels);
    if (reliable_uplink_) {
      reliable_uplink_->set_metrics(&config_.obs->metrics, labels);
    }
  }
}

ConsoleAgent::~ConsoleAgent() = default;

void ConsoleAgent::write_stdout(std::string_view data) {
  out_buffer_->append(data);
}

void ConsoleAgent::write_stderr(std::string_view data) {
  err_buffer_->append(data);
}

void ConsoleAgent::close() {
  out_buffer_->flush();
  err_buffer_->flush();
}

void ConsoleAgent::set_input_handler(InputHandler handler) {
  input_handler_ = std::move(handler);
}

void ConsoleAgent::deliver_input(std::string line) {
  if (input_handler_) input_handler_(std::move(line));
}

void ConsoleAgent::dispatch(StdStream stream, ChunkRef data) {
  const std::size_t bytes = data.size();
  if (wedged_ && !reliable_uplink_) {
    // A stalled relay loop loses fast-mode frames just like a down link —
    // the application keeps writing, nobody forwards.
    on_fast_frame_lost(bytes);
    return;
  }
  // 40-byte capture (this + stream + 24-byte ChunkRef): rides inline in the
  // channel's delivery slot; the payload itself is never copied.
  auto deliver = [this, stream, data = std::move(data)](std::size_t) {
    // A delivery after drops means the link healed: tell the shadow how
    // much of the stream it missed.
    if (pending_dropped_frames_ > 0) report_drops_on_reconnect();
    shadow_.on_output_frame(rank_, stream, data);
  };
  if (reliable_uplink_) {
    reliable_uplink_->send(bytes, std::move(deliver));
  } else {
    uplink_.send(bytes, std::move(deliver), [this](std::size_t lost) {
      // Fast mode: data on a down link is simply gone (Section 3: "the data
      // may be lost in case of network failure").
      on_fast_frame_lost(lost);
    });
  }
}

void ConsoleAgent::on_fast_frame_lost(std::size_t lost) {
  lost_bytes_ += lost;
  ++frames_dropped_;
  ++pending_dropped_frames_;
  pending_dropped_bytes_ += lost;
  if (config_.obs != nullptr) {
    metrics_.frames_dropped.inc();
    config_.obs->tracer.record(
        sim_.now(), config_.job, obs::TraceEventKind::kFrameDropped,
        std::to_string(lost) + " bytes lost on down link",
        obs::LabelSet{{"rank", std::to_string(rank_)}});
  }
}

void ConsoleAgent::report_drops_on_reconnect() {
  const std::size_t frames = pending_dropped_frames_;
  const std::size_t bytes = pending_dropped_bytes_;
  pending_dropped_frames_ = 0;
  pending_dropped_bytes_ = 0;
  if (config_.obs != nullptr) {
    metrics_.reconnects.inc();
    config_.obs->tracer.record(
        sim_.now(), config_.job, obs::TraceEventKind::kReconnected,
        "link healed after dropping " + std::to_string(frames) + " frames (" +
            std::to_string(bytes) + " bytes)",
        obs::LabelSet{{"rank", std::to_string(rank_)}});
  }
  shadow_.on_agent_reconnected(rank_, frames, bytes);
}

// --------------------------------------------------------------- shadow ----

ConsoleShadow::ConsoleShadow(sim::Simulation& sim, GridConsoleConfig config,
                             sim::DiskModel* ui_disk, ChunkSink sink)
    : sim_{sim}, config_{std::move(config)}, ui_disk_{ui_disk}, sink_{std::move(sink)} {
  init(ui_disk);
}

ConsoleShadow::ConsoleShadow(sim::Simulation& sim, GridConsoleConfig config,
                             sim::DiskModel* ui_disk, ScreenSink sink)
    : sim_{sim},
      config_{std::move(config)},
      ui_disk_{ui_disk},
      sink_{sink ? ChunkSink{[fn = std::move(sink)](ChunkRef data) {
              fn(data.to_string());
            }}
                 : ChunkSink{}} {
  init(ui_disk);
}

void ConsoleShadow::init(sim::DiskModel* ui_disk) {
  if (!sink_) throw std::invalid_argument{"ConsoleShadow: null screen sink"};
  if (config_.mode == jdl::StreamingMode::kReliable && ui_disk == nullptr) {
    throw std::invalid_argument{"reliable mode requires a UI-machine disk"};
  }
  screen_buffer_ = std::make_unique<FlushBuffer>(
      sim_, config_.shadow_buffer,
      FlushBuffer::FlushFn{[this](ChunkRef data) { sink_(std::move(data)); }});
  if (config_.obs != nullptr) {
    screen_buffer_->set_metrics(&config_.obs->metrics,
                                obs::LabelSet{{"side", "shadow"}});
  }
}

void ConsoleShadow::attach_agent(ConsoleAgent& agent, SimChannel downlink) {
  AgentLink link;
  link.agent = &agent;
  link.downlink = std::make_unique<SimChannel>(std::move(downlink));
  if (config_.mode == jdl::StreamingMode::kReliable) {
    link.reliable_downlink = std::make_unique<ReliableChannel>(
        sim_, *link.downlink, *ui_disk_, agent.wn_disk_, config_.retry);
    const int rank = agent.rank();
    link.reliable_downlink->set_give_up_handler([this, rank] { agent_failed(rank); });
  }
  agents_.push_back(std::move(link));
}

void ConsoleShadow::type_line(std::string line) {
  ++lines_typed_;
  // Forwarding happens when Enter is hit; ensure the newline is present.
  if (line.empty() || line.back() != '\n') line += '\n';
  for (auto& link : agents_) {
    ConsoleAgent* agent = link.agent;
    auto deliver = [agent, line](std::size_t) { agent->deliver_input(line); };
    if (link.reliable_downlink) {
      link.reliable_downlink->send(line.size(), std::move(deliver));
    } else {
      link.downlink->send(line.size(), std::move(deliver));
    }
  }
}

void ConsoleShadow::on_output_frame(int rank, StdStream stream,
                                    const ChunkRef& data) {
  ++frames_;
  if (frame_observer_) frame_observer_(rank, stream, data.view());
  screen_buffer_->append(data.view());
}

void ConsoleShadow::agent_failed(int rank) {
  log_warn("stream", "console agent rank ", rank, " exhausted retries");
  if (fatal_handler_) fatal_handler_(rank);
}

void ConsoleShadow::on_agent_reconnected(int rank, std::size_t frames,
                                         std::size_t bytes) {
  frames_dropped_ += frames;
  ++drop_reports_;
  log_warn("stream", "rank ", rank, " reconnected: ", frames,
           " fast-mode frame(s) (", bytes,
           " bytes) were dropped while the link was down");
}

// -------------------------------------------------------------- console ----

GridConsole::GridConsole(sim::Simulation& sim, sim::Network& network,
                         GridConsoleConfig config, std::string ui_endpoint,
                         ConsoleShadow::ScreenSink sink, Rng rng)
    : sim_{sim},
      network_{network},
      config_{std::move(config)},
      ui_endpoint_{std::move(ui_endpoint)},
      rng_{std::move(rng)} {
  init_pool();
  shadow_ = std::make_unique<ConsoleShadow>(
      sim_, config_,
      config_.mode == jdl::StreamingMode::kReliable ? &ui_disk_ : nullptr,
      std::move(sink));
}

GridConsole::GridConsole(sim::Simulation& sim, sim::Network& network,
                         GridConsoleConfig config, std::string ui_endpoint,
                         ConsoleShadow::ChunkSink sink, Rng rng)
    : sim_{sim},
      network_{network},
      config_{std::move(config)},
      ui_endpoint_{std::move(ui_endpoint)},
      rng_{std::move(rng)} {
  init_pool();
  shadow_ = std::make_unique<ConsoleShadow>(
      sim_, config_,
      config_.mode == jdl::StreamingMode::kReliable ? &ui_disk_ : nullptr,
      std::move(sink));
}

void GridConsole::init_pool() {
  // Every flush buffer in this console (agents + shadow) draws from one
  // pool, so a console's slabs recycle across its sessions.
  config_.agent_buffer.pool = &pool_;
  config_.shadow_buffer.pool = &pool_;
  if (config_.obs != nullptr) {
    pool_.set_metrics(&config_.obs->metrics, obs::LabelSet{});
  }
}

ConsoleAgent& GridConsole::add_agent(int rank, const std::string& wn_endpoint) {
  sim::Link& link = network_.link(ui_endpoint_, wn_endpoint);
  wn_disks_.push_back(std::make_unique<sim::DiskModel>());
  sim::DiskModel* wn_disk =
      config_.mode == jdl::StreamingMode::kReliable ? wn_disks_.back().get() : nullptr;

  auto agent = std::make_unique<ConsoleAgent>(
      sim_, rank, config_, SimChannel{sim_, link, config_.channel_spec, rng_.fork()},
      wn_disk, *shadow_);
  shadow_->attach_agent(*agent,
                        SimChannel{sim_, link, config_.channel_spec, rng_.fork()});
  agents_.push_back(std::move(agent));
  return *agents_.back();
}

}  // namespace cg::stream
