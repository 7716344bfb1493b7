#include "stream/flush_buffer.hpp"

#include <stdexcept>

namespace cg::stream {

const char* to_string(FlushReason reason) {
  switch (reason) {
    case FlushReason::kCapacity: return "capacity";
    case FlushReason::kNewline: return "newline";
    case FlushReason::kTimeout: return "timeout";
    case FlushReason::kExplicit: return "explicit";
  }
  return "?";
}

FlushBuffer::FlushBuffer(sim::Simulation& sim, FlushBufferConfig config,
                         FlushFn on_flush)
    : sim_{sim},
      config_{config},
      pool_{config.pool != nullptr ? config.pool : &ChunkPool::shared()},
      on_flush_{std::move(on_flush)} {
  if (config_.capacity == 0) throw std::invalid_argument{"capacity must be > 0"};
  if (!on_flush_) throw std::invalid_argument{"null flush callback"};
}

FlushBuffer::~FlushBuffer() {
  if (chunk_ != nullptr) detail::chunk_unref(chunk_);
}

void FlushBuffer::set_metrics(obs::MetricsRegistry* metrics,
                              obs::LabelSet labels) {
  for (std::size_t i = 0; i < flush_counters_.size(); ++i) {
    if (metrics == nullptr) {
      flush_counters_[i] = obs::CounterHandle{};
      continue;
    }
    obs::LabelSet with_reason = labels;
    with_reason.set("reason", to_string(static_cast<FlushReason>(i)));
    flush_counters_[i] =
        metrics->counter_handle("stream.flushes", std::move(with_reason));
  }
}

void FlushBuffer::append(std::string_view data) {
  while (!data.empty()) {
    const std::size_t room = config_.capacity - buffered_;
    std::size_t take = std::min(room, data.size());

    // End-of-line trigger: cut the chunk at the first newline so the line
    // (including its '\n') goes out immediately.
    bool newline_flush = false;
    if (config_.flush_on_newline) {
      const std::size_t nl = data.substr(0, take).find('\n');
      if (nl != std::string_view::npos) {
        take = nl + 1;
        newline_flush = true;
      }
    }

    ensure_segment_chunk();
    std::memcpy(chunk_->data() + chunk_->write_pos, data.data(), take);
    chunk_->write_pos += static_cast<std::uint32_t>(take);
    buffered_ += take;
    data.remove_prefix(take);

    if (buffered_ >= config_.capacity || newline_flush) {
      emit(newline_flush ? FlushReason::kNewline : FlushReason::kCapacity);
    } else if (buffered_ != 0 && !timer_.armed()) {
      arm_timeout();
    }
  }
}

void FlushBuffer::ensure_segment_chunk() {
  // Mid-segment appends always fit: the segment reserved `capacity` bytes of
  // room when it opened, and a segment flushes before exceeding capacity.
  if (buffered_ > 0) return;
  if (chunk_ != nullptr &&
      chunk_->capacity - chunk_->write_pos >= config_.capacity) {
    seg_start_ = chunk_->write_pos;
    return;
  }
  detail::ChunkHeader* fresh =
      pool_->acquire(std::max(config_.capacity, pool_->slab_bytes()));
  if (chunk_ != nullptr) detail::chunk_unref(chunk_);
  chunk_ = fresh;
  seg_start_ = 0;
}

void FlushBuffer::flush() {
  if (buffered_ > 0) emit(FlushReason::kExplicit);
}

void FlushBuffer::arm_timeout() {
  timer_.rearm(sim_, sim_.schedule(config_.timeout, [this] {
    if (buffered_ > 0) emit(FlushReason::kTimeout);
  }));
}

void FlushBuffer::emit(FlushReason reason) {
  timer_.reset();
  ChunkRef out;
  if (buffered_ <= ChunkRef::kInlineCapacity) {
    // Tiny flushes (keystroke echoes, short lines) detach from the chunk so
    // a long-lived consumer cannot pin a whole slab for a few bytes.
    out = ChunkRef::copy_of(
        std::string_view{chunk_->data() + seg_start_, buffered_}, *pool_);
  } else {
    out = ChunkRef{chunk_, static_cast<std::uint32_t>(seg_start_),
                   static_cast<std::uint32_t>(buffered_)};
  }
  seg_start_ += buffered_;
  buffered_ = 0;
  ++flushes_;
  ++reason_counts_[static_cast<std::size_t>(reason)];
  flush_counters_[static_cast<std::size_t>(reason)].inc();
  on_flush_(std::move(out));
}

}  // namespace cg::stream
