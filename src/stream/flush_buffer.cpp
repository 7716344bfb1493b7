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

    make_room(take);
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

void FlushBuffer::make_room(std::size_t bytes) {
  if (chunk_ != nullptr) {
    // Nothing buffered and no flushed segment still referenced: the writer
    // is the slab's only holder, so the next segment starts at its front
    // again, on bytes that are still in cache.
    if (buffered_ == 0 && chunk_->refs == 1) chunk_->write_pos = 0;
    if (chunk_->capacity - chunk_->write_pos >= bytes) return;
  }
  // The open segment would overflow the chunk: move it whole into a fresh
  // one. A pool slab holds it if the grown segment fits one; otherwise a
  // one-off chunk of the full capacity does, and it never moves again
  // because a segment flushes before exceeding capacity.
  const std::size_t segment = buffered_ + bytes;
  detail::ChunkHeader* fresh =
      pool_->acquire(segment <= pool_->slab_bytes() ? segment : config_.capacity);
  if (chunk_ != nullptr) {
    std::memcpy(fresh->data(), chunk_->data() + chunk_->write_pos - buffered_,
                buffered_);
    detail::chunk_unref(chunk_);
  }
  fresh->write_pos = static_cast<std::uint32_t>(buffered_);
  chunk_ = fresh;
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
  const std::uint32_t seg_start =
      chunk_->write_pos - static_cast<std::uint32_t>(buffered_);
  ChunkRef out;
  if (buffered_ <= ChunkRef::kInlineCapacity) {
    // Tiny flushes (keystroke echoes, short lines) detach from the chunk so
    // a long-lived consumer cannot pin a whole slab for a few bytes.
    out = ChunkRef::copy_of(
        std::string_view{chunk_->data() + seg_start, buffered_}, *pool_);
  } else {
    out = ChunkRef{chunk_, seg_start, static_cast<std::uint32_t>(buffered_)};
  }
  buffered_ = 0;
  ++flushes_;
  ++reason_counts_[static_cast<std::size_t>(reason)];
  flush_counters_[static_cast<std::size_t>(reason)].inc();
  on_flush_(std::move(out));
}

}  // namespace cg::stream
