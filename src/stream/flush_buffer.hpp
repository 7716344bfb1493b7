// Output buffering with the paper's three flush triggers (Section 4):
//   1. the buffer fills,
//   2. a timeout elapses since the first unflushed byte,
//   3. an end-of-line arrives.
// Used on each executing machine (per-subjob output buffer) and on the
// submitting machine (Job Shadow buffer flushed to the screen).
//
// The buffer writes directly into pooled chunks (see chunk.hpp): append() is
// a single pass over the input — each byte is copied exactly once into the
// current chunk — and every flush hands out a ChunkRef view of the flushed
// segment instead of a freshly allocated string, so the steady-state flush
// path never touches the heap.
#pragma once

#include <array>
#include <cstring>
#include <string_view>

#include "obs/metrics.hpp"
#include "sim/simulation.hpp"
#include "stream/chunk.hpp"
#include "util/inplace_function.hpp"

namespace cg::stream {

struct FlushBufferConfig {
  std::size_t capacity = 64 * 1024;
  Duration timeout = Duration::millis(200);
  bool flush_on_newline = true;
  /// Chunk pool backing the buffer's segments (nullptr = ChunkPool::shared()).
  /// Must outlive the buffer and every ChunkRef it flushes.
  ChunkPool* pool = nullptr;
};

/// Which of the paper's triggers caused a flush (plus the explicit flush()
/// call used on job exit).
enum class FlushReason { kCapacity, kNewline, kTimeout, kExplicit };

[[nodiscard]] const char* to_string(FlushReason reason);

class FlushBuffer {
public:
  using FlushFn = util::InplaceFunction<void(ChunkRef), 48>;

  FlushBuffer(sim::Simulation& sim, FlushBufferConfig config, FlushFn on_flush);
  ~FlushBuffer();
  FlushBuffer(const FlushBuffer&) = delete;
  FlushBuffer& operator=(const FlushBuffer&) = delete;

  /// Appends data, applying the flush policy. A single append may trigger
  /// multiple flushes (e.g. data larger than the capacity).
  void append(std::string_view data);

  /// Forces out any buffered data (job exit, explicit flush).
  void flush();

  [[nodiscard]] std::size_t buffered() const { return buffered_; }
  [[nodiscard]] std::size_t flush_count() const { return flushes_; }
  /// Flushes attributable to one trigger.
  [[nodiscard]] std::size_t flush_count(FlushReason reason) const {
    return reason_counts_[static_cast<std::size_t>(reason)];
  }
  [[nodiscard]] const FlushBufferConfig& config() const { return config_; }

  /// Attaches a metrics registry: every flush increments
  /// "stream.flushes"{reason=...} on top of `labels`. Must outlive the
  /// buffer (or be detached with nullptr).
  void set_metrics(obs::MetricsRegistry* metrics, obs::LabelSet labels = {});

private:
  void ensure_segment_chunk();
  void arm_timeout();
  void emit(FlushReason reason);

  sim::Simulation& sim_;
  FlushBufferConfig config_;
  ChunkPool* pool_;  ///< resolved (config_.pool or the shared pool)
  FlushFn on_flush_;
  /// Current write chunk (one writer reference held) and the open segment:
  /// bytes [seg_start_, seg_start_ + buffered_) are appended-but-unflushed.
  /// A segment never spans chunks — a fresh segment only opens in a chunk
  /// with at least `capacity` bytes of room.
  detail::ChunkHeader* chunk_ = nullptr;
  std::size_t seg_start_ = 0;
  std::size_t buffered_ = 0;
  std::size_t flushes_ = 0;
  std::array<std::size_t, 4> reason_counts_{};
  sim::ScopedTimer timer_;
  /// One pre-resolved counter handle per FlushReason (inert when detached);
  /// emit() runs on every interactive output line, so it must not rebuild
  /// the reason label per flush.
  std::array<obs::CounterHandle, 4> flush_counters_;
};

}  // namespace cg::stream
