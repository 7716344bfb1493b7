// Pooled, reference-counted payload chunks for the interactive streaming
// path. A FlushBuffer packs the segments it flushes back to back into one
// page-sized slab; each flush becomes a ChunkRef — a cheap (24-byte) view of
// the flushed segment — that travels through ReliableChannel / SimChannel
// delivery callbacks to the ConsoleShadow without the payload ever being
// copied. A slab returns to the pool's free list when the last reference to
// any segment in it drops, and a writer left as a slab's only holder rewinds
// it, so the steady-state output path performs zero heap allocations and a
// console's footprint follows the lines in flight, not the lines written (see
// docs/performance.md, "The streaming path").
//
// Single-threaded by design: chunks and refs belong to the simulation side
// (everything runs on one Simulation loop). The real OS-level agents in
// src/interpose use the zero-copy wire views instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace cg::stream {

class ChunkPool;

namespace detail {

/// Header placed in front of every chunk's payload bytes.
struct ChunkHeader {
  ChunkPool* pool;
  std::uint32_t refs;
  std::uint32_t write_pos;  ///< end of the written bytes (writer-owned)
  std::uint32_t capacity;   ///< payload bytes following this header

  [[nodiscard]] char* data() { return reinterpret_cast<char*>(this + 1); }
  [[nodiscard]] const char* data() const {
    return reinterpret_cast<const char*>(this + 1);
  }
};

void chunk_ref(ChunkHeader* chunk);
void chunk_unref(ChunkHeader* chunk);

}  // namespace detail

/// Fixed-size slab allocator with a free list. acquire() pops a recycled slab
/// (or allocates one when the pool is dry — only during warm-up); the last
/// ChunkRef to a chunk pushes it back. Requests larger than the slab size are
/// served by one-off oversize chunks that are freed on release. The default
/// slab is one page: FlushBuffers pack many short segments into each, and only
/// a segment that outgrows a slab pays a heap allocation.
///
/// Under AddressSanitizer a slab's payload is poisoned while it sits on the
/// free list, so a ChunkRef that outlives its chunk's release faults instead
/// of reading whichever segment the recycled slab carries next.
class ChunkPool {
public:
  static constexpr std::size_t kDefaultSlabBytes = 4 * 1024;

  explicit ChunkPool(std::size_t slab_bytes = kDefaultSlabBytes);
  ~ChunkPool();
  ChunkPool(const ChunkPool&) = delete;
  ChunkPool& operator=(const ChunkPool&) = delete;

  /// A fresh chunk (refs = 1, write_pos = 0) with at least `min_bytes` of
  /// payload capacity. Release it with detail::chunk_unref (ChunkRefs do
  /// this automatically).
  [[nodiscard]] detail::ChunkHeader* acquire(std::size_t min_bytes);

  [[nodiscard]] std::size_t slab_bytes() const { return slab_bytes_; }
  /// Slab chunks ever allocated (the pool's footprint).
  [[nodiscard]] std::size_t allocated_chunks() const { return slabs_.size(); }
  [[nodiscard]] std::size_t free_chunks() const { return free_.size(); }
  [[nodiscard]] std::size_t in_use_chunks() const { return in_use_; }
  [[nodiscard]] std::size_t high_water_in_use() const { return high_water_; }
  /// Requests that exceeded the slab size (each one heap-allocates).
  [[nodiscard]] std::size_t oversize_allocations() const { return oversize_; }

  /// Attaches a metrics registry: the "stream.chunk_pool.in_use" and
  /// ".allocated" gauges and the "stream.chunk_pool.oversize_allocs" counter
  /// on top of `labels`. The gauges are sums over every pool bound to the
  /// same series: a pool adds its chunks as it takes them and withdraws what
  /// it still holds when it is detached or destroyed. Must outlive the pool
  /// (or be detached with nullptr).
  void set_metrics(obs::MetricsRegistry* metrics, obs::LabelSet labels = {});

  /// Process-wide fallback pool (default slab size) used by FlushBuffers
  /// whose config names no explicit pool.
  [[nodiscard]] static ChunkPool& shared();

private:
  friend void detail::chunk_unref(detail::ChunkHeader*);

  [[nodiscard]] detail::ChunkHeader* allocate(std::size_t payload_bytes);
  void release(detail::ChunkHeader* chunk);
  /// Adds (sign +1) or withdraws (-1) this pool's chunks to/from the gauges.
  void publish(double sign);

  std::size_t slab_bytes_;
  std::vector<detail::ChunkHeader*> slabs_;  ///< every slab chunk, for teardown
  std::vector<detail::ChunkHeader*> free_;
  std::size_t in_use_ = 0;
  std::size_t high_water_ = 0;
  std::size_t oversize_ = 0;
  struct MetricHandles {
    obs::GaugeHandle in_use;
    obs::GaugeHandle allocated;
    obs::CounterHandle oversize_allocs;
  };
  MetricHandles metrics_;
};

/// A reference-counted view of flushed bytes. Either points into a pooled
/// chunk (copy = refcount bump) or, for payloads of at most kInlineCapacity
/// bytes, stores them inline — small flushes (prompt fragments, single
/// keystroke echoes) never pin a whole slab. Nothrow-movable, 24 bytes, so it
/// rides inline inside InplaceFunction captures and event slab slots.
class ChunkRef {
public:
  static constexpr std::size_t kInlineCapacity = 15;

  ChunkRef() noexcept : chunk_{nullptr} { inline_.len = 0; }

  /// Pooled view over `length` bytes at `offset`; takes one reference.
  ChunkRef(detail::ChunkHeader* chunk, std::uint32_t offset,
           std::uint32_t length) noexcept
      : chunk_{chunk} {
    pooled_.offset = offset;
    pooled_.length = length;
    detail::chunk_ref(chunk_);
  }

  /// Detached copy of `data`: inline when it fits, otherwise in a pooled
  /// chunk of its own from `pool`.
  [[nodiscard]] static ChunkRef copy_of(std::string_view data,
                                        ChunkPool& pool = ChunkPool::shared());

  ChunkRef(const ChunkRef& other) noexcept { copy_from(other); }
  ChunkRef& operator=(const ChunkRef& other) noexcept {
    if (this != &other) {
      release();
      copy_from(other);
    }
    return *this;
  }
  ChunkRef(ChunkRef&& other) noexcept { steal_from(other); }
  ChunkRef& operator=(ChunkRef&& other) noexcept {
    if (this != &other) {
      release();
      steal_from(other);
    }
    return *this;
  }
  ~ChunkRef() { release(); }

  [[nodiscard]] std::string_view view() const {
    return chunk_ != nullptr
               ? std::string_view{chunk_->data() + pooled_.offset, pooled_.length}
               : std::string_view{inline_.bytes, inline_.len};
  }
  [[nodiscard]] const char* data() const { return view().data(); }
  [[nodiscard]] std::size_t size() const {
    return chunk_ != nullptr ? pooled_.length : inline_.len;
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] bool is_inline() const { return chunk_ == nullptr; }
  [[nodiscard]] std::string to_string() const { return std::string{view()}; }

private:
  void copy_from(const ChunkRef& other) noexcept {
    chunk_ = other.chunk_;
    if (chunk_ != nullptr) {
      pooled_ = other.pooled_;
      detail::chunk_ref(chunk_);
    } else {
      inline_ = other.inline_;
    }
  }
  void steal_from(ChunkRef& other) noexcept {
    chunk_ = other.chunk_;
    if (chunk_ != nullptr) {
      pooled_ = other.pooled_;
      other.chunk_ = nullptr;
      other.inline_.len = 0;
    } else {
      inline_ = other.inline_;
    }
  }
  void release() noexcept {
    if (chunk_ != nullptr) {
      detail::chunk_unref(chunk_);
      chunk_ = nullptr;
    }
    inline_.len = 0;
  }

  detail::ChunkHeader* chunk_;  ///< nullptr: inline (or empty) payload
  union {
    struct {
      std::uint32_t offset;
      std::uint32_t length;
    } pooled_;
    struct {
      std::uint8_t len;
      char bytes[kInlineCapacity];
    } inline_;
  };
};

namespace detail {

inline void chunk_ref(ChunkHeader* chunk) {
  if (chunk != nullptr) ++chunk->refs;
}

}  // namespace detail

}  // namespace cg::stream
