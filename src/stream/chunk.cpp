#include "stream/chunk.hpp"

#include <algorithm>
#include <cstring>
#include <new>
#include <stdexcept>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace cg::stream {

namespace {

// ASan cannot see reuse inside the pool: a slab on the free list is live heap
// memory to it. Poisoning the payload while the slab is free turns a read
// through a dangling ChunkRef into a report instead of some later line's bytes.
void poison_payload([[maybe_unused]] detail::ChunkHeader* chunk) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(chunk->data(), chunk->capacity);
#endif
}

void unpoison_payload([[maybe_unused]] detail::ChunkHeader* chunk) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(chunk->data(), chunk->capacity);
#endif
}

}  // namespace

namespace detail {

void chunk_unref(ChunkHeader* chunk) {
  if (chunk != nullptr && --chunk->refs == 0) chunk->pool->release(chunk);
}

}  // namespace detail

ChunkPool::ChunkPool(std::size_t slab_bytes) : slab_bytes_{slab_bytes} {
  if (slab_bytes_ == 0) {
    throw std::invalid_argument{"ChunkPool: slab_bytes must be > 0"};
  }
  if (slab_bytes_ > UINT32_MAX) {
    throw std::invalid_argument{"ChunkPool: slab_bytes exceeds chunk limit"};
  }
}

ChunkPool::~ChunkPool() {
  publish(-1.0);
  // Chunks reference the pool; by construction (FlushBuffers and in-flight
  // ChunkRefs are torn down first) everything is back on the free list here.
  for (detail::ChunkHeader* slab : slabs_) {
    unpoison_payload(slab);
    ::operator delete(slab);
  }
}

ChunkPool& ChunkPool::shared() {
  static ChunkPool pool;
  return pool;
}

detail::ChunkHeader* ChunkPool::allocate(std::size_t payload_bytes) {
  void* raw = ::operator new(sizeof(detail::ChunkHeader) + payload_bytes);
  return ::new (raw) detail::ChunkHeader{
      this, 1, 0, static_cast<std::uint32_t>(payload_bytes)};
}

detail::ChunkHeader* ChunkPool::acquire(std::size_t min_bytes) {
  detail::ChunkHeader* chunk;
  if (min_bytes <= slab_bytes_) {
    if (!free_.empty()) {
      chunk = free_.back();
      free_.pop_back();
      unpoison_payload(chunk);
      chunk->refs = 1;
      chunk->write_pos = 0;
    } else {
      chunk = allocate(slab_bytes_);
      slabs_.push_back(chunk);
      // Every slab may be on the free list at once; reserving here keeps
      // release() allocation-free however the in-use count fluctuates.
      free_.reserve(slabs_.size());
      metrics_.allocated.add(1.0);
    }
  } else {
    if (min_bytes > UINT32_MAX) {
      throw std::invalid_argument{"ChunkPool: chunk request too large"};
    }
    chunk = allocate(min_bytes);
    ++oversize_;
    metrics_.oversize_allocs.inc();
  }
  ++in_use_;
  metrics_.in_use.add(1.0);
  high_water_ = std::max(high_water_, in_use_);
  return chunk;
}

void ChunkPool::release(detail::ChunkHeader* chunk) {
  --in_use_;
  metrics_.in_use.add(-1.0);
  if (chunk->capacity == slab_bytes_) {
    poison_payload(chunk);
    free_.push_back(chunk);
  } else {
    ::operator delete(chunk);  // oversize one-off (header is trivial)
  }
}

void ChunkPool::set_metrics(obs::MetricsRegistry* metrics, obs::LabelSet labels) {
  publish(-1.0);
  metrics_ = MetricHandles{};
  if (metrics == nullptr) return;
  metrics_.in_use = metrics->gauge_handle("stream.chunk_pool.in_use", labels);
  metrics_.allocated = metrics->gauge_handle("stream.chunk_pool.allocated", labels);
  metrics_.oversize_allocs =
      metrics->counter_handle("stream.chunk_pool.oversize_allocs", std::move(labels));
  publish(1.0);
}

void ChunkPool::publish(double sign) {
  metrics_.in_use.add(sign * static_cast<double>(in_use_));
  metrics_.allocated.add(sign * static_cast<double>(slabs_.size()));
}

ChunkRef ChunkRef::copy_of(std::string_view data, ChunkPool& pool) {
  ChunkRef ref;
  if (data.size() <= kInlineCapacity) {
    ref.inline_.len = static_cast<std::uint8_t>(data.size());
    if (!data.empty()) std::memcpy(ref.inline_.bytes, data.data(), data.size());
    return ref;
  }
  detail::ChunkHeader* chunk = pool.acquire(data.size());
  std::memcpy(chunk->data(), data.data(), data.size());
  chunk->write_pos = static_cast<std::uint32_t>(data.size());
  ref.chunk_ = chunk;  // adopts the acquire() reference
  ref.pooled_.offset = 0;
  ref.pooled_.length = static_cast<std::uint32_t>(data.size());
  return ref;
}

}  // namespace cg::stream
