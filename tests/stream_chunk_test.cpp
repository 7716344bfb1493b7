// Pooled chunk buffer, inline ring, and spool-ring tests: the allocation-free
// building blocks of the interactive streaming path (see docs/performance.md,
// "The streaming path").
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "sim/disk.hpp"
#include "stream/chunk.hpp"
#include "stream/flush_buffer.hpp"
#include "stream/grid_console.hpp"
#include "stream/spool.hpp"
#include "util/ring.hpp"

namespace cg::stream {
namespace {

using namespace cg::literals;

// ------------------------------------------------------------- chunk refs ----

TEST(ChunkRefTest, SmallPayloadsStayInline) {
  ChunkPool pool{4096};
  const ChunkRef ref = ChunkRef::copy_of("prompt> ", pool);
  EXPECT_TRUE(ref.is_inline());
  EXPECT_EQ(ref.view(), "prompt> ");
  // Inline refs never touch the pool.
  EXPECT_EQ(pool.allocated_chunks(), 0u);
  EXPECT_EQ(pool.in_use_chunks(), 0u);
}

TEST(ChunkRefTest, InlineCapacityBoundary) {
  ChunkPool pool{4096};
  const std::string at_cap(ChunkRef::kInlineCapacity, 'a');
  const std::string over_cap(ChunkRef::kInlineCapacity + 1, 'b');
  const ChunkRef small = ChunkRef::copy_of(at_cap, pool);
  const ChunkRef large = ChunkRef::copy_of(over_cap, pool);
  EXPECT_TRUE(small.is_inline());
  EXPECT_FALSE(large.is_inline());
  EXPECT_EQ(small.view(), at_cap);
  EXPECT_EQ(large.view(), over_cap);
  EXPECT_EQ(pool.allocated_chunks(), 1u);
}

TEST(ChunkRefTest, CopySharesChunkAndLastReferenceRecycles) {
  ChunkPool pool{4096};
  const std::string payload(100, 'x');
  {
    ChunkRef a = ChunkRef::copy_of(payload, pool);
    EXPECT_EQ(pool.in_use_chunks(), 1u);
    {
      const ChunkRef b = a;  // refcount bump, same chunk
      ChunkRef c = std::move(a);
      EXPECT_EQ(pool.in_use_chunks(), 1u);
      EXPECT_EQ(b.view(), payload);
      EXPECT_EQ(c.view(), payload);
      EXPECT_EQ(b.data(), c.data());  // literally the same bytes
    }
    EXPECT_EQ(pool.in_use_chunks(), 0u);  // a was moved from, b/c released
    EXPECT_EQ(pool.free_chunks(), 1u);
  }
  // A later acquisition reuses the recycled slab instead of allocating.
  const ChunkRef d = ChunkRef::copy_of(payload, pool);
  EXPECT_EQ(pool.allocated_chunks(), 1u);
  EXPECT_EQ(pool.free_chunks(), 0u);
}

TEST(ChunkRefTest, MoveAssignmentReleasesOldTarget) {
  ChunkPool pool{4096};
  ChunkRef a = ChunkRef::copy_of(std::string(50, 'a'), pool);
  ChunkRef b = ChunkRef::copy_of(std::string(60, 'b'), pool);
  EXPECT_EQ(pool.in_use_chunks(), 2u);
  a = std::move(b);  // a's original chunk must be released
  EXPECT_EQ(pool.in_use_chunks(), 1u);
  EXPECT_EQ(a.size(), 60u);
}

TEST(ChunkPoolTest, OversizeRequestsAreOneOff) {
  ChunkPool pool{256};
  EXPECT_EQ(pool.oversize_allocations(), 0u);
  {
    const ChunkRef big = ChunkRef::copy_of(std::string(1000, 'z'), pool);
    EXPECT_EQ(big.size(), 1000u);
    EXPECT_EQ(pool.oversize_allocations(), 1u);
  }
  // Oversize chunks are freed on release, not pooled.
  EXPECT_EQ(pool.free_chunks(), 0u);
  EXPECT_EQ(pool.allocated_chunks(), 0u);
}

TEST(ChunkPoolTest, HighWaterTracksPeakOccupancy) {
  ChunkPool pool{128};
  std::vector<ChunkRef> refs;
  for (int i = 0; i < 5; ++i) {
    refs.push_back(ChunkRef::copy_of(std::string(100, 'x'), pool));
  }
  refs.clear();
  EXPECT_EQ(pool.in_use_chunks(), 0u);
  EXPECT_EQ(pool.high_water_in_use(), 5u);
  EXPECT_EQ(pool.free_chunks(), 5u);
}

TEST(ChunkPoolTest, DefaultSlabIsOnePage) {
  EXPECT_EQ(ChunkPool::kDefaultSlabBytes, 4096u);
  EXPECT_EQ(ChunkPool{}.slab_bytes(), ChunkPool::kDefaultSlabBytes);
}

#if defined(__SANITIZE_ADDRESS__)
/// A refcount slip: the chunk goes back to the free list while a ref still
/// views it. The next buffer to take the slab would overwrite these bytes;
/// ASan must stop the read instead.
void read_through_released_chunk() {
  ChunkPool pool{256};
  detail::ChunkHeader* chunk = pool.acquire(64);
  std::memset(chunk->data(), 'x', 64);
  chunk->write_pos = 64;
  const ChunkRef ref{chunk, 0, 64};
  detail::chunk_unref(chunk);
  detail::chunk_unref(chunk);
  const std::string stale = ref.to_string();
  std::fprintf(stderr, "read %zu stale bytes\n", stale.size());
}
#endif

TEST(ChunkPoolTest, ReadThroughAReleasedChunkIsCaughtUnderAsan) {
#if defined(__SANITIZE_ADDRESS__)
  EXPECT_DEATH(read_through_released_chunk(), "use-after-poison");
#else
  GTEST_SKIP() << "free-slab poisoning is only observable under AddressSanitizer";
#endif
}

// ----------------------------------------------------- flush buffer + pool ----

TEST(ChunkFlushTest, FlushedSegmentsBorrowThePool) {
  sim::Simulation sim;
  ChunkPool pool{4096};
  FlushBufferConfig config;
  config.capacity = 32;
  config.pool = &pool;
  std::vector<ChunkRef> flushed;
  FlushBuffer buf{sim, config,
                  FlushBuffer::FlushFn{[&](ChunkRef data) {
                    flushed.push_back(std::move(data));
                  }}};
  buf.append("first line\n");
  buf.append("second line\n");
  ASSERT_EQ(flushed.size(), 2u);
  EXPECT_EQ(flushed[0].view(), "first line\n");
  EXPECT_EQ(flushed[1].view(), "second line\n");
  // Both segments fit the same 4 KiB chunk: one slab serves many flushes.
  EXPECT_EQ(pool.allocated_chunks(), 1u);
}

TEST(ChunkFlushTest, SegmentThatOutgrowsItsSlabMovesWhole) {
  sim::Simulation sim;
  ChunkPool pool{64};
  FlushBufferConfig config;
  config.capacity = 64;
  config.pool = &pool;
  std::vector<ChunkRef> flushed;
  FlushBuffer buf{sim, config,
                  FlushBuffer::FlushFn{[&](ChunkRef data) {
                    flushed.push_back(std::move(data));
                  }}};
  const std::string first = std::string(40, 'a') + "\n";
  buf.append(first);  // slab A: [0, 41)
  ASSERT_EQ(flushed.size(), 1u);
  // 20 bytes still fit slab A; the next 11 do not, so the open segment
  // moves to a fresh slab and the line flushes from there in one piece.
  buf.append(std::string(20, 'b'));
  EXPECT_EQ(pool.allocated_chunks(), 1u);
  buf.append(std::string(10, 'c') + "\n");
  ASSERT_EQ(flushed.size(), 2u);
  EXPECT_EQ(flushed[0].view(), first);
  EXPECT_EQ(flushed[1].view(), std::string(20, 'b') + std::string(10, 'c') + "\n");
  EXPECT_EQ(pool.allocated_chunks(), 2u);
  // The writer let go of slab A when the segment moved: dropping the last
  // ref to its first line returns it to the free list.
  EXPECT_EQ(pool.free_chunks(), 0u);
  flushed.erase(flushed.begin());
  EXPECT_EQ(pool.free_chunks(), 1u);
  EXPECT_EQ(pool.in_use_chunks(), 1u);
  EXPECT_EQ(pool.oversize_allocations(), 0u);
}

TEST(ChunkFlushTest, SegmentLargerThanASlabUsesOneOneOffChunk) {
  sim::Simulation sim;
  ChunkPool pool{64};
  FlushBufferConfig config;
  config.capacity = 256;
  config.pool = &pool;
  std::vector<ChunkRef> flushed;
  std::string line;
  {
    FlushBuffer buf{sim, config,
                    FlushBuffer::FlushFn{[&](ChunkRef data) {
                      flushed.push_back(std::move(data));
                    }}};
    // Four 50-byte writes build one 201-byte line: the second write
    // outgrows the 64-byte slab, so the segment moves to a one-off chunk of
    // the buffer's capacity and stays there.
    for (const char c : {'p', 'q', 'r', 's'}) {
      const std::string piece(50, c);
      line += piece;
      buf.append(piece);
    }
    line += '\n';
    buf.append("\n");
    ASSERT_EQ(flushed.size(), 1u);
    EXPECT_EQ(flushed[0].view(), line);
    EXPECT_EQ(pool.oversize_allocations(), 1u);
  }
  // The buffer is gone; the flushed line still pins the one-off chunk.
  EXPECT_EQ(pool.in_use_chunks(), 1u);
  flushed.clear();
  // Freed, not pooled: only the first slab is left, back on the free list.
  EXPECT_EQ(pool.in_use_chunks(), 0u);
  EXPECT_EQ(pool.allocated_chunks(), 1u);
  EXPECT_EQ(pool.free_chunks(), 1u);
  EXPECT_EQ(pool.oversize_allocations(), 1u);
}

TEST(ChunkFlushTest, IdleBufferRewindsItsSlab) {
  // Every line is consumed as it flushes, so when the next one is appended
  // the writer holds the slab alone and starts it again at the front.
  sim::Simulation sim;
  ChunkPool pool{4096};
  FlushBufferConfig config;
  config.capacity = 256;
  config.pool = &pool;
  std::vector<const char*> starts;
  std::size_t bad_lines = 0;
  const std::string line = std::string(41, 'x') + "\n";
  FlushBuffer buf{sim, config,
                  FlushBuffer::FlushFn{[&](ChunkRef data) {
                    if (data.view() != line) ++bad_lines;
                    starts.push_back(data.data());
                  }}};
  for (int i = 0; i < 500; ++i) buf.append(line);
  ASSERT_EQ(starts.size(), 500u);
  EXPECT_EQ(bad_lines, 0u);
  EXPECT_EQ(std::count(starts.begin(), starts.end(), starts.front()), 500);
  EXPECT_EQ(pool.allocated_chunks(), 1u);
  EXPECT_EQ(pool.high_water_in_use(), 1u);
}

TEST(ChunkFlushTest, InFlightSegmentIsNeverOverwritten) {
  // A flushed line still referenced keeps its bytes: later appends pack
  // behind it (and move to a fresh slab), never over it.
  sim::Simulation sim;
  ChunkPool pool{128};
  FlushBufferConfig config;
  config.capacity = 128;
  config.pool = &pool;
  std::vector<ChunkRef> kept;
  std::size_t seen = 0;
  FlushBuffer buf{sim, config,
                  FlushBuffer::FlushFn{[&](ChunkRef data) {
                    if (seen++ == 0) kept.push_back(std::move(data));
                  }}};
  const std::string first = "first line, kept in flight\n";
  buf.append(first);
  ASSERT_EQ(kept.size(), 1u);
  const char* const at = kept[0].data();
  for (int i = 0; i < 50; ++i) {
    buf.append("later line number " + std::to_string(i) + "\n");
    EXPECT_EQ(kept[0].view(), first);
  }
  EXPECT_EQ(seen, 51u);
  EXPECT_EQ(kept[0].data(), at);
  EXPECT_EQ(kept[0].view(), first);
  // The kept line pins its slab; the writer holds the one it went on in.
  EXPECT_EQ(pool.in_use_chunks(), 2u);
}

TEST(ChunkFlushTest, ConsoleBurstPacksIntoAFewSlabs) {
  // 200 lines written before virtual time runs are all in flight at once.
  // Packed into one-page slabs they pin two agent slabs plus the shadow's.
  sim::Simulation sim;
  sim::Network network{Rng{3}};
  network.add_link("ui", "wn0", sim::LinkSpec::campus());
  std::string screen;
  GridConsole console{sim, network, GridConsoleConfig{}, "ui",
                      [&](std::string data) { screen += data; }, Rng{5}};
  ConsoleAgent& agent = console.add_agent(0, "wn0");
  std::string expected;
  for (int i = 0; i < 200; ++i) {
    char line[64];
    const int n = std::snprintf(line, sizeof line, "line %03d: burst output\n", i);
    ASSERT_GT(n, static_cast<int>(ChunkRef::kInlineCapacity));
    expected.append(line, static_cast<std::size_t>(n));
    agent.write_stdout(std::string_view{line, static_cast<std::size_t>(n)});
  }
  EXPECT_LE(console.chunk_pool().in_use_chunks(), 3u);
  sim.run();
  EXPECT_EQ(screen, expected);
  EXPECT_LE(console.chunk_pool().high_water_in_use(), 3u);
  EXPECT_EQ(console.chunk_pool().oversize_allocations(), 0u);
}

// ------------------------------------------------------------------- ring ----

TEST(RingTest, FifoOrderAcrossGrowth) {
  util::Ring<int> ring;
  EXPECT_TRUE(ring.empty());
  for (int i = 0; i < 100; ++i) ring.push_back(i);
  EXPECT_EQ(ring.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ring.front(), i);
    ring.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(RingTest, WraparoundKeepsIndicesStable) {
  // Interleave pushes and pops so head/tail lap the backing buffer several
  // times without triggering growth (capacity stays at the minimum of 8).
  util::Ring<int> ring;
  int next_push = 0;
  int next_pop = 0;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 5; ++i) ring.push_back(next_push++);
    for (int i = 0; i < 5; ++i) {
      ASSERT_EQ(ring.front(), next_pop);
      // Front-relative indexing must agree with front()/pop order.
      for (std::size_t j = 0; j < ring.size(); ++j) {
        ASSERT_EQ(ring[j], next_pop + static_cast<int>(j));
      }
      ring.pop_front();
      ++next_pop;
    }
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 8u);  // never grew
}

TEST(RingTest, GrowthMidWrapPreservesOrder) {
  util::Ring<int> ring;
  for (int i = 0; i < 8; ++i) ring.push_back(i);   // full at min capacity
  for (int i = 0; i < 4; ++i) ring.pop_front();    // head mid-buffer
  for (int i = 8; i < 20; ++i) ring.push_back(i);  // forces wrap, then growth
  EXPECT_EQ(ring.size(), 16u);
  for (int i = 4; i < 20; ++i) {
    ASSERT_EQ(ring.front(), i);
    ring.pop_front();
  }
}

TEST(RingTest, PopResetsSlotToDefault) {
  // Popped slots must release held resources immediately: a ChunkRef left in
  // a ring slot would pin its chunk until the slot is overwritten.
  ChunkPool pool{4096};
  util::Ring<ChunkRef> ring;
  ring.push_back(ChunkRef::copy_of(std::string(100, 'x'), pool));
  EXPECT_EQ(pool.in_use_chunks(), 1u);
  ring.pop_front();
  EXPECT_EQ(pool.in_use_chunks(), 0u);
}

// ------------------------------------------------------------- spool ring ----

TEST(SpoolTest, OverflowWraparoundFillAckRefill) {
  // Satellite regression: the spool's per-entry bookkeeping lives in an
  // inline ring. Fill past capacity, ack from the head, refill — many times
  // over, so ring indices wrap the backing buffer repeatedly and capacity
  // accounting stays exact throughout.
  sim::DiskModel disk;
  Spool spool{disk};
  spool.set_capacity(1000);
  std::size_t next_push = 0;
  std::size_t next_ack = 0;
  // Distinct sizes (300 + seq % 7) let front_bytes() prove FIFO identity.
  const auto size_of = [](std::size_t seq) { return 300 + seq % 7; };
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(spool.try_push(size_of(next_push)).has_value());
    ++next_push;
  }
  for (int round = 0; round < 20; ++round) {
    // Full: a fourth ~300-byte entry would exceed the 1000-byte cap.
    EXPECT_FALSE(spool.try_push(size_of(next_push)).has_value());
    EXPECT_EQ(spool.depth(), 3u);
    // Ack the head; the freed space admits exactly one more append.
    EXPECT_EQ(spool.front_bytes(), size_of(next_ack));
    spool.pop_acknowledged();
    ++next_ack;
    ASSERT_TRUE(spool.try_push(size_of(next_push)).has_value());
    ++next_push;
  }
  EXPECT_EQ(spool.rejected_appends(), 20u);
  // Drain completely; FIFO identity held across every wraparound.
  while (!spool.empty()) {
    EXPECT_EQ(spool.front_bytes(), size_of(next_ack));
    spool.pop_acknowledged();
    ++next_ack;
  }
  EXPECT_EQ(next_ack, next_push);
  EXPECT_EQ(spool.pending_bytes(), 0u);
}

TEST(SpoolTest, CoalescedAppendIsOneEntry) {
  sim::DiskModel disk;
  Spool spool{disk};
  const Duration batched = spool.push(3000, 3);
  EXPECT_EQ(spool.depth(), 1u);  // one ring entry, one disk op
  EXPECT_EQ(disk.write_ops(), 1u);
  EXPECT_EQ(spool.total_messages(), 3u);
  EXPECT_EQ(spool.total_spooled(), 3000u);
  // One 3000-byte sequential write beats three 1000-byte writes: the
  // per-operation overhead is paid once.
  sim::DiskModel fresh;
  Spool single{fresh};
  const Duration three = single.push(1000) + single.push(1000) + single.push(1000);
  EXPECT_LT(batched.count_micros(), three.count_micros());
}

}  // namespace
}  // namespace cg::stream
