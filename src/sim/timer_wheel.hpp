// Hierarchical timer wheel: the event engine's primary lane. An event whose
// tick lies within the horizon ahead of the wheel's drained floor — user
// callbacks and periodic daemon work alike — files here in O(1); four levels
// of 64 slots at a 64 µs tick cover ~18 min of virtual time (the rest takes
// the engine's exact heap lane), and per-level occupancy bitmasks make
// finding the next occupied window a couple of bit scans (the result is
// cached, so the engine's per-pop bound check is one compare). The engine
// raises an empty wheel's floor to the current tick before filing, so the
// floor keeps up with the clock.
//
// The wheel does not fire events itself and it never reorders them: entries
// keep their exact (when, seq) and are *drained* window by window, strictly
// before the engine pops anything at or past the window's start — level-0
// windows hand their entries to the engine's sorted due buffer, upper-level
// windows cascade into lower levels on the way down. The engine therefore
// sees one totally-ordered event stream whatever lane an event travelled —
// determinism (same seed ⇒ same digests) is preserved by construction. See
// docs/performance.md.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cg::sim {

class TimerWheel {
public:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr int kLevels = 4;
  static constexpr int kSlotBits = 6;  ///< 64 slots per level
  static constexpr int kSlotsPerLevel = 1 << kSlotBits;
  /// Tick granularity: 2^6 us. Power of two keeps the slot math shift-only,
  /// and a small tick keeps level-0 windows small — the engine sorts each
  /// drained window, so the tick bounds both the sort size and the bits a
  /// packed due-key needs for the in-window offset. Horizon: 64^4 ticks
  /// ~= 18 minutes of virtual time; later deadlines use the heap lane.
  static constexpr int kTickShift = 6;

  /// Grows per-entry link storage to cover slab indices < `capacity`.
  void ensure_capacity(std::size_t capacity) {
    if (entries_.size() < capacity) entries_.resize(capacity);
  }

  /// Files slab entry `idx` (firing at `when_us`, engine sequence `seq`)
  /// into the wheel. Returns false when the wheel cannot hold it — the tick
  /// already drained or the deadline is past the horizon — and the caller
  /// keeps it in the heap. The (when, seq) key rides the wheel entry so
  /// draining never has to chase the slab. Defined inline: this is the
  /// engine's per-schedule fast path.
  bool insert(std::uint32_t idx, std::int64_t when_us, std::uint64_t seq) {
    const std::int64_t tick = when_us >> kTickShift;
    if (tick < base_tick_) return false;  // window already drained
    // File at the lowest level whose parent digit matches the cursor's.
    // This is stricter than "delta fits the level's span": it guarantees
    // the slot lies within one lap *ahead* of the cursor, so the
    // occupancy-mask rotate in earliest() is exact and a cascade always
    // re-files strictly lower. (A span-based rule admits entries exactly
    // one lap ahead on the cursor's own slot — earliest() would then
    // report a stale window and the cascade would re-file the entry in
    // place, looping forever.) "Lowest level whose parent digit matches"
    // == floor(h / kSlotBits) where h is the highest bit in which tick and
    // the cursor differ — one bit scan instead of a per-level loop.
    const auto diff = static_cast<std::uint64_t>(tick ^ base_tick_);
    const int level =
        diff == 0 ? 0 : (63 - std::countl_zero(diff)) / kSlotBits;
    if (level >= kLevels) return false;  // beyond the horizon
    const std::uint32_t slot =
        static_cast<std::uint32_t>(tick >> (kSlotBits * level)) &
        (kSlotsPerLevel - 1);
    Entry& e = entries_[idx];
    e.when_us = when_us;
    e.seq = seq;
    e.level = static_cast<std::uint8_t>(level);
    e.slot = static_cast<std::uint8_t>(slot);
    e.prev = kNil;
    e.next = heads_[static_cast<std::size_t>(level)][slot];
    if (e.next != kNil) entries_[e.next].prev = idx;
    heads_[static_cast<std::size_t>(level)][slot] = idx;
    occupied_[static_cast<std::size_t>(level)] |= 1ULL << slot;
    e.linked = true;
    ++size_;
    // Keep the cached earliest-window pick exact: a strictly earlier start
    // takes over, and on an equal start the higher level wins — mirroring
    // earliest()'s highest-level-first scan, so a drain cascades
    // upper-level entries before any level-0 window at the same start
    // fires.
    const std::int64_t window_tick =
        (tick >> (kSlotBits * level)) << (kSlotBits * level);
    std::int64_t start_tick = window_tick;
    if (start_tick < base_tick_) start_tick = base_tick_;
    const std::int64_t start_us = start_tick << kTickShift;
    if (start_us < next_start_us_ ||
        (start_us == next_start_us_ && level > next_level_)) {
      next_start_us_ = start_us;
      next_window_tick_ = window_tick;
      next_level_ = level;
    }
    return true;
  }

  /// Raises the drained floor to `tick` (never lowers it). The engine calls
  /// this while the wheel is empty, with the current tick: the floor only
  /// advances as windows drain, and no entry can be filed across a
  /// 2^24-tick boundary, so a wheel that drains empty just below one would
  /// otherwise keep its floor there and send every later deadline to the
  /// heap. Precondition: empty().
  void raise_floor(std::int64_t tick) {
    if (tick > base_tick_) base_tick_ = tick;
  }

  /// Unlinks a pending entry (O(1)); false if it is not in the wheel.
  bool remove(std::uint32_t idx);

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Start (in us) of the earliest occupied slot window: a lower bound on
  /// every pending entry's `when`. INT64_MAX when empty. The engine drains
  /// while this bound does not exceed its next queued event. Cached: insert
  /// min-updates it, remove and drain recompute it.
  [[nodiscard]] std::int64_t next_window_start_us() const {
    return size_ == 0 ? kNoWindow : next_start_us_;
  }

  /// Drains the earliest occupied window: level-0 entries are handed to
  /// `push_due(idx, when_us, seq)` (they fire next, in window-sorted
  /// order); upper-level windows cascade into lower levels, and entries
  /// that no longer fit — window already reached — go to `push_heap(idx)`.
  /// Precondition: !empty().
  template <typename PushDue, typename PushHeap>
  void drain_earliest(PushDue&& push_due, PushHeap&& push_heap) {
    // The earliest window (level and tick, not just its start) is cached by
    // insert/remove/recompute, so entering a drain costs no bit scan.
    const int level = next_level_;
    const std::int64_t window_tick = next_window_tick_;
    const std::uint32_t slot =
        static_cast<std::uint32_t>(window_tick >> (kSlotBits * level)) &
        (kSlotsPerLevel - 1);
    std::uint32_t idx = heads_[static_cast<std::size_t>(level)][slot];
    heads_[static_cast<std::size_t>(level)][slot] = kNil;
    occupied_[static_cast<std::size_t>(level)] &= ~(1ULL << slot);
    if (level == 0) {
      // The window is done: everything in it fires via the due buffer.
      base_tick_ = window_tick + 1;
      while (idx != kNil) {
        Entry& e = entries_[idx];
        const std::uint32_t next = e.next;
        // Entries are scattered across the slab; overlapping the next
        // line's fetch with this entry's handoff hides most of the miss.
        if (next != kNil) __builtin_prefetch(&entries_[next]);
        e.linked = false;
        --size_;
        push_due(idx, e.when_us, e.seq);
        idx = next;
      }
    } else {
      // Cascade: the wheel's floor advances to this window, so every entry
      // re-files at a strictly lower level (or the heap).
      if (base_tick_ < window_tick) base_tick_ = window_tick;
      while (idx != kNil) {
        Entry& e = entries_[idx];
        const std::uint32_t next = e.next;
        if (next != kNil) __builtin_prefetch(&entries_[next]);
        e.linked = false;
        --size_;
        if (!insert(idx, e.when_us, e.seq)) push_heap(idx);
        idx = next;
      }
    }
    recompute_next_start();
  }

private:
  struct Entry {
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    std::int64_t when_us = 0;
    std::uint64_t seq = 0;
    std::uint8_t level = 0;
    std::uint8_t slot = 0;
    bool linked = false;
  };

  static constexpr std::int64_t kNoWindow = 0x7fffffffffffffff;

  /// Locates the level and window tick of the earliest occupied window.
  void earliest(int& level, std::int64_t& window_tick) const;
  /// Refreshes the cached earliest-window bound from the occupancy masks.
  void recompute_next_start();

  std::int64_t base_tick_ = 0;  ///< first tick not yet drained
  std::int64_t next_start_us_ = kNoWindow;  ///< cached earliest-window start
  std::int64_t next_window_tick_ = 0;  ///< cached earliest window (unclamped)
  int next_level_ = 0;                 ///< cached earliest window's level
  std::size_t size_ = 0;
  std::array<std::uint64_t, kLevels> occupied_{};
  std::array<std::array<std::uint32_t, kSlotsPerLevel>, kLevels> heads_ =
      make_nil_heads();
  std::vector<Entry> entries_;

  static constexpr std::array<std::array<std::uint32_t, kSlotsPerLevel>,
                              kLevels>
  make_nil_heads() {
    std::array<std::array<std::uint32_t, kSlotsPerLevel>, kLevels> heads{};
    for (auto& level : heads) {
      for (auto& head : level) head = kNil;
    }
    return heads;
  }
};

}  // namespace cg::sim
