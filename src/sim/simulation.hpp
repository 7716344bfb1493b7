// Discrete-event simulation engine. Single-threaded, deterministic: events at
// equal timestamps fire in scheduling order (a monotonic sequence number
// breaks ties). Every grid-side experiment in this repository runs on this
// engine in virtual time.
//
// Hot-loop design (see docs/performance.md, "Event engine"):
//  * events live in a slab of reusable slots; a free list recycles them, so
//    the steady-state schedule/fire path performs zero heap allocations
//    (callbacks are small-buffer-optimized InplaceFunctions);
//  * every in-horizon event rides a hierarchical timer wheel (O(1) insert/
//    unlink); windows drain — strictly before anything at or past their
//    start could fire — into a small sorted "due" buffer that events pop
//    from, so the common event never touches a comparison heap at all;
//  * an event scheduled into the window the due buffer holds (a zero or
//    sub-tick delay from a firing event) joins that buffer at its (when,
//    seq) place;
//  * an index-addressable 4-ary min-heap over inline (when, seq) keys picks
//    up the overflow: deadlines past the wheel horizon and the rare event
//    scheduled into another already-drained tick;
//  * the merged stream is totally (when, seq)-ordered whatever lane an
//    event travelled, and cancellation is *true* removal — O(1) unlink
//    (wheel/due), O(log n) (heap) — via generation-checked handles: no
//    tombstone maps, and pending_events() is exact.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/timer_wheel.hpp"
#include "util/inplace_function.hpp"
#include "util/time.hpp"

namespace cg::sim {

/// Token identifying a scheduled event; used to cancel timers (retry loops,
/// match leases, flush timeouts). Generation-checked: a handle whose slot
/// was recycled by a later event no longer cancels anything.
class EventHandle {
public:
  constexpr EventHandle() = default;
  [[nodiscard]] constexpr bool valid() const { return seq_ != 0; }
  [[nodiscard]] constexpr std::uint64_t seq() const { return seq_; }
  constexpr bool operator==(const EventHandle&) const = default;

private:
  friend class Simulation;
  constexpr EventHandle(std::uint32_t slot, std::uint32_t gen, std::uint64_t seq)
      : slot_{slot}, gen_{gen}, seq_{seq} {}
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
  std::uint64_t seq_ = 0;
};

/// The virtual clock and event queue.
class Simulation {
public:
  /// Event callbacks are small-buffer-optimized: captures up to 48 bytes
  /// (a `this` pointer plus a handful of ids/durations) are stored inline
  /// in the event slab; larger captures fall back to one heap allocation.
  using Callback = util::InplaceFunction<void(), 48>;

  /// Gates the template schedule overloads to genuine callables so that
  /// Callback values (and nullptr) keep taking the Callback overloads.
  template <typename F>
  using EnableIfCallable = std::enable_if_t<
      !std::is_same_v<std::decay_t<F>, Callback> &&
      std::is_invocable_r_v<void, std::decay_t<F>&>>;

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` to run `delay` after the current time. Negative delays
  /// are clamped to zero (fire "now", after already-queued events at now).
  EventHandle schedule(Duration delay, Callback fn);

  /// Schedules `fn` at an absolute time (clamped to now if in the past).
  EventHandle schedule_at(SimTime when, Callback fn);

  /// Schedules a *daemon* event: periodic maintenance work (information-
  /// system publication, supervision ticks, fair-share updates) that
  /// must not keep the simulation alive. run()/run_until() stop once only
  /// daemon events remain.
  EventHandle schedule_daemon(Duration delay, Callback fn);

  /// Fast-path overloads for plain callables (the common case): the lambda
  /// is constructed directly in its slab slot instead of passing through a
  /// temporary Callback. Semantics match the Callback overloads exactly.
  template <typename F, typename = EnableIfCallable<F>>
  EventHandle schedule(Duration delay, F&& fn) {
    if (delay.is_negative()) delay = Duration::zero();
    return emplace_event(now_ + delay, /*daemon=*/false, std::forward<F>(fn));
  }
  template <typename F, typename = EnableIfCallable<F>>
  EventHandle schedule_at(SimTime when, F&& fn) {
    return emplace_event(when, /*daemon=*/false, std::forward<F>(fn));
  }
  template <typename F, typename = EnableIfCallable<F>>
  EventHandle schedule_daemon(Duration delay, F&& fn) {
    if (delay.is_negative()) delay = Duration::zero();
    return emplace_event(now_ + delay, /*daemon=*/true, std::forward<F>(fn));
  }

  /// Cancels a pending event. Returns true if the event had not yet fired.
  bool cancel(EventHandle handle);

  /// Runs until the queue is empty. Returns the number of events processed.
  std::size_t run();

  /// Runs until the queue is empty or the clock passes `deadline`. Events at
  /// exactly `deadline` are processed.
  std::size_t run_until(SimTime deadline);

  /// Processes a single event. Returns false if the queue was empty.
  bool step();

  [[nodiscard]] bool empty() const;
  /// Exact count of pending non-daemon events (cancellation removes events
  /// immediately; there are no stale queue entries to overcount).
  [[nodiscard]] std::size_t pending_events() const;

  /// Total events processed since construction.
  [[nodiscard]] std::size_t processed_events() const { return processed_; }

private:
  static constexpr std::uint32_t kNil = TimerWheel::kNil;

  enum class Lane : std::uint8_t { kFree, kHeap, kWheel };

  struct Slot {
    std::int64_t when_us = 0;
    std::uint64_t seq = 0;
    Callback fn;
    std::uint32_t gen = 0;
    std::uint32_t heap_pos = kNil;
    Lane lane = Lane::kFree;
    bool daemon = false;
  };

  /// Heap nodes carry the ordering key inline: sifting compares (when, seq)
  /// without touching the slab.
  struct HeapNode {
    std::int64_t when_us;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// Due-buffer entries pack (when, seq) into one word: every entry in a
  /// level-0 window shares its tick, so the in-window microsecond offset
  /// fits in kTickShift bits and the sequence number keeps the remaining
  /// 64 - kTickShift low bits (engines would need ~10^17 schedules to
  /// overflow them). One-word keys make the per-window sort compare and
  /// move half as much data as HeapNode would.
  struct DueNode {
    std::uint64_t key;
    std::uint32_t idx;
  };
  static constexpr int kDueDeltaShift = 64 - TimerWheel::kTickShift;
  static constexpr std::uint64_t kDueSeqMask =
      (std::uint64_t{1} << kDueDeltaShift) - 1;

  EventHandle schedule_impl(SimTime when, Callback fn, bool daemon);

  /// Books a slot at `when` and files it into a lane; the callback is
  /// constructed in place by the caller-supplied callable.
  template <typename F>
  EventHandle emplace_event(SimTime when, bool daemon, F&& fn) {
    if constexpr (std::is_pointer_v<std::decay_t<F>> ||
                  std::is_member_pointer_v<std::decay_t<F>>) {
      if (!fn) throw std::invalid_argument{"Simulation::schedule: null callback"};
    }
    if (when < now_) when = now_;
    const std::uint32_t idx = acquire_slot();
    Slot& s = slots_[idx];
    s.when_us = when.count_micros();
    s.seq = next_seq_++;
    s.fn.assign(std::forward<F>(fn));
    s.daemon = daemon;
    if (daemon) {
      ++pending_daemon_;
    } else {
      ++pending_user_;
    }
    file_event(idx);
    return EventHandle{idx, s.gen, s.seq};
  }

  /// Files a booked slot into a lane. Every in-horizon deadline rides the
  /// wheel (O(1) insert/cancel); a deadline in the window the due buffer
  /// holds joins it; anything else — another drained tick, or past the
  /// horizon — goes to the heap, which is always exact. An empty wheel
  /// first raises its floor to the current tick, so the horizon keeps
  /// moving with the clock.
  void file_event(std::uint32_t idx) {
    Slot& s = slots_[idx];
    if (wheel_.empty()) {
      wheel_.raise_floor(now_.count_micros() >> TimerWheel::kTickShift);
    }
    if (wheel_.insert(idx, s.when_us, s.seq)) {
      s.lane = Lane::kWheel;
    } else if (!join_due(idx)) {
      heap_push(idx);
    }
  }
  /// Files `idx`, which the wheel refused, into the due buffer when its
  /// tick is the buffer's window, or the current tick while the buffer is
  /// empty (the wheel refused it, so that tick has drained). False: the
  /// caller files it into the heap.
  bool join_due(std::uint32_t idx);

  std::uint32_t acquire_slot() {
    if (!free_slots_.empty()) {
      const std::uint32_t idx = free_slots_.back();
      free_slots_.pop_back();
      return idx;
    }
    return acquire_slot_grow();
  }
  std::uint32_t acquire_slot_grow();
  void release_slot(std::uint32_t idx) {
    Slot& s = slots_[idx];
    s.fn = nullptr;
    ++s.gen;  // invalidates every outstanding handle to this slot
    s.lane = Lane::kFree;
    s.heap_pos = kNil;
    free_slots_.push_back(idx);
  }

  void heap_push(std::uint32_t idx);
  void heap_remove_at(std::uint32_t pos);
  void sift_up(std::uint32_t pos);
  void sift_down(std::uint32_t pos);

  /// Drains the wheel's earliest window: level-0 entries join the due
  /// buffer in (when, seq) order, cascade leftovers fall back to the heap.
  void drain_wheel_window();
  /// The globally next event's node (slot == kNil when the queue is empty).
  /// Drains the wheel until the front of due/heap is provably the minimum.
  HeapNode peek_next();
  /// Removes `idx` (the current due/heap front) from the queue and runs it.
  void fire(std::uint32_t idx);

  SimTime now_;
  std::uint64_t next_seq_ = 1;
  std::size_t processed_ = 0;
  std::size_t pending_user_ = 0;    ///< non-daemon pending events
  std::size_t pending_daemon_ = 0;  ///< daemon pending events
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<HeapNode> heap_;
  /// Entries of the last drained level-0 window, sorted by packed (when,
  /// seq) key; consumed front to back (`due_head_`). Cancelled entries are
  /// marked with idx == kNil and skipped — their lifetime is one window.
  std::vector<DueNode> due_;
  std::size_t due_head_ = 0;
  std::int64_t due_base_us_ = 0;  ///< tick-aligned start of the due window
  std::vector<DueNode> scratch_;  ///< bucket-sort staging, sized to the slab
  TimerWheel wheel_;
};

/// RAII timer that cancels its event on destruction; used by components whose
/// lifetime can end while a retry/flush timer is pending.
class ScopedTimer {
public:
  ScopedTimer() = default;
  ScopedTimer(Simulation& sim, EventHandle handle) : sim_{&sim}, handle_{handle} {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ScopedTimer(ScopedTimer&& other) noexcept { *this = std::move(other); }
  ScopedTimer& operator=(ScopedTimer&& other) noexcept {
    if (this != &other) {
      reset();
      sim_ = other.sim_;
      handle_ = other.handle_;
      other.sim_ = nullptr;
      other.handle_ = EventHandle{};
    }
    return *this;
  }
  ~ScopedTimer() { reset(); }

  /// Cancels the pending event, if any.
  void reset() {
    if (sim_ != nullptr && handle_.valid()) sim_->cancel(handle_);
    sim_ = nullptr;
    handle_ = EventHandle{};
  }

  /// Replaces the tracked event.
  void rearm(Simulation& sim, EventHandle handle) {
    reset();
    sim_ = &sim;
    handle_ = handle;
  }

  [[nodiscard]] bool armed() const { return sim_ != nullptr && handle_.valid(); }

private:
  Simulation* sim_ = nullptr;
  EventHandle handle_;
};

}  // namespace cg::sim
