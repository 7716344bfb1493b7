#include "sim/simulation.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>

namespace cg::sim {

namespace {
/// Events are totally ordered by (when, seq): virtual time first, scheduling
/// order as the tie-break.
constexpr bool node_less(const auto& a, const auto& b) {
  return a.when_us < b.when_us || (a.when_us == b.when_us && a.seq < b.seq);
}
/// Due-buffer order: the packed (in-window offset, seq) key.
constexpr auto due_less = [](const auto& a, const auto& b) {
  return a.key < b.key;
};
}  // namespace

EventHandle Simulation::schedule(Duration delay, Callback fn) {
  if (delay.is_negative()) delay = Duration::zero();
  return schedule_impl(now_ + delay, std::move(fn), /*daemon=*/false);
}

EventHandle Simulation::schedule_at(SimTime when, Callback fn) {
  return schedule_impl(when, std::move(fn), /*daemon=*/false);
}

EventHandle Simulation::schedule_daemon(Duration delay, Callback fn) {
  if (delay.is_negative()) delay = Duration::zero();
  return schedule_impl(now_ + delay, std::move(fn), /*daemon=*/true);
}

EventHandle Simulation::schedule_impl(SimTime when, Callback fn, bool daemon) {
  if (!fn) throw std::invalid_argument{"Simulation::schedule: null callback"};
  if (when < now_) when = now_;
  const std::uint32_t idx = acquire_slot();
  Slot& s = slots_[idx];
  s.when_us = when.count_micros();
  s.seq = next_seq_++;
  s.fn = std::move(fn);
  s.daemon = daemon;
  if (daemon) {
    ++pending_daemon_;
  } else {
    ++pending_user_;
  }
  file_event(idx);
  return EventHandle{idx, s.gen, s.seq};
}

bool Simulation::cancel(EventHandle handle) {
  if (!handle.valid() || handle.slot_ >= slots_.size()) return false;
  Slot& s = slots_[handle.slot_];
  if (s.lane == Lane::kFree || s.gen != handle.gen_ || s.seq != handle.seq_) {
    return false;  // already fired/cancelled; slot may have been recycled
  }
  if (s.lane == Lane::kHeap) {
    heap_remove_at(s.heap_pos);
  } else if (!wheel_.remove(handle.slot_)) {
    // Wheel lane but no longer linked: the event sits in the drained due
    // window awaiting its turn. Mark it dead in place (peek skips it). The
    // scan is bounded by one window and this path is rare — cancelling an
    // event within the last few dozen µs before it fires.
    for (std::size_t i = due_head_; i < due_.size(); ++i) {
      if (due_[i].idx == handle.slot_) {
        due_[i].idx = kNil;
        break;
      }
    }
  }
  if (s.daemon) {
    --pending_daemon_;
  } else {
    --pending_user_;
  }
  release_slot(handle.slot_);
  return true;
}

std::uint32_t Simulation::acquire_slot_grow() {
  const auto idx = static_cast<std::uint32_t>(slots_.size());
  slots_.emplace_back();
  wheel_.ensure_capacity(slots_.size());
  // These structures hold at most one entry per slot, so sizing them to the
  // slab's capacity here keeps every later push_back allocation-free — even
  // when the free list balloons as the event population drains at run end.
  free_slots_.reserve(slots_.capacity());
  heap_.reserve(slots_.capacity());
  due_.reserve(slots_.capacity());
  scratch_.resize(slots_.capacity());
  return idx;
}

bool Simulation::join_due(std::uint32_t idx) {
  Slot& s = slots_[idx];
  const std::int64_t tick = s.when_us >> TimerWheel::kTickShift;
  if (due_.empty()) {
    // The current tick's window was drained and fully consumed: an event
    // for that tick opens the buffer anew.
    if (tick != now_.count_micros() >> TimerWheel::kTickShift) return false;
    due_base_us_ = tick << TimerWheel::kTickShift;
  } else if (tick != due_base_us_ >> TimerWheel::kTickShift) {
    return false;
  }
  const DueNode node{
      static_cast<std::uint64_t>(s.when_us - due_base_us_) << kDueDeltaShift |
          s.seq,
      idx};
  // Its seq is the newest, so it sorts after every key it ties with: the
  // unfired tail stays ordered.
  const auto first = due_.begin() + static_cast<std::ptrdiff_t>(due_head_);
  const auto pos = std::upper_bound(first, due_.end(), node, due_less);
  if (due_head_ > 0) {
    // A fired entry sits in front of the tail: shift the part before the
    // new place one step into it instead of moving the rest of the window.
    std::move(first, pos, first - 1);
    *(pos - 1) = node;
    --due_head_;
  } else {
    due_.insert(pos, node);
  }
  s.lane = Lane::kWheel;
  return true;
}

void Simulation::heap_push(std::uint32_t idx) {
  Slot& s = slots_[idx];
  s.lane = Lane::kHeap;
  s.heap_pos = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(HeapNode{s.when_us, s.seq, idx});
  sift_up(s.heap_pos);
}

void Simulation::heap_remove_at(std::uint32_t pos) {
  const auto last = static_cast<std::uint32_t>(heap_.size() - 1);
  if (pos == last) {
    heap_.pop_back();
    return;
  }
  heap_[pos] = heap_[last];
  slots_[heap_[pos].slot].heap_pos = pos;
  heap_.pop_back();
  if (pos > 0 && node_less(heap_[pos], heap_[(pos - 1) / 4])) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

void Simulation::sift_up(std::uint32_t pos) {
  const HeapNode node = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 4;
    if (!node_less(node, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    slots_[heap_[pos].slot].heap_pos = pos;
    pos = parent;
  }
  heap_[pos] = node;
  slots_[node.slot].heap_pos = pos;
}

void Simulation::sift_down(std::uint32_t pos) {
  const auto n = static_cast<std::uint32_t>(heap_.size());
  const HeapNode node = heap_[pos];
  for (;;) {
    const std::uint32_t first = 4 * pos + 1;
    if (first >= n) break;
    std::uint32_t best = first;
    const std::uint32_t end = std::min(first + 4, n);
    for (std::uint32_t c = first + 1; c < end; ++c) {
      if (node_less(heap_[c], heap_[best])) best = c;
    }
    if (!node_less(heap_[best], node)) break;
    heap_[pos] = heap_[best];
    slots_[heap_[pos].slot].heap_pos = pos;
    pos = best;
  }
  heap_[pos] = node;
  slots_[node.slot].heap_pos = pos;
}

void Simulation::drain_wheel_window() {
  // The (when, seq) keys ride the wheel entries, so draining a window never
  // touches the slab: walk the list, append, sort. A window only drains
  // once the previous one is fully consumed (its entries all fire strictly
  // before the next window's start), so the due buffer is empty here and
  // the packed keys all share one tick-aligned base. Due-lane events keep
  // lane == kWheel; cancel and fire tell the lanes apart by link state.
  constexpr std::uint64_t kTickMask =
      (std::uint64_t{1} << TimerWheel::kTickShift) - 1;
  wheel_.drain_earliest(
      [this](std::uint32_t idx, std::int64_t when_us, std::uint64_t seq) {
        const auto when = static_cast<std::uint64_t>(when_us);
        due_base_us_ = static_cast<std::int64_t>(when & ~kTickMask);
        due_.push_back(DueNode{(when & kTickMask) << kDueDeltaShift | seq, idx});
      },
      [this](std::uint32_t idx) { heap_push(idx); });
  const std::size_t n = due_.size();
  if (n > 48) {
    // Dense windows: two linear passes bucket the entries by their
    // in-window microsecond (the key's top bits), then each bucket needs
    // only a tiny seq-order sort — far cheaper than introsorting hundreds
    // of entries. The scratch buffer is pre-sized by acquire_slot.
    constexpr std::size_t kSpan = std::size_t{1} << TimerWheel::kTickShift;
    std::array<std::uint32_t, kSpan + 1> start{};
    for (std::size_t i = 0; i < n; ++i) {
      ++start[(due_[i].key >> kDueDeltaShift) + 1];
    }
    for (std::size_t d = 1; d <= kSpan; ++d) start[d] += start[d - 1];
    std::array<std::uint32_t, kSpan> pos;
    std::copy(start.begin(), start.begin() + kSpan, pos.begin());
    for (std::size_t i = 0; i < n; ++i) {
      scratch_[pos[due_[i].key >> kDueDeltaShift]++] = due_[i];
    }
    std::copy(scratch_.begin(),
              scratch_.begin() + static_cast<std::ptrdiff_t>(n), due_.begin());
    for (std::size_t d = 0; d < kSpan; ++d) {
      if (start[d + 1] - start[d] > 1) {
        std::sort(due_.begin() + start[d], due_.begin() + start[d + 1],
                  due_less);
      }
    }
  } else if (n > 1) {
    std::sort(due_.begin(), due_.end(), due_less);
  }
}

Simulation::HeapNode Simulation::peek_next() {
  // Skip entries cancelled since the window drained, and recycle the buffer
  // once a window is fully consumed (clear() keeps its capacity).
  while (due_head_ < due_.size() && due_[due_head_].idx == kNil) ++due_head_;
  if (due_head_ != 0 && due_head_ == due_.size()) {
    due_.clear();
    due_head_ = 0;
  }
  // Drain the wheel while its earliest window could still hold an event
  // that fires before (or ties with and out-sequences) the queue's front. A
  // window start is a lower bound on every entry inside it, so once the
  // bound passes both fronts, the front is the global minimum. (A window
  // only ever drains after the previous one was fully consumed, so the due
  // buffer holds at most one window.)
  while (!wheel_.empty()) {
    std::int64_t front_when = std::numeric_limits<std::int64_t>::max();
    if (!heap_.empty()) front_when = heap_.front().when_us;
    if (due_head_ < due_.size()) {
      const std::int64_t due_when =
          due_base_us_ +
          static_cast<std::int64_t>(due_[due_head_].key >> kDueDeltaShift);
      if (due_when < front_when) front_when = due_when;
    }
    if (wheel_.next_window_start_us() > front_when) break;
    drain_wheel_window();
  }
  const bool have_heap = !heap_.empty();
  if (due_head_ < due_.size()) {
    const DueNode& d = due_[due_head_];
    const HeapNode front{
        due_base_us_ + static_cast<std::int64_t>(d.key >> kDueDeltaShift),
        d.key & kDueSeqMask, d.idx};
    if (!have_heap || node_less(front, heap_.front())) return front;
  }
  return have_heap ? heap_.front() : HeapNode{0, 0, kNil};
}

void Simulation::fire(std::uint32_t idx) {
  Slot& s = slots_[idx];
  if (s.lane == Lane::kHeap) {
    heap_remove_at(s.heap_pos);
  } else {
    ++due_head_;  // wheel lane: peek only ever hands out the due front
    // Warm the likely next event's slot while this one's callback runs.
    if (due_head_ < due_.size() && due_[due_head_].idx != kNil) {
      __builtin_prefetch(&slots_[due_[due_head_].idx]);
    }
  }
  if (s.daemon) {
    --pending_daemon_;
  } else {
    --pending_user_;
  }
  now_ = SimTime::micros(s.when_us);
  ++processed_;
  // Move the callback out and free the slot *before* invoking: the callback
  // may reschedule (reusing this slot), and cancel() on the fired handle
  // must report false.
  Callback fn = std::move(s.fn);
  release_slot(idx);
  fn();
}

std::size_t Simulation::run() {
  return run_until(SimTime::max());
}

std::size_t Simulation::run_until(SimTime deadline) {
  std::size_t n = 0;
  // An unbounded run() stops when only daemon maintenance remains: an idle
  // grid whose information system keeps republishing is "finished". A run
  // to an explicit deadline processes daemons too — bounded experiments want
  // accounting ticks and publications to happen.
  const bool stop_when_only_daemons = deadline == SimTime::max();
  const std::int64_t deadline_us = deadline.count_micros();
  while (!stop_when_only_daemons || pending_user_ > 0) {
    const HeapNode next = peek_next();
    if (next.slot == kNil) break;
    if (next.when_us > deadline_us) {
      // The next event fires after the horizon: leave it queued (its slot
      // and sequence are untouched) and stop the clock at the deadline.
      now_ = deadline;
      return n;
    }
    fire(next.slot);
    ++n;
  }
  // The queue drained before the horizon: the clock still advances to it.
  if (!stop_when_only_daemons && now_ < deadline) now_ = deadline;
  return n;
}

bool Simulation::step() {
  const HeapNode next = peek_next();
  if (next.slot == kNil) return false;
  fire(next.slot);
  return true;
}

bool Simulation::empty() const {
  return pending_user_ == 0;
}

std::size_t Simulation::pending_events() const {
  return pending_user_;
}

}  // namespace cg::sim
