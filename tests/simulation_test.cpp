// Tests for the allocation-free event engine: slab/heap handle semantics,
// exact pending counts, the timer-wheel lane and its floor, and the
// small-buffer callback type the engine stores events in.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"
#include "sim/timer_wheel.hpp"
#include "util/inplace_function.hpp"
#include "util/rng.hpp"

namespace cg::sim {
namespace {

using namespace cg::literals;

// ------------------------------------------------------- event ordering ----

TEST(SimulationEngineTest, EqualTimestampsFireInScheduleOrderAcrossCancels) {
  Simulation sim;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  handles.reserve(8);
  for (int i = 0; i < 8; ++i) {
    handles.push_back(sim.schedule(1_s, [&order, i] { order.push_back(i); }));
  }
  // Cancelling from the middle must not disturb the FIFO order of the
  // survivors (heap removal swaps the last node into the hole).
  EXPECT_TRUE(sim.cancel(handles[2]));
  EXPECT_TRUE(sim.cancel(handles[5]));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 4, 6, 7}));
}

TEST(SimulationEngineTest, NegativeDelayClampsToNow) {
  Simulation sim;
  SimTime fired_at;
  sim.schedule(2_s, [&] {
    sim.schedule(Duration::seconds(-5), [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, SimTime::from_seconds(2.0));
}

TEST(SimulationEngineTest, ScheduleAtPastClampsToNow) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(3_s, [&] {
    // Scheduled "at" an instant already in the past: runs at now, after
    // events already queued for now.
    sim.schedule_at(SimTime::from_seconds(1.0), [&] { order.push_back(2); });
    order.push_back(1);
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), SimTime::from_seconds(3.0));
}

// ------------------------------------------------------- daemon events -----

TEST(SimulationEngineTest, RunStopsWhenOnlyDaemonsRemain) {
  Simulation sim;
  int daemon_fires = 0;
  int user_fires = 0;
  // A self-rescheduling daemon would run forever under run(); termination
  // must key off the user-event count alone.
  std::function<void()> tick = [&] {
    ++daemon_fires;
    sim.schedule_daemon(1_s, tick);
  };
  sim.schedule_daemon(1_s, tick);
  sim.schedule(Duration::seconds(3) + Duration::millis(500),
               [&] { ++user_fires; });
  sim.run();
  EXPECT_EQ(user_fires, 1);
  EXPECT_EQ(daemon_fires, 3);  // t=1,2,3 fire before the last user event
  EXPECT_EQ(sim.now(), SimTime::from_seconds(3.5));
}

TEST(SimulationEngineTest, DaemonsInterleaveWithUserEventsInSeqOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_daemon(1_s, [&] { order.push_back(1); });
  sim.schedule(1_s, [&] { order.push_back(2); });
  sim.schedule_daemon(1_s, [&] { order.push_back(3); });
  sim.run();
  // Same timestamp: strict schedule order, whether an event rode the wheel
  // lane or the heap. The trailing daemon never fires: run() stops the
  // moment the last user event completes.
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  sim.run_until(SimTime::from_seconds(1.0));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulationEngineTest, FarFutureDaemonCancellable) {
  Simulation sim;
  bool fired = false;
  // Far beyond the wheel horizon: the engine must fall back to the heap and
  // the handle must still cancel.
  const EventHandle h =
      sim.schedule_daemon(Duration::seconds(400000), [&] { fired = true; });
  EXPECT_EQ(sim.pending_events(), 0u);  // daemons never count as user events
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));
  sim.run_until(SimTime::zero() + Duration::seconds(500000));
  EXPECT_FALSE(fired);
}

// --------------------------------------------- handles and slot reuse ------

TEST(SimulationEngineTest, CancelAfterFireReturnsFalse) {
  Simulation sim;
  const EventHandle h = sim.schedule(1_s, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));
}

TEST(SimulationEngineTest, StaleHandleAfterSlotReuseCancelsNothing) {
  Simulation sim;
  bool first = false;
  bool second = false;
  const EventHandle a = sim.schedule(1_s, [&] { first = true; });
  EXPECT_TRUE(sim.cancel(a));
  // The freed slot is reused; the old handle's generation is dead.
  const EventHandle b = sim.schedule(1_s, [&] { second = true; });
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_FALSE(sim.cancel(a));  // must not kill b
  sim.run();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
  EXPECT_FALSE(sim.cancel(b));
}

TEST(SimulationEngineTest, PendingEventsIsExactUnderCancellation) {
  Simulation sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(sim.schedule(Duration::seconds(i + 1), [] {}));
  }
  EXPECT_EQ(sim.pending_events(), 100u);
  for (std::size_t i = 0; i < handles.size(); i += 2) {
    EXPECT_TRUE(sim.cancel(handles[i]));
  }
  // True cancellation: no tombstones linger in the count.
  EXPECT_EQ(sim.pending_events(), 50u);
  EXPECT_EQ(sim.run_until(SimTime::from_seconds(1000.0)), 50u);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_TRUE(sim.empty());
}

TEST(SimulationEngineTest, NullCallbackThrows) {
  Simulation sim;
  EXPECT_THROW(sim.schedule(1_s, nullptr), std::invalid_argument);
  EXPECT_THROW(sim.schedule_daemon(1_s, nullptr), std::invalid_argument);
}

TEST(SimulationEngineTest, CancelFromInsideCallbackAtSameTimestamp) {
  Simulation sim;
  bool victim_fired = false;
  EventHandle victim;
  sim.schedule(1_s, [&] { EXPECT_TRUE(sim.cancel(victim)); });
  victim = sim.schedule(1_s, [&] { victim_fired = true; });
  sim.run();
  EXPECT_FALSE(victim_fired);
  EXPECT_EQ(sim.processed_events(), 1u);
}

// ------------------------------------------------------------ ScopedTimer --

TEST(SimulationEngineTest, ScopedTimerCancelsOnDestruction) {
  Simulation sim;
  bool fired = false;
  {
    ScopedTimer timer;
    timer.rearm(sim, sim.schedule(1_s, [&] { fired = true; }));
    EXPECT_TRUE(timer.armed());
  }
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulationEngineTest, ScopedTimerMoveTransfersOwnership) {
  Simulation sim;
  bool fired = false;
  ScopedTimer outer;
  {
    ScopedTimer inner;
    inner.rearm(sim, sim.schedule(1_s, [&] { fired = true; }));
    outer = std::move(inner);
    EXPECT_FALSE(inner.armed());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(outer.armed());
  }  // inner's destruction must not cancel the moved-from timer
  sim.run();
  EXPECT_TRUE(fired);
  outer.reset();  // stale handle after the fire: cancels nothing
  EXPECT_FALSE(outer.armed());
}

// ---------------------------------------------------- wheel floor ----------

/// The level-4 boundary of the wheel: 64^4 ticks = 2^24 ticks = 2^30 us.
constexpr std::int64_t kWheelBoundaryTick = std::int64_t{1} << 24;

TEST(TimerWheelTest, RaisedFloorFilesPastTheLevelBoundary) {
  using Filed = std::tuple<std::int64_t, std::uint64_t, std::uint32_t>;
  const auto us = [](std::int64_t tick) {
    return tick << TimerWheel::kTickShift;
  };
  // Drains the earliest window; level-0 windows come back sorted by
  // (when, seq), the order the engine fires them in.
  const auto drain_window = [](TimerWheel& wheel, std::vector<Filed>& due) {
    std::vector<Filed> window;
    wheel.drain_earliest(
        [&](std::uint32_t idx, std::int64_t when, std::uint64_t seq) {
          window.emplace_back(when, seq, idx);
        },
        [](std::uint32_t) { FAIL() << "nothing here belongs to the heap"; });
    std::sort(window.begin(), window.end());
    due.insert(due.end(), window.begin(), window.end());
  };

  // Two wheels drained empty with their floor just below the boundary.
  TimerWheel raised;
  TimerWheel stuck;
  for (TimerWheel* wheel : {&raised, &stuck}) {
    wheel->ensure_capacity(8);
    ASSERT_TRUE(wheel->insert(0, us(kWheelBoundaryTick - 2), 1));
    std::vector<Filed> due;
    while (!wheel->empty()) drain_window(*wheel, due);  // cascades, then fires
    ASSERT_EQ(due, (std::vector<Filed>{{us(kWheelBoundaryTick - 2), 1, 0}}));
  }
  // The clock has since reached the boundary (through a heap event). The
  // stuck wheel's floor stays below it, so no later deadline fits.
  const std::int64_t after = us(kWheelBoundaryTick + 3);
  EXPECT_FALSE(stuck.insert(1, after, 2));

  // The engine raises an empty wheel's floor to the current tick first.
  raised.raise_floor(kWheelBoundaryTick);
  ASSERT_TRUE(raised.insert(1, after, 2));
  ASSERT_TRUE(raised.insert(2, after + 5, 3));
  ASSERT_TRUE(raised.insert(3, after, 4));
  ASSERT_TRUE(raised.insert(4, us(kWheelBoundaryTick + 64 * 5), 5));
  ASSERT_TRUE(raised.insert(5, us(kWheelBoundaryTick + 64 * 64 * 7 + 1), 6));
  EXPECT_EQ(raised.next_window_start_us(), after);
  std::vector<Filed> due;
  while (!raised.empty()) drain_window(raised, due);
  const std::vector<Filed> expected{
      {after, 2, 1},
      {after, 4, 3},
      {after + 5, 3, 2},
      {us(kWheelBoundaryTick + 64 * 5), 5, 4},
      {us(kWheelBoundaryTick + 64 * 64 * 7 + 1), 6, 5},
  };
  EXPECT_EQ(due, expected);
}

TEST(SimulationEngineTest, FiringOrderAcrossWheelBoundariesMatchesReference) {
  // Seeded traffic that crosses three 2^30 us boundaries: short timers,
  // minutes-long ones, deadlines past the wheel horizon, zero delays, and
  // cancellations. Whatever lane each event took, the firing order must be
  // the reference sort by (when, seq).
  struct Event {
    std::int64_t when_us = 0;
    std::uint64_t seq = 0;
    EventHandle handle;
    bool cancelled = false;
  };
  Simulation sim;
  Rng rng{20061025};
  std::vector<Event> events;
  std::vector<std::size_t> fired;
  const std::int64_t end_us =
      3 * (kWheelBoundaryTick << TimerWheel::kTickShift) + 300'000'000;

  std::function<void(std::size_t)> on_fire;
  const auto schedule_one = [&] {
    Duration delay;
    const double pick = rng.uniform01();
    if (pick < 0.2) {
      delay = Duration::zero();
    } else if (pick < 0.6) {
      delay = Duration::micros(rng.uniform_int(1, 5'000));
    } else if (pick < 0.95) {
      delay = Duration::micros(rng.uniform_int(1, 240'000'000));
    } else {
      delay = Duration::micros(rng.uniform_int(1'100'000'000, 1'500'000'000));
    }
    const std::size_t i = events.size();
    events.push_back(Event{});
    events[i].handle = sim.schedule(delay, [&on_fire, i] { on_fire(i); });
    events[i].when_us = (sim.now() + delay).count_micros();
    events[i].seq = events[i].handle.seq();
  };
  on_fire = [&](std::size_t i) {
    EXPECT_EQ(sim.now().count_micros(), events[i].when_us);
    fired.push_back(i);
    if (sim.now().count_micros() >= end_us) return;
    // Each event spawns one successor, and tops the population back up to
    // 64 pending events after cancellations.
    schedule_one();
    while (sim.pending_events() < 64) schedule_one();
    if (rng.chance(0.2)) {
      const std::size_t victim = rng.pick_index(events.size());
      if (sim.cancel(events[victim].handle)) events[victim].cancelled = true;
    }
  };
  for (int i = 0; i < 64; ++i) schedule_one();
  sim.run();

  std::vector<std::size_t> reference;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (!events[i].cancelled) reference.push_back(i);
  }
  std::sort(reference.begin(), reference.end(), [&](std::size_t a, std::size_t b) {
    return std::tie(events[a].when_us, events[a].seq) <
           std::tie(events[b].when_us, events[b].seq);
  });
  EXPECT_EQ(fired, reference);
  ASSERT_FALSE(fired.empty());
  EXPECT_GE(events[fired.back()].when_us, end_us);
}

TEST(SimulationEngineTest, SchedulesIntoTheDrainedWindowMatchReference) {
  // A dense window of one 64 us tick, drained while a far deadline keeps
  // the wheel's floor past it: every firing event schedules a zero-delay
  // and a sub-tick successor into that window (the due buffer) and now and
  // then cancels a pending one, a due-buffer entry included. The firing
  // order must be the reference sort by (when, seq).
  struct Event {
    std::int64_t when_us = 0;
    std::uint64_t seq = 0;
    EventHandle handle;
    bool cancelled = false;
  };
  Simulation sim;
  Rng rng{20061026};
  std::vector<Event> events;
  std::vector<std::size_t> fired;
  constexpr std::int64_t kTickUs = std::int64_t{1} << TimerWheel::kTickShift;
  const std::int64_t window_us = 4096 * kTickUs;

  std::function<void(std::size_t)> on_fire;
  const auto schedule_at = [&](std::int64_t when_us) {
    const std::size_t i = events.size();
    events.push_back(Event{});
    events[i].handle = sim.schedule_at(SimTime::micros(when_us),
                                       [&on_fire, i] { on_fire(i); });
    events[i].when_us = when_us;
    events[i].seq = events[i].handle.seq();
  };
  on_fire = [&](std::size_t i) {
    EXPECT_EQ(sim.now().count_micros(), events[i].when_us);
    fired.push_back(i);
    if (events.size() > 600) return;
    const std::int64_t now_us = sim.now().count_micros();
    const std::int64_t tick_end = (now_us / kTickUs + 1) * kTickUs;
    schedule_at(now_us);
    if (now_us + 1 < tick_end) {
      schedule_at(now_us + rng.uniform_int(1, tick_end - now_us - 1));
    }
    if (rng.chance(0.3)) {
      const std::size_t victim = events.size() - 1 - rng.pick_index(8);
      if (sim.cancel(events[victim].handle)) events[victim].cancelled = true;
    }
  };
  schedule_at(window_us + 10'000'000);  // keeps the wheel non-empty
  for (int k = 0; k < 32; ++k) {
    schedule_at(window_us + rng.uniform_int(0, kTickUs / 2));
  }
  sim.run();

  std::vector<std::size_t> reference;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (!events[i].cancelled) reference.push_back(i);
  }
  std::sort(reference.begin(), reference.end(), [&](std::size_t a, std::size_t b) {
    return std::tie(events[a].when_us, events[a].seq) <
           std::tie(events[b].when_us, events[b].seq);
  });
  EXPECT_EQ(fired, reference);
  EXPECT_GT(events.size(), 600u);
  EXPECT_GT(std::count_if(events.begin(), events.end(),
                          [](const Event& e) { return e.cancelled; }),
            0);
}

// ------------------------------------------------------- InplaceFunction ---

TEST(InplaceFunctionTest, InvokesStoredLambda) {
  util::InplaceFunction<int(int), 48> f = [](int x) { return x + 1; };
  EXPECT_TRUE(static_cast<bool>(f));
  EXPECT_EQ(f(41), 42);
}

TEST(InplaceFunctionTest, EmptyCallThrows) {
  util::InplaceFunction<void(), 48> f;
  EXPECT_FALSE(static_cast<bool>(f));
  EXPECT_THROW(f(), std::bad_function_call);
}

TEST(InplaceFunctionTest, NullFunctionPointerIsEmpty) {
  void (*fp)() = nullptr;
  util::InplaceFunction<void(), 48> f = fp;
  EXPECT_FALSE(static_cast<bool>(f));
}

TEST(InplaceFunctionTest, MoveOnlyCaptureWorks) {
  auto p = std::make_unique<int>(7);
  util::InplaceFunction<int(), 48> f = [p = std::move(p)] { return *p; };
  util::InplaceFunction<int(), 48> g = std::move(f);
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(g(), 7);
}

TEST(InplaceFunctionTest, CaptureUpToBufferSizeStaysInline) {
  // 48 bytes of capture must fit the engine's callback type (compile-time
  // guarantee; this is the documented SBO budget for scheduling paths).
  struct Big {
    char bytes[48];
  };
  static_assert(sizeof(Big) == 48);
  Big big{};
  big.bytes[0] = 'x';
  util::InplaceFunction<char(), 48> f = [big] { return big.bytes[0]; };
  EXPECT_EQ(f(), 'x');
}

}  // namespace
}  // namespace cg::sim
