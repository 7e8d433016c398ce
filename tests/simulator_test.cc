#include "sim/simulator.h"

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/task.h"

namespace pioqo::sim {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.Now(), 0.0);
  EXPECT_EQ(sim.num_pending(), 0u);
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(30.0, [&] { order.push_back(3); });
  sim.ScheduleAt(10.0, [&] { order.push_back(1); });
  sim.ScheduleAt(20.0, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.Now(), 30.0);
}

TEST(SimulatorTest, TiesFireInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAt(7.0, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, EventsMayScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 10) sim.ScheduleAfter(5.0, chain);
  };
  sim.ScheduleAfter(5.0, chain);
  sim.Run();
  EXPECT_EQ(fired, 10);
  EXPECT_DOUBLE_EQ(sim.Now(), 50.0);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(10.0, [&] { ++fired; });
  sim.ScheduleAt(20.0, [&] { ++fired; });
  sim.RunUntil(15.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.Now(), 15.0);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, PastTimeClampedToNow) {
  Simulator sim;
  sim.ScheduleAt(10.0, [] {});
  sim.Run();
  double fired_at = -1.0;
  sim.ScheduleAt(5.0, [&] { fired_at = sim.Now(); });  // in the past
  sim.Run();
  EXPECT_DOUBLE_EQ(fired_at, 10.0);
}

TEST(SimulatorTest, StepExecutesOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(1.0, [&] { ++fired; });
  sim.ScheduleAt(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(sim.num_executed(), 2u);
}

TEST(SimulatorTest, HeapOrderingStress) {
  // Exercises the 4-ary heap across growth, shrink, and deep sifts:
  // pseudo-random times must come out in exact (time, seq) order.
  Simulator sim;
  std::vector<std::pair<double, int>> fired;
  uint64_t rng = 0x9e3779b97f4a7c15ULL;
  std::vector<std::pair<double, int>> expected;
  for (int i = 0; i < 1000; ++i) {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    // Coarse quantization forces plenty of same-instant ties.
    const double t = static_cast<double>(rng % 64);
    expected.emplace_back(t, i);
    sim.ScheduleAt(t, [&fired, t, i] { fired.emplace_back(t, i); });
  }
  EXPECT_EQ(sim.num_pending(), 1000u);
  sim.Run();
  // Stable sort by time == (time, scheduling order), the simulator's
  // documented execution order.
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(sim.num_pending(), 0u);
  EXPECT_EQ(sim.num_executed(), 1000u);
}

TEST(SimulatorTest, SameInstantTieBreakSurvivesInterleavedPops) {
  // Ties must hold by scheduling order even when pops interleave with new
  // same-instant pushes (the heap repacks nodes during every sift).
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(5.0, [&] {
    order.push_back(0);
    for (int i = 3; i >= 1; --i) {
      sim.ScheduleAt(5.0, [&order, i] { order.push_back(i); });
    }
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 3, 2, 1}));
}

TEST(SimulatorTest, CancelledEventIsSkipped) {
  Simulator sim;
  bool deadline_fired = false;
  int work_fired = 0;
  const uint64_t token =
      sim.ScheduleCancellableAfter(100.0, [&] { deadline_fired = true; });
  sim.ScheduleAfter(10.0, [&] {
    ++work_fired;
    EXPECT_TRUE(sim.Cancel(token));
  });
  sim.Run();
  EXPECT_FALSE(deadline_fired);
  EXPECT_EQ(work_fired, 1);
  // A skipped event does not advance the clock past the last real event.
  EXPECT_DOUBLE_EQ(sim.Now(), 10.0);
}

TEST(SimulatorTest, CancelledEventLeavesTraceIdentical) {
  // The bit-identity contract: a cancelled event neither runs, advances the
  // clock, nor enters the trace hash. With the deadline armed after the
  // rest of the cohort (so it takes the highest seq number), cancelling it
  // in time leaves the hash equal to never having armed it. (A deadline
  // armed *before* other schedules still shifts their sequence numbers —
  // there the guarantee is replay determinism, not cross-scenario
  // identity.)
  auto run = [](bool arm_deadline) {
    Simulator sim;
    uint64_t token = 0;
    sim.ScheduleAfter(5.0, [&sim, &token, arm_deadline] {
      if (arm_deadline) {
        EXPECT_TRUE(sim.Cancel(token));
      }
    });
    sim.ScheduleAfter(20.0, [] {});
    if (arm_deadline) {
      token = sim.ScheduleCancellableAfter(100.0, [] { ADD_FAILURE(); });
    }
    sim.Run();
    return sim.trace_hash();
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(SimulatorTest, CancelIsIdempotentAndFalseAfterFire) {
  Simulator sim;
  int fired = 0;
  const uint64_t token = sim.ScheduleCancellableAfter(10.0, [&] { ++fired; });
  EXPECT_TRUE(sim.Cancel(token));
  EXPECT_FALSE(sim.Cancel(token));  // already cancelled
  sim.Run();
  EXPECT_EQ(fired, 0);

  const uint64_t token2 = sim.ScheduleCancellableAfter(10.0, [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.Cancel(token2));  // already fired
}

TEST(SimulatorTest, StaleTokenDoesNotCancelSlotReuse) {
  // After an event fires, its slab slot is recycled; an old token must not
  // be able to cancel the new occupant (generation check).
  Simulator sim;
  const uint64_t stale = sim.ScheduleCancellableAfter(1.0, [] {});
  sim.Run();
  bool fired = false;
  sim.ScheduleCancellableAfter(1.0, [&] { fired = true; });  // reuses slot
  EXPECT_FALSE(sim.Cancel(stale));
  sim.Run();
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, PendingCountTracksCancellation) {
  Simulator sim;
  const uint64_t token = sim.ScheduleCancellableAfter(50.0, [] {});
  sim.ScheduleAfter(10.0, [] {});
  EXPECT_EQ(sim.num_pending(), 2u);
  EXPECT_TRUE(sim.Cancel(token));
  EXPECT_EQ(sim.num_pending(), 1u);  // cancelled events are not pending
  sim.Run();
  EXPECT_EQ(sim.num_pending(), 0u);
  EXPECT_EQ(sim.num_executed(), 1u);
}

// --- Reserve now, schedule later -----------------------------------------

/// Runs one scenario two ways: `defer == false` schedules every event
/// eagerly; `defer == true` only reserves sequence numbers for "b" (tied
/// with "a" and "c" at t=5), "e" (t=8) and "f" (t=2, tied with the event
/// that schedules it) and schedules them later, from inside "d". Returns
/// the execution order and the trace hash.
std::pair<std::string, uint64_t> ReserveScenario(bool defer) {
  Simulator sim;
  std::string order;
  auto log = [&order](char c) { return [&order, c] { order += c; }; };
  sim.ScheduleAt(5.0, log('a'));
  uint64_t seq_b = 0;
  if (defer) {
    seq_b = sim.ReserveSeq();
  } else {
    sim.ScheduleAt(5.0, log('b'));
  }
  sim.ScheduleAt(5.0, log('c'));
  uint64_t seq_e = 0;
  if (defer) {
    seq_e = sim.ReserveSeq();
  } else {
    sim.ScheduleAt(8.0, log('e'));
  }
  sim.ScheduleAt(2.0, [&] {
    order += 'd';
    if (defer) {
      sim.ScheduleReserved(8.0, seq_e, log('e'));
      sim.ScheduleReserved(2.0, sim.ReserveSeq(), log('f'));
      sim.ScheduleReserved(5.0, seq_b, log('b'));
    } else {
      sim.ScheduleAt(2.0, log('f'));
    }
  });
  sim.Run();
  return {order, sim.trace_hash()};
}

TEST(SimulatorTest, ReservedEventRunsWhereEagerScheduleWould) {
  const auto eager = ReserveScenario(false);
  const auto deferred = ReserveScenario(true);
  EXPECT_EQ(eager.first, "dfabce");
  EXPECT_EQ(deferred.first, eager.first);
  EXPECT_EQ(deferred.second, eager.second);
}

TEST(SimulatorTest, ReservedSortedStreamMatchesEagerTrace) {
  // The RunWorkload pattern: reserve one number per item in input order,
  // then feed the items in (time, seq) order, one pending at a time, while
  // unrelated events interleave. Same order and hash as eager scheduling.
  const std::vector<double> times = {40, 10, 25, 10, 0, 25, 70, 10};
  auto run = [&times](bool defer) {
    Simulator sim;
    std::vector<int> order;
    struct Item {
      double at;
      uint64_t seq;
      int id;
    };
    std::vector<Item> items;
    for (int i = 0; i < static_cast<int>(times.size()); ++i) {
      if (defer) {
        items.push_back({times[i], sim.ReserveSeq(), i});
      } else {
        sim.ScheduleAt(times[i], [&order, i] { order.push_back(i); });
      }
      sim.ScheduleAt(times[i] / 2, [&order, i] { order.push_back(100 + i); });
    }
    std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
      return a.at < b.at || (a.at == b.at && a.seq < b.seq);
    });
    size_t next = 0;
    std::function<void()> feed = [&] {
      if (next == items.size()) return;
      const Item item = items[next++];
      sim.ScheduleReserved(item.at, item.seq, [&, item] {
        order.push_back(item.id);
        feed();
      });
    };
    if (defer) {
      feed();
      EXPECT_EQ(sim.num_pending(), times.size() + 1);
    } else {
      EXPECT_EQ(sim.num_pending(), 2 * times.size());
    }
    sim.Run();
    return std::make_pair(order, sim.trace_hash());
  };
  const auto eager = run(false);
  const auto deferred = run(true);
  EXPECT_EQ(deferred.first, eager.first);
  EXPECT_EQ(deferred.second, eager.second);
}

TEST(SimulatorTest, ReservingIsNotPendingAndLeavesCancellationAlone) {
  struct Outcome {
    int fired;
    uint64_t executed;
    uint64_t hash;
  };
  auto run = [](bool defer) {
    Simulator sim;
    int fired = 0;
    const uint64_t token =
        sim.ScheduleCancellableAfter(50.0, [&fired] { fired += 100; });
    uint64_t seq = 0;
    if (defer) {
      seq = sim.ReserveSeq();
      EXPECT_EQ(sim.num_pending(), 1u);  // a reservation schedules nothing
    } else {
      sim.ScheduleAt(30.0, [&fired] { ++fired; });
      EXPECT_EQ(sim.num_pending(), 2u);
    }
    sim.ScheduleAfter(10.0, [&] {
      ++fired;
      EXPECT_TRUE(sim.Cancel(token));
      if (defer) {
        const size_t before = sim.num_pending();
        sim.ScheduleReserved(30.0, seq, [&fired] { ++fired; });
        EXPECT_EQ(sim.num_pending(), before + 1);
      }
      EXPECT_FALSE(sim.Cancel(token));
    });
    sim.Run();
    EXPECT_EQ(sim.num_pending(), 0u);
    return Outcome{fired, sim.num_executed(), sim.trace_hash()};
  };
  const Outcome eager = run(false);
  const Outcome deferred = run(true);
  EXPECT_EQ(eager.fired, 2);
  EXPECT_EQ(deferred.fired, eager.fired);
  EXPECT_EQ(deferred.executed, eager.executed);
  EXPECT_EQ(deferred.hash, eager.hash);
}

TEST(SimulatorDeathTest, ReservedEventBeforeNowIsRejected) {
  Simulator sim;
  const uint64_t seq = sim.ReserveSeq();
  sim.ScheduleAt(10.0, [] {});
  sim.Run();
  EXPECT_DEATH(sim.ScheduleReserved(5.0, seq, [] {}), "before Now");
}

TEST(SimulatorDeathTest, UnreservedSequenceNumberIsRejected) {
  Simulator sim;
  sim.ScheduleAt(1.0, [] {});  // takes seq 0
  const uint64_t seq = sim.ReserveSeq();
  EXPECT_DEATH(sim.ScheduleReserved(5.0, 0, [] {}), "not reserved");
  EXPECT_DEATH(sim.ScheduleReserved(5.0, seq + 1, [] {}), "not reserved");
  sim.ScheduleReserved(5.0, seq, [] {});
  EXPECT_DEATH(sim.ScheduleReserved(6.0, seq, [] {}), "not reserved");
}

TEST(SimulatorDeathTest, ReservedKeyAlreadyPassedIsRejected) {
  // Reserved before the running event was scheduled, so at the same instant
  // it should have run first; scheduling it now is too late.
  Simulator sim;
  const uint64_t seq = sim.ReserveSeq();
  sim.ScheduleAt(3.0, [&] { sim.ScheduleReserved(3.0, seq, [] {}); });
  EXPECT_DEATH(sim.Run(), "would run after");
}

Task CountingCoroutine(Simulator& sim, std::vector<double>& times, int hops) {
  for (int i = 0; i < hops; ++i) {
    co_await Delay(sim, 10.0);
    times.push_back(sim.Now());
  }
}

TEST(TaskTest, DelayAdvancesClock) {
  Simulator sim;
  std::vector<double> times;
  CountingCoroutine(sim, times, 3).Detach();
  sim.Run();
  EXPECT_EQ(times, (std::vector<double>{10.0, 20.0, 30.0}));
}

TEST(TaskTest, ZeroDelayYields) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(0.0, [&] { order.push_back(1); });
  [](Simulator& s, std::vector<int>& o) -> Task {
    o.push_back(0);  // coroutines start eagerly
    co_await Delay(s, 0.0);
    o.push_back(2);  // but a zero delay yields to already-queued events
  }(sim, order).Detach();
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(TaskTest, ManyConcurrentCoroutines) {
  Simulator sim;
  std::vector<double> times;
  for (int i = 0; i < 100; ++i) CountingCoroutine(sim, times, 2).Detach();
  sim.Run();
  EXPECT_EQ(times.size(), 200u);
  EXPECT_DOUBLE_EQ(sim.Now(), 20.0);
}

}  // namespace
}  // namespace pioqo::sim
