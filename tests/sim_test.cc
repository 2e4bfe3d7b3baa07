// Unit tests for the discrete-event simulation kernel, network model, and
// failure injection.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/protocols/messages.h"
#include "src/sim/event_queue.h"
#include "src/sim/failure.h"
#include "src/sim/network.h"
#include "src/sim/simulation.h"
#include "tests/test_util.h"

namespace ac3::sim {
namespace {

/// A deadline past every event these tests schedule.
constexpr TimePoint kLongAfter = Hours(1);

/// A minimal typed envelope from `from` to `to` (zero swap id, default
/// payload).
proto::Message Envelope(NodeId from, NodeId to) {
  return proto::Message{
      .swap_id = {}, .sender = from, .receiver = to, .payload = {}};
}

TEST(EventQueueTest, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.Push(30, [&] { order.push_back(3); });
  q.Push(10, [&] { order.push_back(1); });
  q.Push(20, [&] { order.push_back(2); });
  while (auto e = q.PopNext()) e->fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoAtSameTime) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.Push(7, [&order, i] { order.push_back(i); });
  }
  while (auto e = q.PopNext()) e->fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CancelledEventSkipped) {
  EventQueue q;
  bool ran = false;
  EventHandle handle = q.Push(5, [&] { ran = true; });
  handle.Cancel();
  while (auto e = q.PopNext()) e->fn();
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, NextTimeReportsEarliest) {
  EventQueue q;
  EXPECT_EQ(q.NextTime(), kTimeInfinity);
  q.Push(42, [] {});
  q.Push(17, [] {});
  EXPECT_EQ(q.NextTime(), 17);
}

TEST(SimulationTest, ClockAdvancesWithEvents) {
  Simulation sim(1);
  TimePoint seen = -1;
  sim.After(100, [&] { seen = sim.Now(); });
  sim.RunUntil(1000);
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim.Now(), 1000);
}

TEST(SimulationTest, NestedScheduling) {
  Simulation sim(1);
  std::vector<TimePoint> times;
  sim.After(10, [&] {
    times.push_back(sim.Now());
    sim.After(15, [&] { times.push_back(sim.Now()); });
  });
  sim.RunUntil(kLongAfter);
  EXPECT_EQ(times, (std::vector<TimePoint>{10, 25}));
}

TEST(SimulationTest, RunUntilStopsAtDeadline) {
  Simulation sim(1);
  int count = 0;
  // Self-rescheduling timer.
  std::function<void()> tick = [&] {
    ++count;
    sim.After(10, tick);
  };
  sim.After(10, tick);
  sim.RunUntil(105);
  EXPECT_EQ(count, 10);  // t=10..100.
}

TEST(SimulationTest, RunUntilConditionFires) {
  Simulation sim(1);
  int x = 0;
  sim.After(50, [&] { x = 1; });
  sim.After(60, [&] { x = 2; });
  Status s = sim.RunUntilCondition([&] { return x == 1; }, 1000);
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(sim.Now(), 50);
}

TEST(SimulationTest, RunUntilConditionTimesOut) {
  Simulation sim(1);
  Status s = sim.RunUntilCondition([] { return false; }, 500);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(sim.Now(), 500);
}

TEST(NetworkTest, DeliversWithLatency) {
  Simulation sim(7);
  Network net(&sim, LatencyModel{Milliseconds(50), Milliseconds(0)});
  NodeId a = net.AddNode();
  NodeId b = net.AddNode();
  TimePoint delivered_at = -1;
  net.SendMessage(Envelope(a, b),
                  [&](const proto::Message&) { delivered_at = sim.Now(); });
  sim.RunUntil(kLongAfter);
  EXPECT_EQ(delivered_at, 50);
  EXPECT_EQ(net.delivered_count(), 1u);
}

TEST(NetworkTest, CrashedReceiverDropsMessage) {
  Simulation sim(7);
  Network net(&sim, LatencyModel{Milliseconds(10), Milliseconds(0)});
  NodeId a = net.AddNode();
  NodeId b = net.AddNode();
  net.Crash(b);
  bool delivered = false;
  net.SendMessage(Envelope(a, b),
                  [&](const proto::Message&) { delivered = true; });
  sim.RunUntil(kLongAfter);
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.dropped_count(), 1u);
}

TEST(NetworkTest, CrashMidFlightDropsMessage) {
  Simulation sim(7);
  Network net(&sim, LatencyModel{Milliseconds(100), Milliseconds(0)});
  NodeId a = net.AddNode();
  NodeId b = net.AddNode();
  bool delivered = false;
  net.SendMessage(Envelope(a, b),
                  [&](const proto::Message&) { delivered = true; });
  sim.After(50, [&] { net.Crash(b); });  // Crashes while in flight.
  sim.RunUntil(kLongAfter);
  EXPECT_FALSE(delivered);
}

TEST(NetworkTest, RecoveryRestoresDelivery) {
  Simulation sim(7);
  Network net(&sim, LatencyModel{Milliseconds(10), Milliseconds(0)});
  NodeId a = net.AddNode();
  NodeId b = net.AddNode();
  net.Crash(b);
  net.Recover(b);
  bool delivered = false;
  net.SendMessage(Envelope(a, b),
                  [&](const proto::Message&) { delivered = true; });
  sim.RunUntil(kLongAfter);
  EXPECT_TRUE(delivered);
}

TEST(NetworkTest, PartitionBlocksCrossGroupTraffic) {
  Simulation sim(7);
  Network net(&sim, LatencyModel{Milliseconds(10), Milliseconds(0)});
  NodeId a = net.AddNode();
  NodeId b = net.AddNode();
  net.SetPartition(b, 1);
  bool delivered = false;
  net.SendMessage(Envelope(a, b),
                  [&](const proto::Message&) { delivered = true; });
  sim.RunUntil(kLongAfter);
  EXPECT_FALSE(delivered);

  net.SetPartition(b, 0);
  net.SendMessage(Envelope(a, b),
                  [&](const proto::Message&) { delivered = true; });
  sim.RunUntil(2 * kLongAfter);
  EXPECT_TRUE(delivered);
}

TEST(NetworkTest, JitterWithinBounds) {
  Simulation sim(9);
  testutil::RecordingChooser recorder;
  sim.set_chooser(&recorder);
  Network net(&sim, LatencyModel{Milliseconds(20), Milliseconds(30)});
  NodeId a = net.AddNode();
  NodeId b = net.AddNode();
  std::vector<TimePoint> delivered_at;
  for (int i = 0; i < 200; ++i) {
    net.SendMessage(Envelope(a, b), [&](const proto::Message&) {
      delivered_at.push_back(sim.Now());
    });
  }
  // Each send asks for one jitter choice, in [0, jitter], and its copy
  // lands base + jitter later.
  ASSERT_EQ(recorder.choices().size(), 200u);
  std::vector<TimePoint> expected;
  for (const testutil::Choice& choice : recorder.choices()) {
    EXPECT_EQ(choice.site, ChoiceSite::kJitter);
    EXPECT_LE(choice.value, 30u);
    expected.push_back(20 + static_cast<TimePoint>(choice.value));
  }
  sim.RunUntil(kLongAfter);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(delivered_at, expected);
  EXPECT_GT(std::set<TimePoint>(expected.begin(), expected.end()).size(), 1u);
}

TEST(FailureInjectorTest, CrashWindowCrashesAndRecovers) {
  Simulation sim(11);
  Network net(&sim, LatencyModel{});
  NodeId n = net.AddNode();
  FailureInjector injector(&sim, &net);
  injector.CrashFor(n, 100, 200);

  std::vector<bool> up_samples;
  for (TimePoint t : {50, 150, 250, 350}) {
    sim.At(t, [&, t] { up_samples.push_back(net.IsUp(n)); });
  }
  sim.RunUntil(kLongAfter);
  EXPECT_EQ(up_samples, (std::vector<bool>{true, false, false, true}));
}

TEST(FailureInjectorTest, PermanentCrashNeverRecovers) {
  Simulation sim(11);
  Network net(&sim, LatencyModel{});
  NodeId n = net.AddNode();
  FailureInjector injector(&sim, &net);
  injector.ScheduleCrash(CrashWindow{n, 10, kTimeInfinity});
  sim.RunUntil(10'000);
  EXPECT_FALSE(net.IsUp(n));
}

TEST(FailureInjectorTest, PartitionWindowIsolatesNode) {
  Simulation sim(13);
  Network net(&sim, LatencyModel{Milliseconds(1), Milliseconds(0)});
  NodeId a = net.AddNode();
  NodeId b = net.AddNode();
  FailureInjector injector(&sim, &net);
  injector.SchedulePartition(PartitionWindow{b, 100, 200});

  int delivered = 0;
  sim.At(150, [&] {
    net.SendMessage(Envelope(a, b),
                    [&](const proto::Message&) { ++delivered; });
  });
  sim.At(250, [&] {
    net.SendMessage(Envelope(a, b),
                    [&](const proto::Message&) { ++delivered; });
  });
  sim.RunUntil(kLongAfter);
  EXPECT_EQ(delivered, 1);  // Only the post-heal message lands.
}

}  // namespace
}  // namespace ac3::sim
