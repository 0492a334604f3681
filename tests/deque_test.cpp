#include "runtime/deque.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "runtime/task.h"

namespace hls::rt {
namespace {

// A task that just remembers an id; never executed in these tests.
class marker_task final : public task {
 public:
  explicit marker_task(std::int64_t id) : id_(id) {}
  void execute(worker&) override {}
  std::int64_t id() const noexcept { return id_; }

 private:
  std::int64_t id_;
};

TEST(Deque, PopOnEmptyReturnsNull) {
  ws_deque d;
  EXPECT_EQ(d.pop(), nullptr);
  EXPECT_EQ(d.steal(), nullptr);
  EXPECT_EQ(d.size_estimate(), 0);
}

TEST(Deque, LifoForOwner) {
  ws_deque d;
  marker_task a(1), b(2), c(3);
  d.push(&a);
  d.push(&b);
  d.push(&c);
  EXPECT_EQ(d.size_estimate(), 3);
  EXPECT_EQ(d.pop(), &c);
  EXPECT_EQ(d.pop(), &b);
  EXPECT_EQ(d.pop(), &a);
  EXPECT_EQ(d.pop(), nullptr);
}

TEST(Deque, FifoForThief) {
  ws_deque d;
  marker_task a(1), b(2), c(3);
  d.push(&a);
  d.push(&b);
  d.push(&c);
  EXPECT_EQ(d.steal(), &a);
  EXPECT_EQ(d.steal(), &b);
  EXPECT_EQ(d.steal(), &c);
  EXPECT_EQ(d.steal(), nullptr);
}

TEST(Deque, OwnerAndThiefMeetInTheMiddle) {
  ws_deque d;
  marker_task a(1), b(2);
  d.push(&a);
  d.push(&b);
  EXPECT_EQ(d.steal(), &a);
  EXPECT_EQ(d.pop(), &b);
  EXPECT_EQ(d.pop(), nullptr);
  EXPECT_EQ(d.steal(), nullptr);
}

TEST(Deque, GrowsPastInitialCapacity) {
  ws_deque d(4);
  std::vector<std::unique_ptr<marker_task>> tasks;
  constexpr int kN = 1000;
  for (int i = 0; i < kN; ++i) {
    tasks.push_back(std::make_unique<marker_task>(i));
    d.push(tasks.back().get());
  }
  EXPECT_EQ(d.size_estimate(), kN);
  for (int i = kN - 1; i >= 0; --i) {
    auto* t = static_cast<marker_task*>(d.pop());
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->id(), i);
  }
}

TEST(Deque, InterleavedPushPop) {
  ws_deque d(2);
  std::vector<std::unique_ptr<marker_task>> tasks;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 7; ++i) {
      tasks.push_back(std::make_unique<marker_task>(round * 10 + i));
      d.push(tasks.back().get());
    }
    for (int i = 0; i < 5; ++i) EXPECT_NE(d.pop(), nullptr);
  }
  // 100 * 2 remain
  int remaining = 0;
  while (d.pop() != nullptr) ++remaining;
  EXPECT_EQ(remaining, 200);
}

// Stress: one owner pushing/popping, several thieves stealing. Every task
// must be obtained exactly once across all parties. The ring starts tiny,
// so it grows repeatedly while thieves read it.
class DequeStress : public ::testing::TestWithParam<int> {};

TEST_P(DequeStress, EveryTaskTakenExactlyOnce) {
  const int thieves = GetParam();
  constexpr int kTasks = 20000;
  ws_deque d(4);
  std::vector<std::unique_ptr<marker_task>> tasks;
  tasks.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back(std::make_unique<marker_task>(i));
  }

  std::vector<std::atomic<int>> taken(kTasks);
  for (auto& t : taken) t.store(0);
  std::atomic<bool> done{false};

  std::vector<std::thread> pool;
  for (int t = 0; t < thieves; ++t) {
    pool.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        if (auto* t2 = static_cast<marker_task*>(d.steal())) {
          taken[t2->id()].fetch_add(1);
        }
      }
      // Final drain in case the owner finished while we dozed.
      while (auto* t2 = static_cast<marker_task*>(d.steal())) {
        taken[t2->id()].fetch_add(1);
      }
    });
  }

  // Owner: push all, popping occasionally (mixed workload).
  for (int i = 0; i < kTasks; ++i) {
    d.push(tasks[i].get());
    if (i % 3 == 0) {
      if (auto* t2 = static_cast<marker_task*>(d.pop())) {
        taken[t2->id()].fetch_add(1);
      }
    }
  }
  while (auto* t2 = static_cast<marker_task*>(d.pop())) {
    taken[t2->id()].fetch_add(1);
  }
  done.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();

  for (int i = 0; i < kTasks; ++i) {
    ASSERT_EQ(taken[i].load(), 1) << "task " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Thieves, DequeStress, ::testing::Values(1, 2, 4));

// The single-element race, isolated: one task in the deque, the owner pops
// while a thief steals. Exactly one side may win each round.
TEST(Deque, SingleElementRaceResolvesExactlyOnce) {
  constexpr int kRounds = 5000;
  ws_deque d(4);
  marker_task only(0);
  std::atomic<int> phase{0};  // round counter, advanced by the owner
  std::atomic<int> winners{0};
  std::atomic<bool> done{false};

  std::thread thief([&] {
    int seen = 0;
    while (!done.load(std::memory_order_acquire)) {
      if (phase.load(std::memory_order_acquire) > seen) {
        if (d.steal() != nullptr) winners.fetch_add(1);
        seen = phase.load(std::memory_order_acquire);
      }
    }
  });

  int owner_wins = 0;
  for (int r = 0; r < kRounds; ++r) {
    d.push(&only);
    phase.store(r + 1, std::memory_order_release);
    if (d.pop() != nullptr) {
      ++owner_wins;
    } else {
      // Thief won this round; wait until it has consumed the task so the
      // next round starts from an empty deque.
      while (winners.load(std::memory_order_acquire) + owner_wins <= r) {
      }
    }
  }
  done.store(true, std::memory_order_release);
  thief.join();
  EXPECT_EQ(owner_wins + winners.load(), kRounds);
}

}  // namespace
}  // namespace hls::rt
