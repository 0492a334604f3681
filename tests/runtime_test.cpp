#include "runtime/runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>

#include "runtime/task.h"
#include "sched/loop.h"
#include "util/rng.h"

namespace hls::rt {
namespace {

class counting_task final : public task {
 public:
  explicit counting_task(std::atomic<int>& counter) : counter_(counter) {}
  void execute(worker&) override { counter_.fetch_add(1); }

 private:
  std::atomic<int>& counter_;
};

// Task that records which worker executed it.
class who_task final : public task {
 public:
  who_task(std::atomic<int>& counter, std::atomic<std::uint32_t>& who)
      : counter_(counter), who_(who) {}
  void execute(worker& w) override {
    who_.store(w.id());
    counter_.fetch_add(1);
  }

 private:
  std::atomic<int>& counter_;
  std::atomic<std::uint32_t>& who_;
};

TEST(Runtime, ConstructsAndDestructsAcrossWorkerCounts) {
  for (std::uint32_t p : {1u, 2u, 4u, 8u}) {
    runtime rt(p);
    EXPECT_EQ(rt.num_workers(), p);
  }
}

TEST(Runtime, InvalidWorkerCountsThrow) {
  EXPECT_THROW(runtime rt(0), std::invalid_argument);
  // A negative --workers cast to unsigned lands far above kMaxWorkers.
  EXPECT_THROW(runtime rt(static_cast<std::uint32_t>(-3)),
               std::invalid_argument);
  EXPECT_THROW(runtime rt(runtime::kMaxWorkers + 1), std::invalid_argument);
}

TEST(Runtime, CallerThreadIsWorkerZero) {
  runtime rt(4);
  EXPECT_EQ(rt.current_worker().id(), 0u);
}

TEST(Runtime, LocalTasksRunViaWorkUntil) {
  runtime rt(1);
  worker& w = rt.current_worker();
  std::atomic<int> count{0};
  constexpr int kN = 100;
  for (int i = 0; i < kN; ++i) w.push(new counting_task(count));
  w.work_until([&] { return count.load() == kN; });
  EXPECT_EQ(count.load(), kN);
}

TEST(Runtime, BackgroundWorkersStealPushedTasks) {
  runtime rt(4);
  worker& w = rt.current_worker();
  std::atomic<int> count{0};
  constexpr int kN = 2000;
  for (int i = 0; i < kN; ++i) w.push(new counting_task(count));
  w.work_until([&] { return count.load() == kN; });
  EXPECT_EQ(count.load(), kN);
}

TEST(Runtime, TasksPushedToOtherWorkersGetExecuted) {
  runtime rt(3);
  // Pushing to another worker's deque from this thread violates the owner
  // contract, so instead push to our own and verify a background worker can
  // end up executing (smoke test for stealing): run many tiny tasks and
  // check at least one executes on a non-zero worker under contention.
  worker& w = rt.current_worker();
  std::atomic<int> count{0};
  std::atomic<std::uint32_t> last_worker{0};
  constexpr int kN = 5000;
  for (int i = 0; i < kN; ++i) w.push(new who_task(count, last_worker));
  w.work_until([&] { return count.load() == kN; });
  EXPECT_EQ(count.load(), kN);
  // No assertion on last_worker: on a single-core host thieves may never
  // win; the value is only observed for coverage.
}

TEST(Runtime, NestedTaskPushesFromWorkerThread) {
  runtime rt(2);
  worker& w = rt.current_worker();
  std::atomic<int> leaves{0};

  class spawning_task final : public task {
   public:
    spawning_task(std::atomic<int>& leaves, int depth)
        : leaves_(leaves), depth_(depth) {}
    void execute(worker& w) override {
      if (depth_ == 0) {
        leaves_.fetch_add(1);
        return;
      }
      w.push(new spawning_task(leaves_, depth_ - 1));
      w.push(new spawning_task(leaves_, depth_ - 1));
    }

   private:
    std::atomic<int>& leaves_;
    int depth_;
  };

  w.push(new spawning_task(leaves, 10));  // 2^10 leaves
  w.work_until([&] { return leaves.load() == 1024; });
  EXPECT_EQ(leaves.load(), 1024);
}

TEST(Board, PostVisitClear) {
  runtime rt(1);
  struct one_shot : loop_record {
    std::atomic<bool> did{false};
    bool participate(worker&) override {
      return !did.exchange(true);
    }
    bool finished() const noexcept override { return did.load(); }
  };
  one_shot rec;
  board& b = rt.loop_board();
  EXPECT_FALSE(b.any_open());
  const std::uint64_t posts = b.posts();
  const int slot = b.post(&rec);
  EXPECT_TRUE(b.any_open());
  EXPECT_EQ(b.posts(), posts + 1);
  EXPECT_TRUE(b.visit(rt.current_worker()));
  EXPECT_TRUE(rec.did.load());
  EXPECT_FALSE(b.visit(rt.current_worker()));  // finished
  b.clear(slot);
  EXPECT_FALSE(b.any_open());
}

TEST(Board, MultipleRecordsAllVisited) {
  runtime rt(1);
  struct one_shot : loop_record {
    std::atomic<bool> did{false};
    bool participate(worker&) override { return !did.exchange(true); }
    bool finished() const noexcept override { return did.load(); }
  };
  board& b = rt.loop_board();
  one_shot r1;
  one_shot r2;
  const int s1 = b.post(&r1);
  const int s2 = b.post(&r2);
  EXPECT_NE(s1, s2);
  b.visit(rt.current_worker());
  EXPECT_TRUE(r1.did.load());
  EXPECT_TRUE(r2.did.load());
  b.clear(s1);
  b.clear(s2);
}

TEST(Runtime, WorkerRngSeedsAreIndependent) {
  // Worker RNGs are owner-thread-only, so probe the seed-derivation scheme
  // directly: the runtime seeds worker k with the k-th splitmix64 output,
  // and distinct splitmix seeds yield distinct first draws.
  std::uint64_t sm = 42;  // the runtime's default seed
  hls::xoshiro256ss r0(hls::splitmix64(sm));
  hls::xoshiro256ss r1(hls::splitmix64(sm));
  hls::xoshiro256ss r2(hls::splitmix64(sm));
  const std::uint64_t a = r0.next(), b = r1.next(), c = r2.next();
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_NE(a, c);
}

TEST(Runtime, IdleParkBailsOutWhenBoardIsOpen) {
  runtime rt(1);
  struct never_done : loop_record {
    bool participate(worker&) override { return false; }
    bool finished() const noexcept override { return false; }
  };
  never_done rec;
  const int slot = rt.loop_board().post(&rec);
  ASSERT_GE(slot, 0);
  EXPECT_TRUE(rt.work_visible(0));
  EXPECT_FALSE(rt.idle_park(rt.current_worker()).blocked);
  rt.loop_board().clear(slot);
}

// Regression (phantom sleep accounting): only parks that actually blocked
// may be counted, so idle_park's outcome distinguishes a real wait from an
// immediate bailout. With nothing to do the call must block until the
// backstop (and report it); the caller accounts idle_sleeps off that flag.
TEST(Runtime, IdleParkReportsRealWaits) {
  runtime rt(1);
  EXPECT_FALSE(rt.work_visible(0));
  const runtime::park_outcome out = rt.idle_park(rt.current_worker());
  EXPECT_TRUE(out.blocked);
  EXPECT_EQ(out.reason, parking_lot::wake_reason::timeout);
}

TEST(Runtime, SequentialRuntimesDoNotInterfere) {
  for (int i = 0; i < 5; ++i) {
    runtime rt(3);
    worker& w = rt.current_worker();
    std::atomic<int> count{0};
    for (int j = 0; j < 50; ++j) w.push(new counting_task(count));
    w.work_until([&] { return count.load() == 50; });
    EXPECT_EQ(count.load(), 50);
  }
}

// Regression (steal backoff): a worker that has run its static block
// while the loop is still open waits on its CPU for the next post. It used
// to back off in timed parks, announced in the parking lot, so its arrival
// at the next loop waited for a futex wake. The three peer blocks only
// count themselves done; block 0 then holds the loop open for 20 ms and
// samples the parking lot every 100 µs.
TEST(RuntimeIdle, PeersWaitingOnAnOpenLoopStayOutOfTheParkingLot) {
  using namespace std::chrono_literals;
  constexpr std::uint32_t kWorkers = 4;
  runtime rt(kWorkers);
  std::atomic<std::uint32_t> peers_done{0};
  int samples = 0;
  int announced = 0;
  parallel_for(rt, 0, kWorkers, policy::static_part,
               [&](std::int64_t lo, std::int64_t) {
                 if (lo != 0) {
                   peers_done.fetch_add(1);
                   return;
                 }
                 while (peers_done.load() != kWorkers - 1) {
                   std::this_thread::yield();
                 }
                 const auto end = std::chrono::steady_clock::now() + 20ms;
                 while (std::chrono::steady_clock::now() < end) {
                   ++samples;
                   if (rt.parking().waiters() != 0) ++announced;
                   std::this_thread::sleep_for(100us);
                 }
               });
  EXPECT_GT(samples, 0);
  EXPECT_EQ(announced, 0) << announced << " of " << samples
                          << " samples found a peer announced in the "
                             "parking lot while the loop was open";
}

}  // namespace
}  // namespace hls::rt
