#include "serve/scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace relb::serve {
namespace {

using Outcome = Scheduler::Outcome;
constexpr auto kNoDeadline = Scheduler::kNoDeadline;

/// Occupies one lane until release().  run() blocks its caller, so the plug
/// runs on a thread of its own; the constructor returns once it started.
class Plug {
 public:
  explicit Plug(Scheduler& scheduler)
      : thread_([this, &scheduler] {
          outcome_ = scheduler.run(kNoDeadline, [this] {
            started_.store(true);
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return released_; });
          });
        }) {
    while (!started_.load()) std::this_thread::yield();
  }
  ~Plug() { release(); }

  Outcome release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return outcome_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool released_ = false;
  std::atomic<bool> started_{false};
  Outcome outcome_ = Outcome::kDraining;
  std::thread thread_;  // last: starts once every member above exists
};

void waitForDepth(const Scheduler& scheduler, std::size_t depth) {
  while (scheduler.queueDepth() < depth) std::this_thread::yield();
}

TEST(Scheduler, RunsSubmittedJobs) {
  // Each job runs inline, on the thread that called run().
  obs::Registry registry;
  Scheduler scheduler(SchedulerConfig{2, 16}, registry);
  int ran = 0;
  for (int i = 0; i < 10; ++i) {
    std::thread::id ranOn;
    ASSERT_EQ(scheduler.run(kNoDeadline,
                            [&] {
                              ++ran;
                              ranOn = std::this_thread::get_id();
                            }),
              Outcome::kRan);
    EXPECT_EQ(ranOn, std::this_thread::get_id());
  }
  scheduler.drain();
  EXPECT_EQ(ran, 10);
  const auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counterValue("serve.accepted"), 10u);
  EXPECT_EQ(snapshot.counterValue("serve.completed"), 10u);
  EXPECT_EQ(snapshot.counterValue("serve.rejected"), 0u);
  EXPECT_EQ(snapshot.counterValue("serve.expired"), 0u);
}

TEST(Scheduler, ZeroCapacityRejectsEverySubmission) {
  // The deterministic queue-full path: with capacity 0 every request is
  // refused at admission, even with every lane free.
  obs::Registry registry;
  Scheduler scheduler(SchedulerConfig{1, 0}, registry);
  int ran = 0;
  EXPECT_EQ(scheduler.run(kNoDeadline, [&ran] { ++ran; }),
            Outcome::kQueueFull);
  scheduler.drain();
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(registry.snapshot().counterValue("serve.rejected"), 1u);
}

TEST(Scheduler, BoundedQueueRejectsBeyondCapacity) {
  obs::Registry registry;
  Scheduler scheduler(SchedulerConfig{1, 2}, registry);
  Plug plug(scheduler);  // the single lane is busy: admitted requests wait

  std::atomic<int> ran{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < 2; ++i) {
    waiters.emplace_back([&] {
      EXPECT_EQ(scheduler.run(kNoDeadline, [&ran] { ran.fetch_add(1); }),
                Outcome::kRan);
    });
  }
  waitForDepth(scheduler, 2);
  EXPECT_EQ(scheduler.queueDepth(), 2u);
  // Queue full now: refused at once, without waiting.
  EXPECT_EQ(scheduler.run(kNoDeadline, [&ran] { ran.fetch_add(1); }),
            Outcome::kQueueFull);

  EXPECT_EQ(plug.release(), Outcome::kRan);
  for (std::thread& waiter : waiters) waiter.join();
  scheduler.drain();
  EXPECT_EQ(ran.load(), 2);
  const auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counterValue("serve.rejected"), 1u);
  EXPECT_EQ(snapshot.gaugeValue("serve.queue_high_water"), 2);
  EXPECT_EQ(snapshot.gaugeValue("serve.queue_depth"), 0);
}

TEST(Scheduler, ExpiredRequestsDoNotRun) {
  // A deadline in the past is already expired when the turn comes: the
  // work must never run.
  obs::Registry registry;
  Scheduler scheduler(SchedulerConfig{1, 16}, registry);
  int ran = 0;
  const auto past =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  EXPECT_EQ(scheduler.run(past, [&ran] { ++ran; }), Outcome::kExpired);
  // The expired request gave its turn up: the next one starts.
  EXPECT_EQ(scheduler.run(kNoDeadline, [&ran] { ++ran; }), Outcome::kRan);
  scheduler.drain();
  EXPECT_EQ(ran, 1);
  const auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counterValue("serve.expired"), 1u);
  EXPECT_EQ(snapshot.counterValue("serve.completed"), 1u);
}

TEST(Scheduler, DeadlinePassingWhileWaitingExpires) {
  obs::Registry registry;
  Scheduler scheduler(SchedulerConfig{1, 16}, registry);
  Plug plug(scheduler);
  std::atomic<int> ran{0};
  std::thread waiter([&] {
    const auto soon =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(1);
    EXPECT_EQ(scheduler.run(soon, [&ran] { ran.fetch_add(1); }),
              Outcome::kExpired);
  });
  waitForDepth(scheduler, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  plug.release();
  waiter.join();
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(registry.snapshot().counterValue("serve.expired"), 1u);
}

TEST(Scheduler, FutureDeadlineDoesNotExpireAnIdleQueue) {
  obs::Registry registry;
  Scheduler scheduler(SchedulerConfig{1, 16}, registry);
  int ran = 0;
  const auto later = std::chrono::steady_clock::now() + std::chrono::hours(1);
  EXPECT_EQ(scheduler.run(later, [&ran] { ++ran; }), Outcome::kRan);
  scheduler.drain();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(registry.snapshot().counterValue("serve.expired"), 0u);
}

TEST(Scheduler, WaitingRequestsStartInAdmissionOrder) {
  obs::Registry registry;
  Scheduler scheduler(SchedulerConfig{1, 16}, registry);
  Plug plug(scheduler);

  constexpr int kWaiters = 8;
  std::mutex orderMutex;
  std::vector<int> order;
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&, i] {
      (void)scheduler.run(kNoDeadline, [&, i] {
        std::lock_guard<std::mutex> lock(orderMutex);
        order.push_back(i);
      });
    });
    // Admit waiter i before starting waiter i + 1.
    waitForDepth(scheduler, static_cast<std::size_t>(i) + 1);
  }
  plug.release();
  for (std::thread& waiter : waiters) waiter.join();
  std::vector<int> expected(kWaiters);
  for (int i = 0; i < kWaiters; ++i) expected[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(order, expected);
}

TEST(Scheduler, NeverRunsMoreThanWorkersAtOnce) {
  obs::Registry registry;
  Scheduler scheduler(SchedulerConfig{2, 16}, registry);
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  std::vector<std::thread> callers;
  for (int i = 0; i < 6; ++i) {
    callers.emplace_back([&] {
      (void)scheduler.run(kNoDeadline, [&] {
        const int now = running.fetch_add(1) + 1;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        running.fetch_sub(1);
      });
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_LE(peak.load(), scheduler.workers());
  EXPECT_EQ(registry.snapshot().counterValue("serve.completed"), 6u);
}

TEST(Scheduler, DrainCompletesQueuedJobsAndRejectsNewOnes) {
  obs::Registry registry;
  constexpr int kWaiters = 8;
  Scheduler scheduler(SchedulerConfig{1, kWaiters}, registry);
  Plug plug(scheduler);

  std::atomic<int> ran{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      EXPECT_EQ(scheduler.run(kNoDeadline, [&ran] { ran.fetch_add(1); }),
                Outcome::kRan);
    });
  }
  waitForDepth(scheduler, kWaiters);

  std::atomic<bool> drained{false};
  std::thread drainer([&] {
    scheduler.drain();
    drained.store(true);
  });
  // The queue is full, so a request that slips in before drain() took
  // effect is refused with kQueueFull instead of waiting.
  for (;;) {
    const Outcome outcome = scheduler.run(kNoDeadline, [&ran] {
      ran.fetch_add(1);
    });
    if (outcome == Outcome::kDraining) break;
    ASSERT_EQ(outcome, Outcome::kQueueFull);
    std::this_thread::yield();
  }
  // drain() waits for everything admitted, the plug included.
  EXPECT_FALSE(drained.load());
  EXPECT_EQ(plug.release(), Outcome::kRan);
  drainer.join();
  for (std::thread& waiter : waiters) waiter.join();
  EXPECT_EQ(ran.load(), kWaiters);  // graceful: everything admitted ran

  EXPECT_EQ(scheduler.run(kNoDeadline, [&ran] { ran.fetch_add(1); }),
            Outcome::kDraining);
  EXPECT_EQ(ran.load(), kWaiters);
  // Idempotent from any thread.
  scheduler.drain();
  const auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counterValue("serve.accepted"),
            snapshot.counterValue("serve.completed"));
}

TEST(Scheduler, ThrowingWorkCountsAsFailedAndFreesItsSlot) {
  obs::Registry registry;
  Scheduler scheduler(SchedulerConfig{1, 16}, registry);
  EXPECT_THROW(
      (void)scheduler.run(kNoDeadline,
                          [] { throw std::runtime_error("boom"); }),
      std::runtime_error);
  // The only lane was handed back: the next request runs.
  int ran = 0;
  EXPECT_EQ(scheduler.run(kNoDeadline, [&ran] { ++ran; }), Outcome::kRan);
  scheduler.drain();
  EXPECT_EQ(ran, 1);
  const auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counterValue("serve.failed"), 1u);
  EXPECT_EQ(snapshot.counterValue("serve.completed"), 1u);
}

}  // namespace
}  // namespace relb::serve
