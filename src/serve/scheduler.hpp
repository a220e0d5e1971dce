// The request scheduler: an admission gate that runs each request on the
// thread that submitted it, at most `workers` at a time, in FIFO order.
//
// Admission model:
//   * run() either admits a request or refuses it at once -- kQueueFull when
//     `queueCapacity` admitted requests are already waiting to start (the
//     caller answers 429), kDraining once drain() started (the caller
//     answers 503).  Admission never blocks, so a saturated server sheds
//     load in O(1) instead of stacking clients.
//   * an admitted request takes a FIFO ticket and waits until its ticket is
//     next and fewer than `workers` requests are running.  Requests start
//     in admission order.
//   * every request may carry an absolute deadline.  Deadlines govern
//     WAITING: a request whose deadline passed before its turn came returns
//     kExpired without running (the caller answers 504); a request that
//     started in time always runs to completion.
//
// Execution model: the scheduler owns no thread.  run() executes the work
// inline on the calling (connection) thread, so a request costs no thread
// hop and no hand-off.  The server runs each request serially inside
// (numThreads = 1), so `workers` bounds the CPU the requests use and
// concurrency comes from running several requests at once.
//
// Draining: drain() stops admission and blocks until every admitted request
// has run or expired.  Idempotent; the destructor drains.
//
// Observability (the serve.* glossary in docs/observability.md): counters
// serve.accepted / serve.rejected / serve.expired / serve.completed /
// serve.failed, gauges serve.queue_depth (current) and
// serve.queue_high_water (all-time max), interned in the injected registry.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>

#include "obs/metrics.hpp"

namespace relb::serve {

struct SchedulerConfig {
  /// Requests allowed to run at once, util::ThreadPool width semantics
  /// (0 = one per core).
  int workers = 0;
  /// Maximum number of ADMITTED-but-not-started requests; admissions beyond
  /// it are refused with kQueueFull.
  std::size_t queueCapacity = 64;
};

class Scheduler {
 public:
  enum class Outcome { kRan, kExpired, kQueueFull, kDraining };

  /// No deadline: the request waits for its turn however long it takes.
  static constexpr std::chrono::steady_clock::time_point kNoDeadline =
      std::chrono::steady_clock::time_point::min();

  explicit Scheduler(const SchedulerConfig& config,
                     obs::Registry& registry = obs::Registry::global());
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Admits, waits for the request's turn, and runs `work` on the calling
  /// thread; kRan once it returned.  An exception from `work` counts
  /// serve.failed, frees the slot, and propagates to the caller.
  Outcome run(std::chrono::steady_clock::time_point deadline,
              const std::function<void()>& work);

  /// Stops admission and blocks until every admitted request has run or
  /// expired.  Safe to call repeatedly and from any thread.
  void drain();

  /// Requests admitted but not yet started.
  [[nodiscard]] std::size_t queueDepth() const;

  /// Resolved cap on concurrently running requests.
  [[nodiscard]] int workers() const { return workers_; }

 private:
  /// Hands a running request's slot back.
  void finish();

  obs::Counter& acceptedCounter_;
  obs::Counter& rejectedCounter_;
  obs::Counter& expiredCounter_;
  obs::Counter& completedCounter_;
  obs::Counter& failedCounter_;
  obs::Gauge& queueDepthGauge_;
  obs::Gauge& queueHighWaterGauge_;

  std::size_t capacity_;
  int workers_;

  mutable std::mutex mutex_;
  /// Signalled whenever a ticket starts or a running request finishes.
  std::condition_variable changed_;
  std::uint64_t nextTicket_ = 0;  // handed to the next admitted request
  std::uint64_t nowServing_ = 0;  // the next ticket allowed to start
  int running_ = 0;
  bool draining_ = false;
};

}  // namespace relb::serve
