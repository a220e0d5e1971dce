#include "serve/scheduler.hpp"

#include "util/thread_pool.hpp"

namespace relb::serve {

Scheduler::Scheduler(const SchedulerConfig& config, obs::Registry& registry)
    : acceptedCounter_(registry.counter("serve.accepted")),
      rejectedCounter_(registry.counter("serve.rejected")),
      expiredCounter_(registry.counter("serve.expired")),
      completedCounter_(registry.counter("serve.completed")),
      failedCounter_(registry.counter("serve.failed")),
      queueDepthGauge_(registry.gauge("serve.queue_depth")),
      queueHighWaterGauge_(registry.gauge("serve.queue_high_water")),
      capacity_(config.queueCapacity),
      workers_(util::resolveThreadCount(config.workers)) {}

Scheduler::~Scheduler() { drain(); }

Scheduler::Outcome Scheduler::run(
    std::chrono::steady_clock::time_point deadline,
    const std::function<void()>& work) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (draining_) {
      rejectedCounter_.add();
      return Outcome::kDraining;
    }
    if (nextTicket_ - nowServing_ >= capacity_) {
      rejectedCounter_.add();
      return Outcome::kQueueFull;
    }
    const std::uint64_t ticket = nextTicket_++;
    acceptedCounter_.add();
    const auto depth = static_cast<std::int64_t>(nextTicket_ - nowServing_);
    queueDepthGauge_.set(depth);
    queueHighWaterGauge_.setMax(depth);

    changed_.wait(lock, [&] {
      return ticket == nowServing_ && running_ < workers_;
    });
    ++nowServing_;
    queueDepthGauge_.set(static_cast<std::int64_t>(nextTicket_ - nowServing_));
    // Notified under the lock here and below: once drain() can see this
    // request finished, it may return and the scheduler may be destroyed.
    changed_.notify_all();  // the next ticket may start too
    // Deadlines govern waiting: checked once, when the turn comes.  A
    // request that makes it past this point runs to completion even if it
    // is slow.
    if (deadline != kNoDeadline &&
        std::chrono::steady_clock::now() > deadline) {
      expiredCounter_.add();
      return Outcome::kExpired;
    }
    ++running_;
  }
  try {
    work();
  } catch (...) {
    failedCounter_.add();
    finish();
    throw;
  }
  completedCounter_.add();
  finish();
  return Outcome::kRan;
}

void Scheduler::finish() {
  std::lock_guard<std::mutex> lock(mutex_);
  --running_;
  changed_.notify_all();
}

void Scheduler::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  draining_ = true;
  changed_.wait(lock, [this] {
    return nowServing_ == nextTicket_ && running_ == 0;
  });
}

std::size_t Scheduler::queueDepth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return nextTicket_ - nowServing_;
}

}  // namespace relb::serve
