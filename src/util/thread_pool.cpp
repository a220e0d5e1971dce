#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>

#ifdef __linux__
#include <sched.h>
#endif

#include "obs/metrics.hpp"

namespace relb::util {

namespace {
thread_local bool tlsInsideWorker = false;

/// The cgroup CPU quota in whole CPUs (rounded up), or 0 when none is set
/// or none can be read.  cgroup v2 keeps "<quota|max> <period>" in
/// cpu.max; v1 keeps the two numbers in separate files, quota -1 meaning
/// unlimited.
int cgroupCpuQuota() {
  long long quota = -1;
  long long period = 0;
  if (std::ifstream v2("/sys/fs/cgroup/cpu.max"); v2) {
    std::string text;
    if (v2 >> text >> period && text != "max") {
      quota = std::strtoll(text.c_str(), nullptr, 10);
    }
  } else {
    std::ifstream("/sys/fs/cgroup/cpu/cpu.cfs_quota_us") >> quota;
    std::ifstream("/sys/fs/cgroup/cpu/cpu.cfs_period_us") >> period;
  }
  if (quota <= 0 || period <= 0) return 0;
  return static_cast<int>((quota + period - 1) / period);
}
}  // namespace

int resolveThreadCount(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int availableCpuCount() {
  int cpus = resolveThreadCount(kDefaultNumThreads);
#ifdef __linux__
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    cpus = std::min(cpus, CPU_COUNT(&mask));
  }
#endif
  if (const int quota = cgroupCpuQuota(); quota > 0) {
    cpus = std::min(cpus, quota);
  }
  return std::max(cpus, 1);
}

bool insideWorker() { return tlsInsideWorker; }

ThreadPool::ThreadPool(int numThreads)
    : batchesCounter_(obs::Registry::global().counter("pool.batches")),
      itemsCounter_(obs::Registry::global().counter("pool.items")),
      concurrencyGauge_(obs::Registry::global().gauge("pool.concurrency")),
      activeGauge_(obs::Registry::global().gauge("pool.active")),
      maxBatchGauge_(obs::Registry::global().gauge("pool.max_batch")) {
  std::lock_guard<std::mutex> lock(mutex_);
  spawnWorkersLocked(resolveThreadCount(numThreads) - 1);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  hasWork_.notify_all();
  for (std::thread& w : workers_) w.join();
}

int ThreadPool::concurrency() {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(workers_.size()) + 1;
}

void ThreadPool::ensureConcurrency(int threads) {
  // Taking batchMutex_ keeps worker spawning out of any in-flight batch.
  std::lock_guard<std::mutex> batch(batchMutex_);
  std::lock_guard<std::mutex> lock(mutex_);
  const int want = threads - 1 - static_cast<int>(workers_.size());
  if (want > 0) spawnWorkersLocked(want);
}

void ThreadPool::spawnWorkersLocked(int count) {
  workers_.reserve(workers_.size() + static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
  concurrencyGauge_.setMax(static_cast<std::int64_t>(workers_.size()) + 1);
}

void ThreadPool::runItems(Batch& batch) {
  for (;;) {
    const std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch.size) return;
    try {
      (*batch.fn)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!batch.error) batch.error = std::current_exception();
      batch.next.store(batch.size, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::workerLoop() {
  tlsInsideWorker = true;
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    hasWork_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    Batch* batch = batch_;
    if (batch == nullptr) continue;  // woke after the batch finished
    ++batch->running;
    activeGauge_.setMax(batch->running + 1);  // +1: the participating caller
    lock.unlock();
    runItems(*batch);
    lock.lock();
    if (--batch->running == 0) batchDone_.notify_all();
  }
}

void ThreadPool::forEachIndex(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  bool noWorkers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    noWorkers = workers_.empty();
  }
  if (noWorkers || n == 1 || insideWorker()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::lock_guard<std::mutex> serial(batchMutex_);
  batchesCounter_.add();
  itemsCounter_.add(n);
  maxBatchGauge_.setMax(static_cast<std::int64_t>(n));
  Batch batch;
  batch.fn = &fn;
  batch.size = n;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    batch_ = &batch;
    ++generation_;
  }
  hasWork_.notify_all();
  // The caller participates as an extra lane.  It is marked as a worker for
  // the duration so that nested parallel sections issued from its items run
  // inline instead of re-entering the (already held) batch mutex.
  tlsInsideWorker = true;
  runItems(batch);
  tlsInsideWorker = false;
  std::unique_lock<std::mutex> lock(mutex_);
  batchDone_.wait(lock, [&] { return batch.running == 0; });
  batch_ = nullptr;
  if (batch.error) {
    lock.unlock();
    std::rethrow_exception(batch.error);
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace relb::util
