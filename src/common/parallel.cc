#include "common/parallel.h"

#include <algorithm>
#include <thread>

namespace ziggy {

size_t EffectiveThreads(size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

size_t ThreadsForCells(size_t requested, size_t cells) {
  if (requested != 0) return requested;
  return std::clamp<size_t>(cells / kCellsPerThread, 1, EffectiveThreads(0));
}

std::vector<TaskRange> PartitionTasks(size_t num_tasks, size_t num_threads) {
  std::vector<TaskRange> ranges;
  if (num_tasks == 0) return ranges;
  if (num_threads == 0) num_threads = 1;
  const size_t workers = num_threads < num_tasks ? num_threads : num_tasks;
  ranges.reserve(workers);
  const size_t base = num_tasks / workers;
  const size_t extra = num_tasks % workers;
  size_t begin = 0;
  for (size_t w = 0; w < workers; ++w) {
    const size_t len = base + (w < extra ? 1 : 0);
    ranges.push_back({begin, begin + len});
    begin += len;
  }
  return ranges;
}

WorkerPool::WorkerPool(size_t num_threads) {
  const size_t n = EffectiveThreads(num_threads);
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::Help(Batch* batch) {
  const size_t total = batch->ranges.size();
  for (;;) {
    const size_t w = batch->next.fetch_add(1, std::memory_order_relaxed);
    if (w >= total) return;
    (*batch->body)(batch->ranges[w], w);
    if (batch->done.fetch_add(1, std::memory_order_acq_rel) + 1 == total) {
      MutexLock lock(batch->mu);
      batch->cv.NotifyAll();
    }
  }
}

void WorkerPool::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      MutexLock lock(mu_);
      cv_.Wait(mu_, [this]() ZIGGY_REQUIRES(mu_) {
        return stopping_ || !queue_.empty();
      });
      if (stopping_) return;
      batch = queue_.front();
      // A batch stays queued until its cursor passes the end, so several
      // workers can drain one large batch; fully claimed batches are
      // dropped here before waiting again.
      if (batch->next.load(std::memory_order_relaxed) >= batch->ranges.size()) {
        queue_.pop_front();
        continue;
      }
    }
    Help(batch.get());
  }
}

void WorkerPool::Run(size_t parallelism, size_t num_tasks,
                     const std::function<void(TaskRange, size_t)>& body) {
  std::vector<TaskRange> ranges = PartitionTasks(num_tasks, parallelism);
  if (ranges.empty()) return;
  if (ranges.size() == 1) {
    body(ranges[0], 0);
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->ranges = std::move(ranges);
  batch->body = &body;
  const size_t total = batch->ranges.size();
  {
    MutexLock lock(mu_);
    queue_.push_back(batch);
  }
  cv_.NotifyAll();
  Help(batch.get());  // the caller always participates — see header
  MutexLock lock(batch->mu);
  batch->cv.Wait(batch->mu, [&] {
    return batch->done.load(std::memory_order_acquire) == total;
  });
}

WorkerPool& SharedWorkerPool() {
  // Leaked intentionally: worker threads must be joinable for the whole
  // process lifetime regardless of static destruction order.
  static WorkerPool* pool = new WorkerPool(0);
  return *pool;
}

void ParallelFor(size_t num_threads, size_t num_tasks,
                 const std::function<void(TaskRange, size_t)>& body) {
  if (num_tasks == 0) return;
  if (num_threads <= 1 || num_tasks == 1) {
    body(TaskRange{0, num_tasks}, 0);  // sequential: no pool, no allocation
    return;
  }
  SharedWorkerPool().Run(num_threads, num_tasks, body);
}

void ParallelForEach(size_t num_threads, size_t num_tasks,
                     const std::function<void(size_t)>& fn) {
  ParallelFor(num_threads, num_tasks, [&fn](TaskRange range, size_t) {
    for (size_t i = range.begin; i < range.end; ++i) fn(i);
  });
}

}  // namespace ziggy
