// Minimal deterministic parallel-for used by the columnar scan pipeline.
//
// Design constraints (why this is not a generic task scheduler):
//  * Partitioning must be deterministic: worker w always receives the same
//    contiguous task range for a given (num_tasks, num_threads). Callers
//    partition by column (the profile, the selection scan, the rank-sum
//    gather), so every accumulator is owned by one worker and sums its
//    values in the sequential order: results do not depend on the thread
//    count at all.
//  * Workers are the resident WorkerPool below, shared by every caller in
//    the process; the calling thread always takes part in its own batch.
//  * Exceptions do not cross thread boundaries here: worker bodies are
//    expected to be noexcept in practice (pure arithmetic over
//    preallocated state). ZIGGY_CHECK failures abort the process as they
//    do on the sequential path.

#ifndef ZIGGY_COMMON_PARALLEL_H_
#define ZIGGY_COMMON_PARALLEL_H_

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/sync.h"

namespace ziggy {

/// \brief Resolves a user-facing thread-count knob: 0 = one thread per
/// hardware core, otherwise the value itself; never less than 1.
size_t EffectiveThreads(size_t requested);

/// \brief Table cells (rows x columns) per thread of an auto-sized pass:
/// the one grain of the profile build and the selection scan.
inline constexpr size_t kCellsPerThread = size_t{1} << 16;

/// \brief Thread count for a pass over `cells` table cells: an explicit
/// `requested` count pins it; 0 means one thread per kCellsPerThread
/// cells, at most one per core and at least one, so a pass below two
/// grains runs on the calling thread.
size_t ThreadsForCells(size_t requested, size_t cells);

/// \brief Contiguous half-open task range [begin, end) owned by one worker.
struct TaskRange {
  size_t begin = 0;
  size_t end = 0;

  size_t size() const { return end - begin; }
  bool empty() const { return begin >= end; }
};

/// \brief Deterministic static partition of `num_tasks` into at most
/// `num_threads` contiguous ranges (first `num_tasks % num_threads` ranges
/// get one extra task). Empty ranges are not emitted.
std::vector<TaskRange> PartitionTasks(size_t num_tasks, size_t num_threads);

/// \brief Resident pool of helper threads shared by every ParallelFor in
/// the process (the serving catalog's "one worker pool for all tables").
///
/// Execution model: each Run() publishes its deterministic partition as a
/// batch of claimable ranges; pool workers AND the calling thread claim
/// ranges via an atomic cursor, and the caller blocks until every range of
/// its own batch has finished. Because the caller always participates, a
/// Run() completes even when every pool thread is busy with other tables'
/// scans (it degrades to the old inline execution) — nested Run() calls
/// from inside a body cannot deadlock for the same reason.
///
/// Determinism: the body receives the partition index (0..P-1), so
/// per-partition state (such as a scan's sink stripe) is chosen by the
/// partition, never by which OS thread ran the range.
class WorkerPool {
 public:
  /// `num_threads` helper threads (0 = one per hardware core).
  explicit WorkerPool(size_t num_threads = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Runs `body(range, partition_index)` over PartitionTasks(num_tasks,
  /// parallelism). Blocks until every range has run. Thread-safe; may be
  /// called concurrently from any number of threads, including from inside
  /// a body already running on this pool.
  void Run(size_t parallelism, size_t num_tasks,
           const std::function<void(TaskRange, size_t)>& body);

 private:
  struct Batch {
    std::vector<TaskRange> ranges;
    const std::function<void(TaskRange, size_t)>* body = nullptr;
    std::atomic<size_t> next{0};   ///< next unclaimed partition index
    std::atomic<size_t> done{0};   ///< partitions finished
    Mutex mu{LockRank::kWorkerBatch, "parallel.batch.mu"};
    CondVar cv;                    ///< signalled when done reaches ranges
  };

  /// Claims and runs ranges of `batch` until none are left unclaimed.
  static void Help(Batch* batch);

  void WorkerLoop();

  // The pool queue lock and a batch's completion latch are never held
  // together (Help signals done under batch->mu only, after releasing the
  // queue lock), but callers block on batch->mu while holding serve-tier
  // locks, hence the high leaf-adjacent ranks.
  Mutex mu_{LockRank::kWorkerPool, "parallel.pool.mu_"};
  CondVar cv_;
  std::deque<std::shared_ptr<Batch>> queue_ ZIGGY_GUARDED_BY(mu_);
  bool stopping_ ZIGGY_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;
};

/// \brief The process-wide pool ParallelFor executes on. Created lazily on
/// first use, sized to the hardware; never destroyed (it must outlive any
/// static-destruction-order races with user code).
WorkerPool& SharedWorkerPool();

/// \brief Runs `body(range, worker_index)` over a deterministic static
/// partition of [0, num_tasks). With num_threads <= 1 (or a single
/// partition) the body runs inline on the calling thread — the sequential
/// path stays allocation- and thread-free. Parallel partitions execute on
/// the shared worker pool; results are identical either way because the
/// partitioning, not the executing thread, decides which task runs where.
/// Blocks until all workers finish.
void ParallelFor(size_t num_threads, size_t num_tasks,
                 const std::function<void(TaskRange, size_t)>& body);

/// \brief Element-wise convenience: `fn(task_index)` for each task in
/// [0, num_tasks), statically partitioned across `num_threads`.
void ParallelForEach(size_t num_threads, size_t num_tasks,
                     const std::function<void(size_t)>& fn);

}  // namespace ziggy

#endif  // ZIGGY_COMMON_PARALLEL_H_
