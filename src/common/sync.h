// Annotated synchronization layer: every mutex in the codebase goes through
// these wrappers so that two machine checks can enforce the locking
// discipline that previously lived only in comments.
//
//  1. Clang thread-safety analysis. The ZIGGY_* annotation macros expand to
//     clang's capability attributes (-Wthread-safety); on other compilers
//     they vanish. Fields state their guard with ZIGGY_GUARDED_BY, private
//     *Locked helpers state their precondition with ZIGGY_REQUIRES, and the
//     CI clang legs build with -Werror=thread-safety-*.
//
//  2. A debug-only lock-rank checker. Every Mutex is constructed with a
//     static LockRank and a human-readable site name. A thread-local stack
//     of held locks asserts that ranks are acquired in strictly increasing
//     order; an inversion (or a recursive acquisition) aborts, printing the
//     acquiring site and every held site. Under NDEBUG the checker compiles
//     out completely — Mutex is layout-identical to std::mutex (pinned by a
//     static_assert) and Lock()/Unlock() are plain lock()/unlock().
//
// The rank hierarchy itself is documented on LockRank below and in the
// README's "Concurrency model" section. Lower rank = outer lock.

#ifndef ZIGGY_COMMON_SYNC_H_
#define ZIGGY_COMMON_SYNC_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

// ---------------------------------------------------------------------------
// Clang thread-safety annotation macros (no-ops on other compilers).
// Names and shapes follow the clang Thread Safety Analysis documentation.
// ---------------------------------------------------------------------------

#if defined(__clang__) && !defined(SWIG)
#define ZIGGY_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define ZIGGY_THREAD_ANNOTATION__(x)
#endif

#define ZIGGY_CAPABILITY(x) ZIGGY_THREAD_ANNOTATION__(capability(x))
#define ZIGGY_SCOPED_CAPABILITY ZIGGY_THREAD_ANNOTATION__(scoped_lockable)
#define ZIGGY_GUARDED_BY(x) ZIGGY_THREAD_ANNOTATION__(guarded_by(x))
#define ZIGGY_PT_GUARDED_BY(x) ZIGGY_THREAD_ANNOTATION__(pt_guarded_by(x))
#define ZIGGY_ACQUIRED_BEFORE(...) \
  ZIGGY_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define ZIGGY_ACQUIRED_AFTER(...) \
  ZIGGY_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))
#define ZIGGY_REQUIRES(...) \
  ZIGGY_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define ZIGGY_ACQUIRE(...) \
  ZIGGY_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define ZIGGY_RELEASE(...) \
  ZIGGY_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define ZIGGY_TRY_ACQUIRE(...) \
  ZIGGY_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
#define ZIGGY_EXCLUDES(...) ZIGGY_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))
#define ZIGGY_ASSERT_CAPABILITY(x) \
  ZIGGY_THREAD_ANNOTATION__(assert_capability(x))
#define ZIGGY_RETURN_CAPABILITY(x) ZIGGY_THREAD_ANNOTATION__(lock_returned(x))
#define ZIGGY_NO_THREAD_SAFETY_ANALYSIS \
  ZIGGY_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace ziggy {

// ---------------------------------------------------------------------------
// Lock ranks. Lower rank = acquired first (outermost). A thread may only
// acquire a mutex whose rank is strictly greater than every mutex it already
// holds; in particular no two mutexes of the same rank may ever be held
// together (every same-rank family in the codebase — cache stripes, table
// states, sessions, connections — is locked one instance at a time).
//
// The numbers encode the nesting evidence in the code:
//   * daemon tier (100s): loop/dispatch bookkeeping. These four are in fact
//     never nested today; the order matches the loop -> connection dataflow.
//   * serve tier (200s): catalog mu_ is held across server->state(),
//     num_sessions() and stats(); append_mu_ across state(); session mu
//     across state() and the whole Characterize, including its cold scan
//     on the worker pool.
//   * persist tier (300s): SaveTable/LoadTable/RemoveTable hold the
//     per-table lock across short manifest scopes; RemoveTable reaches the
//     dict pool while holding the table lock.
//   * leaf tier (400s/500s): cache stripes are taken under catalog/session
//     locks; the worker pool is reached from under a session; fault sites
//     fire inside fs/wire ops under store and connection locks; metric
//     lookups happen under the catalog flush lock.
// ---------------------------------------------------------------------------
enum class LockRank : uint16_t {
  // --- daemon tier -------------------------------------------------------
  kDaemonConnections = 100,  // ZiggyDaemon::connections_mu_
  kConnection = 110,         // Connection::mu (one connection at a time)
  kDaemonDispatch = 120,     // ZiggyDaemon::dispatch_mu_
  kDaemonNotify = 130,       // ZiggyDaemon::notify_mu_
  // --- serve tier --------------------------------------------------------
  kCatalog = 200,        // ServerCatalog::mu_
  kCatalogFlush = 210,   // ServerCatalog::flush_mu_
  kServerAppend = 220,   // ZiggyServer::append_mu_
  kServerSessions = 230, // ZiggyServer::sessions_mu_
  kSession = 240,        // Session::mu (one session at a time)
  kServerState = 250,    // ZiggyServer::state_mu_
  // --- persist tier ------------------------------------------------------
  kTableStore = 300,  // ZiggyStore::TableState::mu (one table at a time)
  kManifest = 310,    // ZiggyStore::mu_ (manifest + state map)
  kDictPool = 320,    // DictPool::mu_
  // --- leaf tier ---------------------------------------------------------
  kCacheStripe = 400,  // StripedMutex stripes (one stripe at a time)
  kWorkerPool = 420,   // WorkerPool::mu_ (task queue)
  kWorkerBatch = 430,  // WorkerPool::Batch::mu (completion latch)
  kFault = 500,        // FaultInjector::mu_ (fires inside fs/wire ops)
  kMetrics = 510,      // MetricsRegistry::mu_ (name lookup only)
};

namespace internal {

#ifndef NDEBUG
// Registers `mu` as held by this thread after checking that `rank` is
// strictly greater than every held rank; aborts (via ZIGGY_DCHECK) on an
// inversion or recursive acquisition, printing both sites.
void PushLockRank(const void* mu, uint16_t rank, const char* site);
// Unregisters `mu` (searched from the top of the stack; release order need
// not mirror acquisition order).
void PopLockRank(const void* mu, const char* site);
// True iff this thread currently holds `mu`.
bool LockRankHeld(const void* mu);
// ZIGGY_DCHECKs that this thread holds `mu`.
void AssertLockHeld(const void* mu, const char* site);
#endif

}  // namespace internal

/// \brief A std::mutex carrying a static lock rank and clang thread-safety
/// capability. All mutexes in the codebase are this type; the rank checker
/// (debug builds only) enforces the LockRank ordering at runtime.
class ZIGGY_CAPABILITY("mutex") Mutex {
 public:
#ifdef NDEBUG
  explicit Mutex(LockRank /*rank*/, const char* /*site*/) {}
#else
  explicit Mutex(LockRank rank, const char* site)
      : rank_(static_cast<uint16_t>(rank)), site_(site) {}
#endif
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ZIGGY_ACQUIRE() {
#ifndef NDEBUG
    internal::PushLockRank(this, rank_, site_);
#endif
    mu_.lock();
  }

  void Unlock() ZIGGY_RELEASE() {
    mu_.unlock();
#ifndef NDEBUG
    internal::PopLockRank(this, site_);
#endif
  }

  bool TryLock() ZIGGY_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
#ifndef NDEBUG
    internal::PushLockRank(this, rank_, site_);
#endif
    return true;
  }

  /// Debug assertion that the calling thread holds this mutex; tells the
  /// thread-safety analysis so too (for code reached only under the lock).
  void AssertHeld() ZIGGY_ASSERT_CAPABILITY(this) {
#ifndef NDEBUG
    internal::AssertLockHeld(this, site_);
#endif
  }

  // BasicLockable, so std::condition_variable_any waits drive the ranked
  // Lock/Unlock above and the held-lock bookkeeping stays exact across
  // blocking waits.
  void lock() ZIGGY_ACQUIRE() { Lock(); }
  void unlock() ZIGGY_RELEASE() { Unlock(); }
  bool try_lock() ZIGGY_TRY_ACQUIRE(true) { return TryLock(); }

 private:
  std::mutex mu_;
#ifndef NDEBUG
  uint16_t rank_;
  const char* site_;
#endif
};

#ifdef NDEBUG
// Release builds must pay nothing for the rank checker: no extra state, no
// extra code. (The ZIGGY_DCHECKs it routes through are likewise compiled to
// `(void)sizeof(...)` — see logging.h and tests/sync_test.cc.)
static_assert(sizeof(Mutex) == sizeof(std::mutex),
              "rank-checker state must compile out under NDEBUG");
#endif

/// \brief Scoped lock for Mutex. Relockable (the clang "scoped capability"
/// pattern): Unlock()/Lock() let long operations drop the lock mid-scope —
/// the destructor releases only if currently held.
class ZIGGY_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ZIGGY_ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_.Lock();
  }
  ~MutexLock() ZIGGY_RELEASE() {
    if (held_) mu_.Unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void Lock() ZIGGY_ACQUIRE() {
    mu_.Lock();
    held_ = true;
  }
  void Unlock() ZIGGY_RELEASE() {
    held_ = false;
    mu_.Unlock();
  }

 private:
  Mutex& mu_;
  bool held_;
};

/// \brief Condition variable paired with Mutex. Built on
/// std::condition_variable_any so that waits go through Mutex's own
/// lock()/unlock(), keeping the rank checker's held-stack exact while the
/// thread is blocked (the mutex is *not* held during the wait).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) ZIGGY_REQUIRES(mu) { cv_.wait(mu); }

  template <typename Predicate>
  void Wait(Mutex& mu, Predicate pred) ZIGGY_REQUIRES(mu) {
    cv_.wait(mu, std::move(pred));
  }

  /// Returns the predicate's value on wake (false means timed out).
  template <typename Rep, typename Period, typename Predicate>
  bool WaitFor(Mutex& mu, const std::chrono::duration<Rep, Period>& timeout,
               Predicate pred) ZIGGY_REQUIRES(mu) {
    return cv_.wait_for(mu, timeout, std::move(pred));
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace ziggy

// The issue tracker and docs refer to these types as zg::Mutex etc.
namespace zg = ziggy;

#endif  // ZIGGY_COMMON_SYNC_H_
