// Process-wide observability substrate: named counters, gauges, and
// log-bucketed latency histograms behind a MetricsRegistry, with an
// injectable Clock so latency-sensitive tests stay deterministic.
//
// Design goals, in order:
//   1. The hot path is a handful of relaxed atomic ops. Counter and
//      Histogram stripe their cells across cache lines so concurrent
//      dispatch threads do not bounce a single counter line.
//   2. Readout is exact where it matters: counts, sums, and max are
//      kept exactly; percentiles come from log-linear buckets with 16
//      sub-buckets per power of two (relative error <= 1/16), and are
//      exact for values below 32.
//   3. Metric names may embed Prometheus label syntax directly, e.g.
//      `ziggy_requests_total{verb="OPEN"}` — the text renderer groups
//      such series under one family and merges extra labels (quantile)
//      into the brace set.
//
// Pointers returned by the registry are stable for its lifetime, so
// components resolve their metrics once at startup and touch only the
// atomic cells afterwards.

#ifndef ZIGGY_OBS_METRICS_H_
#define ZIGGY_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"

namespace ziggy {
namespace obs {

/// \brief Monotonic time source. Implementations must be thread-safe.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Microseconds since an arbitrary (per-process) epoch. Monotonic.
  virtual uint64_t NowMicros() const = 0;
};

/// Shared steady_clock-backed singleton; never deleted.
Clock* SystemClock();

/// \brief Manually advanced clock for deterministic tests.
class FakeClock : public Clock {
 public:
  /// Starts at a nonzero instant so "unset" (0) stays distinguishable.
  explicit FakeClock(uint64_t start_us = 1) : now_us_(start_us) {}

  uint64_t NowMicros() const override {
    return now_us_.load(std::memory_order_relaxed);
  }
  void AdvanceMicros(uint64_t us) {
    now_us_.fetch_add(us, std::memory_order_relaxed);
  }
  void AdvanceMillis(uint64_t ms) { AdvanceMicros(ms * 1000); }

 private:
  std::atomic<uint64_t> now_us_;
};

namespace internal {
// Stripe count for contended cells. Power of two; threads hash to a
// stripe by thread id, so concurrent writers usually touch different
// cache lines while readers sum all stripes.
inline constexpr size_t kStripes = 4;
size_t StripeIndex();
}  // namespace internal

/// \brief Monotonic counter. Add() is wait-free relaxed atomics.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) {
    cells_[internal::StripeIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t value() const {
    uint64_t total = 0;
    for (const auto& cell : cells_) {
      total += cell.v.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Raises the counter to `target` if it is currently below it; no-op
  /// otherwise. This is the carry primitive for mirroring an external
  /// monotonic total (e.g. cache counters summed across server
  /// generations) without ever letting the published value move
  /// backwards. Concurrent AdvanceTo callers must serialize; Add() may
  /// race freely.
  void AdvanceTo(uint64_t target) {
    const uint64_t current = value();
    if (target > current) {
      cells_[0].v.fetch_add(target - current, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  std::array<Cell, internal::kStripes> cells_;
};

/// \brief Instantaneous signed value (queue depths, ages, sizes).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Log-linear latency histogram.
///
/// Bucketing: values 0..31 map to their own bucket (exact); above that,
/// each power-of-two range [2^k, 2^(k+1)) splits into 16 linear
/// sub-buckets, bounding relative quantile error by 1/16. Covers the
/// full uint64 range in kNumBuckets buckets.
///
/// Record() touches one stripe: three relaxed fetch_adds (bucket,
/// count, sum) plus a relaxed CAS loop for max that almost never
/// retries. Snapshot() merges stripes under no lock — totals are only
/// guaranteed consistent once writers quiesce, which is all a stats
/// poll needs.
class Histogram {
 public:
  static constexpr size_t kSubBuckets = 16;  // per power-of-two range
  // Ranges k = 4..63 contribute 16 buckets each after the 16 exact
  // low buckets: 16 + 60*16 = 976.
  static constexpr size_t kNumBuckets = 976;

  Histogram();
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value);

  /// Bucket index for a value; inverse bounds for a bucket index.
  /// The bucket covers [BucketLowerBound(i), BucketUpperBound(i)]
  /// inclusive.
  static size_t BucketIndex(uint64_t value);
  static uint64_t BucketLowerBound(size_t index);
  static uint64_t BucketUpperBound(size_t index);

  /// \brief Point-in-time merged view of all stripes.
  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;  // exact
    uint64_t max = 0;  // exact
    std::vector<uint64_t> buckets;  // size kNumBuckets

    /// Upper bound of the bucket holding the p-th percentile
    /// (p in [0, 1]); exact for values < 32, <= 1/16 relative error
    /// above. Returns 0 for an empty snapshot. The result is clamped
    /// to the recorded max so tail quantiles never exceed it.
    uint64_t Percentile(double p) const;

    /// Bucket-wise accumulate; merging is associative and commutative.
    void MergeFrom(const Snapshot& other);
  };

  Snapshot TakeSnapshot() const;

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
    std::atomic<uint64_t> min{~0ull};
    std::array<std::atomic<uint64_t>, kNumBuckets> buckets{};
  };
  std::array<Stripe, internal::kStripes> stripes_;
};

/// \brief Named metric directory. Lookup takes a mutex (do it once at
/// startup); returned pointers are stable for the registry's lifetime
/// and their operations are lock-free.
class MetricsRegistry {
 public:
  /// `clock` null means SystemClock(). The registry does not own the
  /// clock; a test-supplied FakeClock must outlive the registry.
  explicit MetricsRegistry(Clock* clock = nullptr);
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Clock* clock() const { return clock_; }

  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// Current value of the named counter / gauge, or 0 when the registry
  /// holds no such series (a read never creates one).
  uint64_t CounterValue(const std::string& name) const;
  int64_t GaugeValue(const std::string& name) const;

  /// Single-line JSON object:
  ///   {"counters":{...},"gauges":{...},
  ///    "histograms":{"name":{"count":..,"sum":..,"min":..,"max":..,
  ///                          "p50":..,"p90":..,"p99":..},...}}
  std::string RenderJson() const;

  /// Prometheus text exposition (version 0.0.4). Histograms render as
  /// summaries: quantile-labelled series plus `_sum` and `_count`.
  std::string RenderPrometheus() const;

 private:
  Clock* clock_;
  // kMetrics is a leaf rank: lookups happen under the catalog flush lock
  // (ServerCatalog::RefreshMetrics) and must never acquire anything else.
  mutable Mutex mu_{LockRank::kMetrics, "metrics.registry.mu_"};
  // std::map keeps render order deterministic and sorted, which also
  // groups same-family labelled series for the Prometheus renderer.
  std::map<std::string, std::unique_ptr<Counter>> counters_ ZIGGY_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ ZIGGY_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      ZIGGY_GUARDED_BY(mu_);
};

/// \brief Sets the process gauges from getrusage(RUSAGE_SELF):
/// `ziggy_process_minor_faults` (page faults served without I/O since
/// start) and `ziggy_process_peak_rss_bytes` (peak resident set). They are
/// pull-model: call right before rendering a snapshot.
void RefreshProcessGauges(MetricsRegistry* registry);

}  // namespace obs
}  // namespace ziggy

#endif  // ZIGGY_OBS_METRICS_H_
