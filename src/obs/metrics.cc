#include "obs/metrics.h"

#include <sys/resource.h>

#include <bit>
#include <chrono>
#include <thread>

#include "common/json_escape.h"

namespace ziggy {
namespace obs {

namespace internal {

size_t StripeIndex() {
  // Hash the thread id once per thread; consecutive ids land on
  // different stripes.
  static thread_local const size_t stripe =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) %
      kStripes;
  return stripe;
}

}  // namespace internal

namespace {

class SteadyClock : public Clock {
 public:
  uint64_t NowMicros() const override {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
};

// Splits `name` into the Prometheus family ("ziggy_request_us") and
// its label set without braces ("verb=\"OPEN\"", possibly empty).
void SplitLabels(const std::string& name, std::string* family,
                 std::string* labels) {
  const size_t brace = name.find('{');
  if (brace == std::string::npos) {
    *family = name;
    labels->clear();
    return;
  }
  *family = name.substr(0, brace);
  const size_t close = name.rfind('}');
  const size_t end = (close == std::string::npos) ? name.size() : close;
  *labels = name.substr(brace + 1, end - brace - 1);
}

// Renders `family{labels,extra}` with correct comma/brace handling
// when either label source is empty.
std::string SeriesName(const std::string& family, const std::string& labels,
                       const std::string& extra) {
  std::string all = labels;
  if (!extra.empty()) {
    if (!all.empty()) all += ",";
    all += extra;
  }
  if (all.empty()) return family;
  return family + "{" + all + "}";
}

}  // namespace

Clock* SystemClock() {
  static SteadyClock* clock = new SteadyClock();
  return clock;
}

Histogram::Histogram() = default;

size_t Histogram::BucketIndex(uint64_t value) {
  if (value < 2 * kSubBuckets) return static_cast<size_t>(value);
  const int k = std::bit_width(value) - 1;  // k >= 5
  const uint64_t sub = (value >> (k - 4)) & (kSubBuckets - 1);
  return kSubBuckets + static_cast<size_t>(k - 4) * kSubBuckets +
         static_cast<size_t>(sub);
}

uint64_t Histogram::BucketLowerBound(size_t index) {
  if (index < 2 * kSubBuckets) return index;
  const size_t k = 4 + (index - kSubBuckets) / kSubBuckets;
  const uint64_t sub = (index - kSubBuckets) % kSubBuckets;
  return (kSubBuckets + sub) << (k - 4);
}

uint64_t Histogram::BucketUpperBound(size_t index) {
  if (index < 2 * kSubBuckets) return index;
  const size_t k = 4 + (index - kSubBuckets) / kSubBuckets;
  const uint64_t width = 1ull << (k - 4);
  return BucketLowerBound(index) + width - 1;
}

void Histogram::Record(uint64_t value) {
  Stripe& s = stripes_[internal::StripeIndex()];
  s.buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(value, std::memory_order_relaxed);
  uint64_t seen = s.max.load(std::memory_order_relaxed);
  while (value > seen &&
         !s.max.compare_exchange_weak(seen, value,
                                      std::memory_order_relaxed)) {
  }
  seen = s.min.load(std::memory_order_relaxed);
  while (value < seen &&
         !s.min.compare_exchange_weak(seen, value,
                                      std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot snap;
  snap.buckets.assign(kNumBuckets, 0);
  uint64_t min = ~0ull;
  for (const Stripe& s : stripes_) {
    snap.count += s.count.load(std::memory_order_relaxed);
    snap.sum += s.sum.load(std::memory_order_relaxed);
    const uint64_t smax = s.max.load(std::memory_order_relaxed);
    if (smax > snap.max) snap.max = smax;
    const uint64_t smin = s.min.load(std::memory_order_relaxed);
    if (smin < min) min = smin;
    for (size_t i = 0; i < kNumBuckets; ++i) {
      snap.buckets[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
  }
  snap.min = (snap.count == 0) ? 0 : min;
  return snap;
}

uint64_t Histogram::Snapshot::Percentile(double p) const {
  if (count == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  // Rank of the target sample, 1-based: ceil(p * count), at least 1.
  uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(count));
  if (static_cast<double>(rank) < p * static_cast<double>(count)) ++rank;
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      const uint64_t hi = BucketUpperBound(i);
      return hi < max ? hi : max;
    }
  }
  return max;
}

void Histogram::Snapshot::MergeFrom(const Snapshot& other) {
  if (other.count == 0) return;
  if (count == 0) {
    min = other.min;
  } else if (other.min < min) {
    min = other.min;
  }
  count += other.count;
  sum += other.sum;
  if (other.max > max) max = other.max;
  if (buckets.size() < other.buckets.size()) {
    buckets.resize(other.buckets.size(), 0);
  }
  for (size_t i = 0; i < other.buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
}

MetricsRegistry::MetricsRegistry(Clock* clock)
    : clock_(clock != nullptr ? clock : SystemClock()) {}

Counter* MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

uint64_t MetricsRegistry::CounterValue(const std::string& name) const {
  MutexLock lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

int64_t MetricsRegistry::GaugeValue(const std::string& name) const {
  MutexLock lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second->value();
}

std::string MetricsRegistry::RenderJson() const {
  MutexLock lock(mu_);
  JsonWriter w;
  w.BeginObject().Key("counters").BeginObject();
  for (const auto& [name, counter] : counters_) {
    w.Key(name).Uint(counter->value());
  }
  w.EndObject().Key("gauges").BeginObject();
  for (const auto& [name, gauge] : gauges_) w.Key(name).Int(gauge->value());
  w.EndObject().Key("histograms").BeginObject();
  for (const auto& [name, histogram] : histograms_) {
    const Histogram::Snapshot snap = histogram->TakeSnapshot();
    w.Key(name).BeginObject().Key("count").Uint(snap.count);
    w.Key("sum").Uint(snap.sum);
    w.Key("min").Uint(snap.min);
    w.Key("max").Uint(snap.max);
    w.Key("p50").Uint(snap.Percentile(0.50));
    w.Key("p90").Uint(snap.Percentile(0.90));
    w.Key("p99").Uint(snap.Percentile(0.99)).EndObject();
  }
  return w.EndObject().EndObject().Take();
}

std::string MetricsRegistry::RenderPrometheus() const {
  MutexLock lock(mu_);
  std::string out;
  std::string family, labels, last_family;
  // Maps are sorted, so labelled series of one family are adjacent and
  // the TYPE line is emitted exactly once per family.
  for (const auto& [name, counter] : counters_) {
    SplitLabels(name, &family, &labels);
    if (family != last_family) {
      out += "# TYPE " + family + " counter\n";
      last_family = family;
    }
    out += SeriesName(family, labels, "") + " " +
           std::to_string(counter->value()) + "\n";
  }
  last_family.clear();
  for (const auto& [name, gauge] : gauges_) {
    SplitLabels(name, &family, &labels);
    if (family != last_family) {
      out += "# TYPE " + family + " gauge\n";
      last_family = family;
    }
    out += SeriesName(family, labels, "") + " " +
           std::to_string(gauge->value()) + "\n";
  }
  last_family.clear();
  for (const auto& [name, histogram] : histograms_) {
    SplitLabels(name, &family, &labels);
    if (family != last_family) {
      out += "# TYPE " + family + " summary\n";
      last_family = family;
    }
    const Histogram::Snapshot snap = histogram->TakeSnapshot();
    out += SeriesName(family, labels, "quantile=\"0.5\"") + " " +
           std::to_string(snap.Percentile(0.50)) + "\n";
    out += SeriesName(family, labels, "quantile=\"0.9\"") + " " +
           std::to_string(snap.Percentile(0.90)) + "\n";
    out += SeriesName(family, labels, "quantile=\"0.99\"") + " " +
           std::to_string(snap.Percentile(0.99)) + "\n";
    out += SeriesName(family + "_sum", labels, "") + " " +
           std::to_string(snap.sum) + "\n";
    out += SeriesName(family + "_count", labels, "") + " " +
           std::to_string(snap.count) + "\n";
  }
  return out;
}

void RefreshProcessGauges(MetricsRegistry* registry) {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return;
  registry->gauge("ziggy_process_minor_faults")
      ->Set(static_cast<int64_t>(usage.ru_minflt));
  // Linux reports ru_maxrss in KiB.
  registry->gauge("ziggy_process_peak_rss_bytes")
      ->Set(static_cast<int64_t>(usage.ru_maxrss) * 1024);
}

}  // namespace obs
}  // namespace ziggy
