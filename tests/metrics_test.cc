// The observability substrate (src/obs) and its integration points:
//
//  * Histogram — bucket-boundary invariants, percentile accuracy against
//    a sorted-sample oracle (<= 1/16 relative error, exact below 32),
//    merge associativity, and consistency under concurrent recording.
//  * Counter/Gauge — striped adds, and AdvanceTo as the monotonic-carry
//    primitive that keeps mirrored totals from ever moving backwards.
//  * MetricsRegistry — stable pointers, JSON and Prometheus renders
//    (label-in-name series grouped per family, quantile labels merged).
//  * TraceSpan/RequestTrace — histogram recording, thread-local span
//    collection, and the disarmed zero-cost paths.
//  * Catalog integration — sketch-cache counters carried monotonically
//    through CLOSE/re-OPEN generation swaps, and per-table dirty-age /
//    queue-depth gauges driven by a FakeClock (deterministic ages).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/catalog.h"
#include "serve/daemon/handler.h"

namespace ziggy {
namespace obs {
namespace {

TEST(HistogramBucketsTest, LowValuesAreExact) {
  for (uint64_t v = 0; v < 2 * Histogram::kSubBuckets; ++v) {
    const size_t index = Histogram::BucketIndex(v);
    EXPECT_EQ(index, static_cast<size_t>(v));
    EXPECT_EQ(Histogram::BucketLowerBound(index), v);
    EXPECT_EQ(Histogram::BucketUpperBound(index), v);
  }
}

TEST(HistogramBucketsTest, BoundsBracketTheValueEverywhere) {
  // Sweep powers of two and their neighborhoods across the full range:
  // every value must land in a bucket whose [lower, upper] contains it,
  // and bucket indexes must be monotone in the value.
  std::vector<uint64_t> probes = {0, 1, 31, 32, 33, 47, 48, 63, 64, 100, 1000};
  for (int shift = 6; shift < 64; ++shift) {
    const uint64_t base = 1ull << shift;
    probes.push_back(base - 1);
    probes.push_back(base);
    probes.push_back(base + 1);
    probes.push_back(base + base / 2);
  }
  probes.push_back(~0ull);
  std::sort(probes.begin(), probes.end());
  size_t last_index = 0;
  for (const uint64_t v : probes) {
    const size_t index = Histogram::BucketIndex(v);
    ASSERT_LT(index, Histogram::kNumBuckets) << v;
    EXPECT_LE(Histogram::BucketLowerBound(index), v) << v;
    EXPECT_GE(Histogram::BucketUpperBound(index), v) << v;
    EXPECT_GE(index, last_index) << v;
    last_index = index;
    // The bucket's own bounds must round-trip through BucketIndex.
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketLowerBound(index)),
              index);
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketUpperBound(index)),
              index);
  }
}

TEST(HistogramBucketsTest, RelativeWidthIsBoundedBySubBucketCount) {
  // Above the exact range, bucket width / lower bound <= 1/16: that is
  // the advertised percentile error bound.
  for (uint64_t v = 32; v < (1ull << 40); v = v * 3 + 7) {
    const size_t index = Histogram::BucketIndex(v);
    const uint64_t lo = Histogram::BucketLowerBound(index);
    const uint64_t hi = Histogram::BucketUpperBound(index);
    EXPECT_LE(hi - lo + 1, lo / Histogram::kSubBuckets + 1) << v;
  }
}

TEST(HistogramTest, EmptySnapshotIsAllZero) {
  Histogram h;
  const Histogram::Snapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0u);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, 0u);
  EXPECT_EQ(snap.Percentile(0.5), 0u);
  EXPECT_EQ(snap.Percentile(0.99), 0u);
}

TEST(HistogramTest, PercentileMatchesSortedSampleOracle) {
  // Log-uniform sample so every bucket regime (exact, mid, high powers)
  // is exercised; the histogram's quantile must stay within one bucket
  // width (<= 1/16 relative) of the true order statistic.
  std::mt19937_64 rng(20260808);
  std::uniform_real_distribution<double> log_value(0.0, 20.0);
  Histogram h;
  std::vector<uint64_t> sample;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t v = static_cast<uint64_t>(std::exp(log_value(rng)));
    sample.push_back(v);
    h.Record(v);
  }
  std::sort(sample.begin(), sample.end());
  const Histogram::Snapshot snap = h.TakeSnapshot();
  ASSERT_EQ(snap.count, sample.size());
  for (const double p : {0.05, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const size_t rank = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(p * double(sample.size()))));
    const uint64_t oracle = sample[rank - 1];
    const uint64_t estimate = snap.Percentile(p);
    // The estimate is the upper bound of the oracle's bucket (clamped to
    // max), so it can only overshoot, and by at most the bucket width.
    EXPECT_GE(estimate, oracle) << "p=" << p;
    EXPECT_LE(estimate,
              oracle + oracle / Histogram::kSubBuckets + 1)
        << "p=" << p;
  }
  EXPECT_EQ(snap.Percentile(1.0), sample.back());  // max is exact
  EXPECT_EQ(snap.min, sample.front());
  EXPECT_EQ(snap.max, sample.back());
}

TEST(HistogramTest, MergeIsAssociativeAndCommutative) {
  std::mt19937_64 rng(7);
  Histogram h1, h2, h3;
  std::vector<Histogram*> hists = {&h1, &h2, &h3};
  for (int i = 0; i < 3000; ++i) {
    hists[i % 3]->Record(rng() % 100000);
  }
  const auto s1 = h1.TakeSnapshot();
  const auto s2 = h2.TakeSnapshot();
  const auto s3 = h3.TakeSnapshot();

  Histogram::Snapshot left = s1;   // (s1 + s2) + s3
  left.MergeFrom(s2);
  left.MergeFrom(s3);
  Histogram::Snapshot inner = s2;  // s1 + (s2 + s3)
  inner.MergeFrom(s3);
  Histogram::Snapshot right = s1;
  right.MergeFrom(inner);
  Histogram::Snapshot swapped = s3;  // commuted order
  swapped.MergeFrom(s1);
  swapped.MergeFrom(s2);

  for (const Histogram::Snapshot* merged : {&right, &swapped}) {
    EXPECT_EQ(left.count, merged->count);
    EXPECT_EQ(left.sum, merged->sum);
    EXPECT_EQ(left.min, merged->min);
    EXPECT_EQ(left.max, merged->max);
    EXPECT_EQ(left.buckets, merged->buckets);
  }
  EXPECT_EQ(left.count, 3000u);
}

TEST(HistogramTest, ConcurrentRecordsLoseNothing) {
  // Count and sum are exact under concurrency: every striped fetch_add
  // lands somewhere, and the snapshot sums all stripes.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(t + 1));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const Histogram::Snapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, uint64_t{kThreads} * kPerThread);
  uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    expected_sum += uint64_t{kPerThread} * (t + 1);
  }
  EXPECT_EQ(snap.sum, expected_sum);
  EXPECT_EQ(snap.min, 1u);
  EXPECT_EQ(snap.max, uint64_t{kThreads});
  uint64_t bucket_total = 0;
  for (const uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(CounterTest, AddAndAdvanceToStayMonotonic) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(9);
  EXPECT_EQ(c.value(), 10u);
  // AdvanceTo raises to a target...
  c.AdvanceTo(25);
  EXPECT_EQ(c.value(), 25u);
  // ...and never lowers: a stale (smaller) external total is a no-op,
  // which is exactly what makes mirrored counters monotonic.
  c.AdvanceTo(7);
  EXPECT_EQ(c.value(), 25u);
  c.AdvanceTo(25);
  EXPECT_EQ(c.value(), 25u);
}

TEST(CounterTest, ConcurrentAddsAreExact) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), uint64_t{kThreads} * kPerThread);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.Set(42);
  EXPECT_EQ(g.value(), 42);
  g.Add(-50);
  EXPECT_EQ(g.value(), -8);
}

TEST(RegistryTest, PointersAreStableAndShared) {
  MetricsRegistry registry;
  Counter* a = registry.counter("ziggy_test_total");
  Counter* b = registry.counter("ziggy_test_total");
  EXPECT_EQ(a, b);
  EXPECT_NE(registry.counter("ziggy_other_total"), a);
  EXPECT_EQ(registry.clock(), SystemClock());
  FakeClock fake;
  MetricsRegistry faked(&fake);
  EXPECT_EQ(faked.clock(), &fake);
}

TEST(RegistryTest, RenderJsonShape) {
  FakeClock clock;
  MetricsRegistry registry(&clock);
  registry.counter("ziggy_requests_total{verb=\"OPEN\"}")->Add(3);
  registry.gauge("ziggy_tables")->Set(2);
  Histogram* h = registry.histogram("ziggy_request_us");
  h->Record(10);
  h->Record(30);
  const std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"counters\":{\"ziggy_requests_total{verb=\\\"OPEN\\\"}\":3}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"gauges\":{\"ziggy_tables\":2}"), std::string::npos);
  EXPECT_NE(json.find("\"ziggy_request_us\":{\"count\":2,\"sum\":40,"
                      "\"min\":10,\"max\":30,"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"p50\":10"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\":30"), std::string::npos) << json;
}

TEST(RegistryTest, RenderPrometheusGroupsFamiliesAndMergesQuantiles) {
  FakeClock clock;
  MetricsRegistry registry(&clock);
  registry.counter("ziggy_requests_total{verb=\"OPEN\"}")->Add(1);
  registry.counter("ziggy_requests_total{verb=\"LIST\"}")->Add(2);
  registry.gauge("ziggy_tables")->Set(5);
  registry.histogram("ziggy_request_us{verb=\"OPEN\"}")->Record(20);
  const std::string text = registry.RenderPrometheus();

  // One TYPE line per family, even with several labelled series.
  size_t type_count = 0;
  for (size_t pos = 0;
       (pos = text.find("# TYPE ziggy_requests_total counter", pos)) !=
       std::string::npos;
       ++pos) {
    ++type_count;
  }
  EXPECT_EQ(type_count, 1u) << text;
  EXPECT_NE(text.find("ziggy_requests_total{verb=\"LIST\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ziggy_requests_total{verb=\"OPEN\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ziggy_tables gauge\nziggy_tables 5\n"),
            std::string::npos);
  // Histograms render as summaries; the quantile label merges into the
  // existing brace set and _sum/_count suffix the family inside it.
  EXPECT_NE(text.find("# TYPE ziggy_request_us summary"), std::string::npos);
  EXPECT_NE(text.find("ziggy_request_us{verb=\"OPEN\",quantile=\"0.5\"} 20\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ziggy_request_us_sum{verb=\"OPEN\"} 20\n"),
            std::string::npos);
  EXPECT_NE(text.find("ziggy_request_us_count{verb=\"OPEN\"} 1\n"),
            std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

TEST(TraceTest, SpanRecordsIntoHistogramWithFakeClock) {
  FakeClock clock;
  Histogram h;
  {
    TraceSpan span("work", &clock, &h);
    clock.AdvanceMicros(250);
  }
  const Histogram::Snapshot snap = h.TakeSnapshot();
  ASSERT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.sum, 250u);
}

TEST(TraceTest, ScopeCollectsNamedSpansForTheThread) {
  FakeClock clock;
  RequestTrace trace;
  EXPECT_EQ(RequestTrace::Current(), nullptr);
  {
    RequestTrace::Scope scope(&trace);
    EXPECT_EQ(RequestTrace::Current(), &trace);
    {
      TraceSpan span("scan", &clock, nullptr);
      clock.AdvanceMicros(1234);
    }
    {
      TraceSpan span("store_save", &clock, nullptr);
      clock.AdvanceMicros(56);
    }
  }
  EXPECT_EQ(RequestTrace::Current(), nullptr);
  ASSERT_EQ(trace.spans().size(), 2u);
  EXPECT_EQ(trace.Summary(), "scan=1234us,store_save=56us");
}

TEST(TraceTest, DisarmedSpansTouchNothing) {
  FakeClock clock;
  Histogram h;
  {
    // No histogram and no installed trace: the span must not even read
    // the clock (quiet-path cost ~0).
    TraceSpan span("idle", &clock, nullptr);
    clock.AdvanceMicros(10);
  }
  {
    // Null clock disarms even with a histogram attached.
    TraceSpan span("noclock", nullptr, &h);
  }
  EXPECT_EQ(h.TakeSnapshot().count, 0u);
}

// ---------------------------------------------------------------------------
// Catalog integration.

TEST(CatalogMetricsTest, SketchCacheCountersSurviveCloseAndReopen) {
  auto registry = std::make_shared<MetricsRegistry>();
  CatalogOptions options;
  options.metrics = registry;
  options.serve.engine.search.min_tightness = 0.4;
  options.serve.engine.search.max_views = 10;
  ServerCatalog catalog(options);

  auto ds = MakeBoxOfficeDataset(7);
  ASSERT_TRUE(ds.ok());
  auto server = catalog.Open("box", ds->table);
  ASSERT_TRUE(server.ok());
  // Miss from the first session, then an exact sketch-cache hit from a
  // second session.
  const std::string predicate = "revenue_index >= 1.1826265604539112";
  ASSERT_TRUE(
      (*server)->Characterize((*server)->OpenSession(), predicate).ok());
  ASSERT_TRUE(
      (*server)->Characterize((*server)->OpenSession(), predicate).ok());

  catalog.RefreshMetrics();
  const uint64_t hits_before =
      registry->counter("ziggy_sketch_cache_hits_total")->value();
  const uint64_t misses_before =
      registry->counter("ziggy_sketch_cache_misses_total")->value();
  EXPECT_GE(hits_before, 1u);
  EXPECT_GE(misses_before, 1u);
  const ServerCatalog::SketchCacheTotals totals_before = catalog.CacheTotals();
  EXPECT_EQ(totals_before.hits, hits_before);
  EXPECT_EQ(totals_before.misses, misses_before);

  // CLOSE retires the server (its per-server counters die with it) and a
  // re-OPEN starts a fresh one at zero. The registry's totals must carry
  // the retired counts forward — published rates never move backwards.
  ASSERT_TRUE(catalog.Close("box").ok());
  catalog.RefreshMetrics();
  EXPECT_GE(registry->counter("ziggy_sketch_cache_hits_total")->value(),
            hits_before);
  auto reopened = catalog.Open("box", ds->table);
  ASSERT_TRUE(reopened.ok());
  const uint64_t rsid = (*reopened)->OpenSession();
  ASSERT_TRUE((*reopened)->Characterize(rsid, predicate).ok());
  catalog.RefreshMetrics();
  const uint64_t hits_after =
      registry->counter("ziggy_sketch_cache_hits_total")->value();
  const uint64_t misses_after =
      registry->counter("ziggy_sketch_cache_misses_total")->value();
  EXPECT_GE(hits_after, hits_before);
  // The re-opened table's first characterize is a fresh miss on top of
  // the carried total.
  EXPECT_GT(misses_after, misses_before);
}

TEST(CatalogMetricsTest, DirtyAgeAndQueueDepthFollowTheFakeClock) {
  auto clock = std::make_unique<FakeClock>();
  FakeClock* fake = clock.get();
  auto registry = std::make_shared<MetricsRegistry>(fake);
  CatalogOptions options;
  options.metrics = registry;
  // Interval long enough that the flusher never fires on its own: the
  // dirty entry ages exactly as far as the FakeClock is advanced.
  options.flush_interval_ms = 3600000;
  options.serve.engine.search.min_tightness = 0.4;
  options.serve.engine.search.max_views = 10;
  ServerCatalog catalog(options);
  static int counter = 0;
  const std::string dir = testing::TempDir() + "/ziggy_metrics_test_" +
                          std::to_string(++counter);
  ASSERT_TRUE(catalog.AttachStore(dir).ok());

  auto ds = MakeBoxOfficeDataset(7);
  ASSERT_TRUE(ds.ok());
  ASSERT_TRUE(catalog.Open("box", ds->table).ok());
  ASSERT_TRUE(catalog.SetPersist("box", true).ok());
  Status checkpoint = Status::OK();
  ASSERT_TRUE(catalog.Append("box", ds->table, &checkpoint).ok());
  ASSERT_TRUE(checkpoint.ok());

  // The append only marked the table dirty; age it a known amount.
  fake->AdvanceMillis(1234);
  const auto dirty = catalog.RefreshMetrics();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0].first, "box");
  EXPECT_EQ(dirty[0].second, 1234u);
  EXPECT_EQ(registry->gauge("ziggy_flusher_queue_depth")->value(), 1);
  EXPECT_EQ(registry->gauge("ziggy_flusher_max_dirty_age_ms")->value(), 1234);
  EXPECT_EQ(
      registry->gauge("ziggy_table_dirty_age_ms{table=\"box\"}")->value(),
      1234);

  // Draining the flusher clears the queue; the per-table gauge must be
  // zeroed, not left frozen at its last dirty age.
  catalog.StopFlusher();
  EXPECT_TRUE(catalog.RefreshMetrics().empty());
  EXPECT_EQ(registry->gauge("ziggy_flusher_queue_depth")->value(), 0);
  EXPECT_EQ(registry->gauge("ziggy_flusher_max_dirty_age_ms")->value(), 0);
  EXPECT_EQ(
      registry->gauge("ziggy_table_dirty_age_ms{table=\"box\"}")->value(), 0);
}

TEST(CatalogMetricsTest, OpenSpansRecordColdAndWarmOpens) {
  auto registry = std::make_shared<MetricsRegistry>();
  CatalogOptions options;
  options.metrics = registry;
  options.flush_interval_ms = 0;
  ServerCatalog catalog(options);
  const auto count = [&](const char* name) {
    return registry->histogram(name)->TakeSnapshot().count;
  };
  // All four OPEN spans are listed before any OPEN.
  for (const char* name : {"ziggy_open_csv_parse_us", "ziggy_open_profile_us",
                           "ziggy_open_dendrogram_us", "ziggy_store_load_us"}) {
    EXPECT_NE(registry->RenderJson().find(name), std::string::npos) << name;
    EXPECT_NE(registry->RenderPrometheus().find(std::string(name) + "_count 0"),
              std::string::npos)
        << name;
  }
  static int counter = 0;
  const std::string dir = testing::TempDir() + "/ziggy_open_spans_test_" +
                          std::to_string(++counter);
  ASSERT_TRUE(catalog.AttachStore(dir).ok());

  // Cold OPEN: source load, profile build, then the column dendrogram.
  Result<Table> table = LoadTableFromSource("demo://boxoffice", registry.get());
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(catalog.Open("box", std::move(*table)).ok());
  EXPECT_EQ(count("ziggy_open_csv_parse_us"), 1u);
  EXPECT_EQ(count("ziggy_open_profile_us"), 1u);
  EXPECT_EQ(count("ziggy_open_dendrogram_us"), 1u);
  EXPECT_EQ(count("ziggy_store_load_us"), 0u);
  // Without a registry the source load records nothing.
  ASSERT_TRUE(LoadTableFromSource("demo://boxoffice").ok());
  EXPECT_EQ(count("ziggy_open_csv_parse_us"), 1u);

  // Warm OPEN from the checkpoint: a store load and a dendrogram, no
  // parse or profile.
  ASSERT_TRUE(catalog.SaveAllToStore().ok());
  ASSERT_TRUE(catalog.Close("box").ok());
  ASSERT_TRUE(catalog.OpenFromStore("box").ok());
  EXPECT_EQ(count("ziggy_store_load_us"), 1u);
  EXPECT_EQ(count("ziggy_open_csv_parse_us"), 1u);
  EXPECT_EQ(count("ziggy_open_profile_us"), 1u);
  EXPECT_EQ(count("ziggy_open_dendrogram_us"), 2u);
}

TEST(CatalogMetricsTest, ProcessGaugesTrackFaultsAndPeakRss) {
  auto registry = std::make_shared<MetricsRegistry>();
  CatalogOptions options;
  options.metrics = registry;
  options.flush_interval_ms = 0;
  ServerCatalog catalog(options);
  catalog.RefreshMetrics();
  Gauge* faults = registry->gauge("ziggy_process_minor_faults");
  Gauge* peak = registry->gauge("ziggy_process_peak_rss_bytes");
  const int64_t faults_before = faults->value();
  EXPECT_GT(faults_before, 0);
  EXPECT_GT(peak->value(), 0);

  // Touching 32 MiB of fresh memory faults in ~8k pages and lifts the
  // peak resident set to at least that much.
  constexpr size_t kBytes = size_t{32} << 20;
  std::vector<char> fresh(kBytes, 1);
  // Keep the compiler from eliding the allocation.
  asm volatile("" : : "r"(fresh.data()) : "memory");
  catalog.RefreshMetrics();
  EXPECT_GE(faults->value() - faults_before,
            static_cast<int64_t>(kBytes / 4096 / 2));
  EXPECT_GE(peak->value(), static_cast<int64_t>(kBytes));
  EXPECT_EQ(fresh[kBytes - 1], 1);

  // Both formats render them.
  for (const char* name :
       {"ziggy_process_minor_faults", "ziggy_process_peak_rss_bytes"}) {
    EXPECT_NE(registry->RenderJson().find(name), std::string::npos) << name;
    EXPECT_NE(registry->RenderPrometheus().find(std::string("# TYPE ") + name +
                                                " gauge"),
              std::string::npos)
        << name;
  }
}

}  // namespace
}  // namespace obs
}  // namespace ziggy
