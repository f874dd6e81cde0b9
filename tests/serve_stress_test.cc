// Concurrency stress tests for the serving layer.
//
// The central property: per-session results are a function of the
// session's own request order and the append schedule — never of
// cross-session interleaving, cache state, or thread counts. The
// ByteMatch test drives N threads through phase-barriered mixed traffic
// (characterize + appends + cache churn) and demands the rendered results
// equal a single-threaded replay character for character.
// (Near-miss patching is off there: patching changes floating-point
// summation order by design; its own test checks exact invariants.)
//
// Run under -fsanitize=address,undefined and -fsanitize=thread in CI.

#include <gtest/gtest.h>

#include <barrier>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "data/synthetic.h"
#include "query/parser.h"
#include "serve/ziggy_server.h"

namespace ziggy {
namespace {

constexpr size_t kThreads = 4;
constexpr size_t kPhases = 3;
constexpr size_t kQueriesPerPhase = 5;

SyntheticDataset MakeDataset() {
  SyntheticSpec spec;
  spec.num_rows = 1100;  // not word-aligned: 1100 = 17 words + 12-bit tail
  spec.planted_fraction = 0.2;
  spec.themes = {
      {"alpha", 3, 0.8, 1.0, 1.2, 0.0},
      {"beta", 2, 0.7, -0.8, 1.0, 0.0},
  };
  spec.num_noise_columns = 2;
  spec.num_categorical = 1;
  spec.num_shifted_categorical = 1;
  spec.seed = 77;
  auto ds = GenerateSynthetic(spec);
  EXPECT_TRUE(ds.ok());
  return std::move(ds).ValueOrDie();
}

// Deterministic rendering: everything the user sees, nothing that depends
// on wall clock or sketch provenance.
std::string Render(const Characterization& c) {
  std::ostringstream os;
  os << "in=" << c.inside_count << " out=" << c.outside_count
     << " cand=" << c.num_candidates << " dropped=" << c.views_dropped << "\n";
  for (const auto& cv : c.views) {
    os << " view";
    for (size_t col : cv.view.columns) os << " " << col;
    os << " score=" << FormatDouble(cv.view.score.total, 12)
       << " tight=" << FormatDouble(cv.view.tightness, 12)
       << " p=" << FormatDouble(cv.view.aggregated_p_value, 12) << " | "
       << cv.explanation.headline << "\n";
  }
  return os.str();
}

// Per-(session, phase) query scripts. Strings are fixed; the selections
// they evaluate to change with the table generation, which is exactly what
// the replay must reproduce. Sessions deliberately overlap (shared-cache
// traffic) but also have private refinements.
std::vector<std::vector<std::vector<std::string>>> MakeScripts(
    const SyntheticDataset& ds) {
  std::vector<std::vector<std::vector<std::string>>> scripts(
      kThreads, std::vector<std::vector<std::string>>(kPhases));
  const std::string& driver = ds.selection_predicate;
  for (size_t s = 0; s < kThreads; ++s) {
    for (size_t p = 0; p < kPhases; ++p) {
      auto& q = scripts[s][p];
      q.push_back(driver);  // every session, every phase: maximal sharing
      q.push_back("alpha_0 > " + FormatDouble(0.1 * static_cast<double>(p), 6));
      q.push_back("beta_0 < " + FormatDouble(-0.2 + 0.1 * static_cast<double>(s), 6));
      q.push_back("driver > " +
                  FormatDouble(0.5 + 0.05 * static_cast<double>(s + p), 6));
      q.push_back("alpha_1 BETWEEN -1 AND " +
                  FormatDouble(0.5 + 0.25 * static_cast<double>(s), 6));
      EXPECT_EQ(q.size(), kQueriesPerPhase);
    }
  }
  return scripts;
}

// Append batches reuse existing rows (SampleRows), so value ranges and
// category sets never grow and no histogram is re-binned.
std::vector<Table> MakeAppendBatches(const SyntheticDataset& ds) {
  std::vector<Table> batches;
  for (size_t p = 0; p + 1 < kPhases; ++p) {
    Rng rng(900 + p);
    batches.push_back(ds.table.SampleRows(40 + 10 * p, &rng));
  }
  return batches;
}

ServeOptions StressOptions() {
  ServeOptions options;
  options.engine.search.min_tightness = 0.25;
  options.engine.search.max_views = 6;
  options.patch_near_misses = false;  // bit-reproducibility
  return options;
}

using ResultGrid = std::vector<std::vector<std::string>>;  // [session][phase*q]

// Runs the full scripted workload; `concurrent` decides whether sessions
// run on threads (with phase barriers) or sequentially.
ResultGrid RunWorkload(const SyntheticDataset& ds, const ServeOptions& options,
                       bool concurrent, bool churn_cache) {
  auto server_or = ZiggyServer::Create(ds.table, options);
  EXPECT_TRUE(server_or.ok());
  ZiggyServer* server = server_or->get();

  const auto scripts = MakeScripts(ds);
  const std::vector<Table> appends = MakeAppendBatches(ds);
  std::vector<uint64_t> sessions;
  for (size_t s = 0; s < kThreads; ++s) sessions.push_back(server->OpenSession());

  ResultGrid results(kThreads);
  auto run_query = [&](size_t s, const std::string& query) {
    Result<Characterization> r = server->Characterize(sessions[s], query);
    ASSERT_TRUE(r.ok()) << "session " << s << " query '" << query
                        << "': " << r.status().ToString();
    results[s].push_back(Render(*r));
  };

  if (!concurrent) {
    for (size_t p = 0; p < kPhases; ++p) {
      for (size_t s = 0; s < kThreads; ++s) {
        for (const std::string& q : scripts[s][p]) run_query(s, q);
      }
      if (churn_cache) server->FlushSketchCache();
      if (p + 1 < kPhases) {
        EXPECT_TRUE(server->Append(appends[p]).ok());
      }
    }
    return results;
  }

  // Concurrent: all sessions hammer inside a phase; appends happen at the
  // barriers (the completion step runs on exactly one thread).
  size_t phase = 0;
  std::barrier barrier(static_cast<std::ptrdiff_t>(kThreads), [&]() noexcept {
    if (churn_cache) server->FlushSketchCache();
    if (phase + 1 < kPhases) {
      const Status st = server->Append(appends[phase]);
      if (!st.ok()) std::abort();  // noexcept completion: fail loudly
    }
    ++phase;
  });
  std::vector<std::thread> workers;
  for (size_t s = 0; s < kThreads; ++s) {
    workers.emplace_back([&, s] {
      for (size_t p = 0; p < kPhases; ++p) {
        for (const std::string& q : scripts[s][p]) run_query(s, q);
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& w : workers) w.join();
  return results;
}

TEST(ServeStressTest, FingerprintCollisionsNeverServeAnotherSelection) {
  // Two selections that agree everywhere but rows 0..127 and still share
  // a Selection::Fingerprint, so the shared sketch cache must compare the
  // selection itself before serving an exact hit. Rows 0..63 and 64..127
  // both repeat the bits of kWordA (resp. kWordB): on 1100 rows the
  // fingerprint state after the words [A, A] equals the one after [B, B].
  // The pair was found offline by a Brent cycle search over that two-word
  // function; a change to the fingerprint needs a new pair.
  constexpr uint64_t kWordA = 0x9b455b207cf7b654ull;
  constexpr uint64_t kWordB = 0x91a31341a6f95c95ull;
  const SyntheticDataset ds = MakeDataset();
  std::vector<Column> columns;
  for (size_t c = 0; c < ds.table.num_columns(); ++c) {
    columns.push_back(ds.table.column(c));
  }
  std::vector<double> ids(ds.table.num_rows());
  for (size_t r = 0; r < ids.size(); ++r) ids[r] = static_cast<double>(r);
  columns.push_back(Column::FromNumeric("id", std::move(ids)));
  const Table table = Table::FromColumns(std::move(columns)).ValueOrDie();

  // The planted selection past row 127, with rows 0..127 from the word.
  const std::string& planted = ds.selection_predicate;
  auto query_for = [&planted](uint64_t word) {
    std::string query = "((" + planted + ") AND id >= 128)";
    for (int bit = 0; bit < 64; ++bit) {
      if (((word >> bit) & 1) == 0) continue;
      query += " OR id = " + std::to_string(bit) + " OR id = " +
               std::to_string(64 + bit);
    }
    return query;
  };
  const std::string query_a = query_for(kWordA);
  const std::string query_b = query_for(kWordB);
  auto evaluate = [&table](const std::string& query) {
    return ParseQuery(query).ValueOrDie()->Evaluate(table).ValueOrDie();
  };
  const Selection a = evaluate(query_a);
  const Selection b = evaluate(query_b);
  ASSERT_FALSE(a == b);
  ASSERT_EQ(a.Fingerprint(), b.Fingerprint());

  // Render plus each view's detail lines, whose inside statistics move
  // with rows 0..127 even where the normalized scores saturate.
  auto render = [](const Characterization& c) {
    std::string out = Render(c);
    for (const auto& cv : c.views) {
      for (const auto& d : cv.explanation.details) out += "  - " + d + "\n";
    }
    return out;
  };
  // Patching off: every miss is a full scan, so the answers are
  // byte-identical to each query run alone on its own server.
  const ServeOptions options = StressOptions();
  auto solo = [&](const std::string& query) {
    auto server = ZiggyServer::Create(table, options).ValueOrDie();
    return render(
        server->Characterize(server->OpenSession(), query).ValueOrDie());
  };
  const std::string want_a = solo(query_a);
  const std::string want_b = solo(query_b);
  ASSERT_NE(want_a, want_b);

  auto server = ZiggyServer::Create(table, options).ValueOrDie();
  // Novelty off, so a repeat renders exactly as its first answer did.
  SessionOptions no_novelty;
  no_novelty.novelty = SessionOptions::NoveltyPolicy::kOff;
  const uint64_t first = server->OpenSession(no_novelty);
  const uint64_t second = server->OpenSession(no_novelty);
  const Characterization r1 =
      server->Characterize(first, query_a).ValueOrDie();
  EXPECT_EQ(r1.inside_count, static_cast<int64_t>(a.Count()));
  EXPECT_EQ(render(r1), want_a);
  // Another session: the shared sketch cache holds `query_a` under the
  // colliding fingerprint.
  const Characterization r2 =
      server->Characterize(second, query_b).ValueOrDie();
  EXPECT_NE(r2.sketch_source, SketchSource::kCacheExact);
  EXPECT_EQ(r2.inside_count, static_cast<int64_t>(b.Count()));
  EXPECT_EQ(render(r2), want_b);
  // The first session repeats `query_a`: the cache now holds `query_b`
  // under the colliding fingerprint.
  const Characterization r3 =
      server->Characterize(first, query_a).ValueOrDie();
  EXPECT_NE(r3.sketch_source, SketchSource::kCacheExact);
  EXPECT_EQ(r3.inside_count, static_cast<int64_t>(a.Count()));
  EXPECT_EQ(render(r3), want_a);
  // And a true repeat is an exact hit.
  const Characterization r4 =
      server->Characterize(second, query_a).ValueOrDie();
  EXPECT_EQ(r4.sketch_source, SketchSource::kCacheExact);
  EXPECT_EQ(render(r4), want_a);
}

TEST(ServeStressTest, ConcurrentMixedTrafficByteMatchesSequentialReplay) {
  const SyntheticDataset ds = MakeDataset();
  const ServeOptions options = StressOptions();

  const ResultGrid concurrent = RunWorkload(ds, options, /*concurrent=*/true,
                                            /*churn_cache=*/false);
  const ResultGrid replay = RunWorkload(ds, options, /*concurrent=*/false,
                                        /*churn_cache=*/false);

  ASSERT_EQ(concurrent.size(), replay.size());
  for (size_t s = 0; s < kThreads; ++s) {
    ASSERT_EQ(concurrent[s].size(), replay[s].size()) << "session " << s;
    for (size_t i = 0; i < concurrent[s].size(); ++i) {
      EXPECT_EQ(concurrent[s][i], replay[s][i])
          << "session " << s << " request " << i << " diverged";
    }
  }
}

// Cache state must be semantically invisible: churned (flushed mid-run,
// tiny budget forcing evictions) vs. untouched caches, identical results.
TEST(ServeStressTest, CacheChurnDoesNotChangeResults) {
  const SyntheticDataset ds = MakeDataset();

  ServeOptions tiny = StressOptions();
  tiny.cache_budget_bytes = 1 << 14;  // a few entries per shard at best
  const ResultGrid churned = RunWorkload(ds, tiny, /*concurrent=*/true,
                                         /*churn_cache=*/true);

  ServeOptions roomy = StressOptions();
  const ResultGrid clean = RunWorkload(ds, roomy, /*concurrent=*/false,
                                       /*churn_cache=*/false);

  for (size_t s = 0; s < kThreads; ++s) {
    ASSERT_EQ(churned[s].size(), clean[s].size());
    for (size_t i = 0; i < churned[s].size(); ++i) {
      EXPECT_EQ(churned[s][i], clean[s][i])
          << "session " << s << " request " << i;
    }
  }
}

// Near-miss patching changes float summation order (documented); exact
// integer statistics must survive it, and nothing may crash or race under
// concurrent patch/evict/append traffic.
TEST(ServeStressTest, PatchingTrafficKeepsExactInvariants) {
  const SyntheticDataset ds = MakeDataset();
  ServeOptions options = StressOptions();
  options.patch_near_misses = true;
  options.cache_budget_bytes = 1 << 16;

  auto server_or = ZiggyServer::Create(ds.table, options);
  ASSERT_TRUE(server_or.ok());
  ZiggyServer* server = server_or->get();

  std::vector<std::thread> workers;
  std::atomic<size_t> failures{0};
  for (size_t s = 0; s < kThreads; ++s) {
    workers.emplace_back([&, s] {
      const uint64_t sid = server->OpenSession();
      for (size_t i = 0; i < 24; ++i) {
        // Drifting thresholds: consecutive selections differ by a sliver —
        // prime near-miss territory.
        const std::string q =
            "driver > " +
            FormatDouble(0.4 + 0.01 * static_cast<double>((s * 24 + i) % 40), 6);
        const std::shared_ptr<const ServingState> state = server->state();
        Result<Characterization> r = server->Characterize(sid, q);
        if (!r.ok()) {
          ++failures;
          continue;
        }
        // Exact invariant: the two sides always partition some generation's
        // row count (the request's generation is >= the snapshot observed
        // just before it).
        const int64_t total = r->inside_count + r->outside_count;
        if (total < static_cast<int64_t>(state->table().num_rows())) ++failures;
      }
    });
  }
  // Concurrent append + flush churn.
  std::thread churner([&] {
    for (size_t i = 0; i < 6; ++i) {
      Rng rng(4000 + i);
      if (!server->Append(ds.table.SampleRows(25, &rng)).ok()) ++failures;
      if (i % 2 == 0) server->FlushSketchCache();
    }
  });
  for (auto& w : workers) w.join();
  churner.join();
  EXPECT_EQ(failures.load(), 0u);

  const ServeStats stats = server->stats();
  EXPECT_EQ(stats.requests, kThreads * 24);
  EXPECT_EQ(stats.appends, 6u);
  EXPECT_EQ(stats.generation, 6u);
}

// Cold scans from different sessions run at once, each partitioned by
// column on the shared worker pool. Neither the concurrency nor the thread
// count may show: every session's sketches equal a solo one-thread Build
// bit for bit, and every report equals a one-thread server's byte for
// byte.
TEST(ServeStressTest, ConcurrentColdScansMatchOneThreadServer) {
  // crime (1994 x ~128): wide enough for real column ranges and pairs.
  const SyntheticDataset ds = MakeCrimeDataset().ValueOrDie();
  Rng rng(31);
  const std::vector<std::string> queries =
      GenerateWorkload(ds.table, 2 * kThreads, &rng);

  ServeOptions threaded = StressOptions();
  threaded.scan_threads = 4;
  threaded.engine.build.num_threads = 4;
  ServeOptions single = StressOptions();
  single.scan_threads = 1;
  single.engine.build.num_threads = 1;
  auto threaded_or = ZiggyServer::Create(ds.table, threaded);
  auto single_or = ZiggyServer::Create(ds.table, single);
  ASSERT_TRUE(threaded_or.ok() && single_or.ok());
  ZiggyServer* server = threaded_or->get();
  const auto state = server->state();
  std::vector<Selection> selections;
  for (const std::string& q : queries) {
    selections.push_back(
        ParseQuery(q).ValueOrDie()->Evaluate(state->table()).ValueOrDie());
    for (size_t k = 0; k + 1 < selections.size(); ++k) {
      ASSERT_FALSE(selections[k] == selections.back()) << q;
    }
  }

  // Session s runs queries s and s + kThreads: all distinct, all cold.
  std::vector<std::vector<std::string>> reports(kThreads);
  std::barrier start(static_cast<std::ptrdiff_t>(kThreads));
  std::vector<std::thread> workers;
  for (size_t s = 0; s < kThreads; ++s) {
    workers.emplace_back([&, s] {
      const uint64_t session = server->OpenSession();
      start.arrive_and_wait();
      for (size_t q = s; q < queries.size(); q += kThreads) {
        Result<Characterization> r = server->Characterize(session, queries[q]);
        reports[s].push_back(r.ok() ? Render(*r) : r.status().ToString());
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(server->stats().sketch_misses, queries.size());

  ZiggyServer* reference = single_or->get();
  for (size_t s = 0; s < kThreads; ++s) {
    const uint64_t session = reference->OpenSession();
    size_t k = 0;
    for (size_t q = s; q < queries.size(); q += kThreads, ++k) {
      SCOPED_TRACE(queries[q]);
      const auto cached = server->FindCachedSketches(selections[q]);
      ASSERT_NE(cached, nullptr);
      EXPECT_TRUE(cached->Equals(SelectionSketches::Build(
          state->table(), *state->profile, selections[q], 1)));
      Result<Characterization> r = reference->Characterize(session, queries[q]);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(reports[s][k], Render(*r));
    }
  }
}

// Session isolation: one session's novelty state must not leak into
// another's results even though they share every cache.
TEST(ServeStressTest, SessionsAreIsolated) {
  const SyntheticDataset ds = MakeDataset();
  auto server_or = ZiggyServer::Create(ds.table, StressOptions());
  ASSERT_TRUE(server_or.ok());
  ZiggyServer* server = server_or->get();

  SessionOptions suppress;
  suppress.novelty = SessionOptions::NoveltyPolicy::kSuppress;
  const uint64_t a = server->OpenSession(suppress);
  const uint64_t b = server->OpenSession(suppress);
  const std::string q = ds.selection_predicate;

  // Session a sees the views once; the repeat suppresses them all.
  Result<Characterization> a1 = server->Characterize(a, q);
  Result<Characterization> a2 = server->Characterize(a, q);
  ASSERT_TRUE(a1.ok() && a2.ok());
  ASSERT_FALSE(a1->views.empty());
  EXPECT_TRUE(a2->views.empty());
  // Session b's first request must look like a's first, not a's second.
  Result<Characterization> b1 = server->Characterize(b, q);
  ASSERT_TRUE(b1.ok());
  EXPECT_EQ(Render(*b1), Render(*a1));

  auto stats_a = server->GetSessionStats(a);
  auto stats_b = server->GetSessionStats(b);
  ASSERT_TRUE(stats_a.ok() && stats_b.ok());
  EXPECT_EQ(stats_a->queries_run, 2u);
  EXPECT_EQ(stats_b->queries_run, 1u);

  EXPECT_TRUE(server->CloseSession(b).ok());
  EXPECT_FALSE(server->CloseSession(b).ok());
  EXPECT_EQ(server->num_sessions(), 1u);
}

}  // namespace
}  // namespace ziggy
