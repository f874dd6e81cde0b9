// The networked serving stack, bottom to top:
//
//  * ServerCatalog — naming, lifecycle, and the invariant the whole PR
//    rests on: two tables served concurrently through one catalog (shared
//    worker pool, shared cache budget) produce byte-identical output to
//    each table served alone.
//  * DaemonHandler — verb semantics, driven directly (no sockets).
//  * ZiggyDaemon + ZiggyClient — the real thing over loopback TCP: golden
//    byte-match with the in-process pipeline, malformed/oversized input
//    answered with clean errors on a surviving connection, appends, stats.
//  * The checked-in CI fixtures (tests/golden/daemon_e2e.*) — regenerated
//    and verified here so the CI shell script can never drift from what
//    the library actually produces.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "data/synthetic.h"
#include "engine/json.h"
#include "engine/report.h"
#include "obs/metrics.h"
#include "persist/fs_util.h"
#include "serve/catalog.h"
#include "serve/client.h"
#include "serve/daemon/daemon.h"
#include "serve/daemon/handler.h"
#include "storage/csv.h"

#ifndef ZIGGY_SOURCE_DIR
#define ZIGGY_SOURCE_DIR "."
#endif

namespace ziggy {
namespace {

// The predicate baked into tests/golden/daemon_e2e_commands.txt; pinned
// against MakeBoxOfficeDataset(7) below so the CI script cannot rot.
constexpr char kBoxofficePredicate[] = "revenue_index >= 1.1826265604539112";

ServeOptions GoldenServeOptions() {
  ServeOptions options;
  options.engine.search.min_tightness = 0.4;
  options.engine.search.max_views = 10;
  return options;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// True when `body` equals `pattern`, where each '*' in the pattern stands
// for one unsigned decimal number (a byte count, an age, a core count).
bool MatchesWithNumbers(const std::string& body, const std::string& pattern) {
  size_t b = 0;
  for (const char c : pattern) {
    if (c == '*') {
      const size_t start = b;
      while (b < body.size() && body[b] >= '0' && body[b] <= '9') ++b;
      if (b == start) return false;
    } else if (b >= body.size() || body[b++] != c) {
      return false;
    }
  }
  return b == body.size();
}

// Flattens a JSON object reply into path -> value text: nested object
// keys join with '.', and arrays and strings are kept whole. Enough for
// the admin replies, whose strings hold no brackets or escaped quotes.
void FlattenJsonObject(const std::string& s, size_t* i,
                       const std::string& prefix,
                       std::map<std::string, std::string>* out) {
  ++*i;  // '{'
  while (*i < s.size() && s[*i] != '}') {
    if (s[*i] == ',') ++*i;
    const size_t key_end = s.find('"', *i + 1);
    const std::string key = s.substr(*i + 1, key_end - *i - 1);
    const std::string path = prefix.empty() ? key : prefix + "." + key;
    *i = key_end + 2;  // past the closing quote and the colon
    if (s[*i] == '{') {
      FlattenJsonObject(s, i, path, out);
      continue;
    }
    const size_t start = *i;
    if (s[*i] == '[') {
      for (int depth = 0; *i < s.size(); ++*i) {
        depth += s[*i] == '[' ? 1 : s[*i] == ']' ? -1 : 0;
        if (depth == 0) break;
      }
      ++*i;
    } else if (s[*i] == '"') {
      *i = s.find('"', *i + 1) + 1;
    } else {
      while (*i < s.size() && s[*i] != ',' && s[*i] != '}') ++*i;
    }
    (*out)[path] = s.substr(start, *i - start);
  }
  ++*i;  // '}'
}

std::map<std::string, std::string> FlattenJson(const std::string& body) {
  std::map<std::string, std::string> out;
  size_t i = 0;
  FlattenJsonObject(body, &i, "", &out);
  EXPECT_EQ(i, body.size()) << body;
  return out;
}

// ---------------------------------------------------------------- sources --

TEST(LoadTableFromSourceTest, DemoSourcesAndErrors) {
  Result<Table> box = LoadTableFromSource("demo://boxoffice?seed=7");
  ASSERT_TRUE(box.ok());
  EXPECT_EQ(box->num_rows(), 900u);
  EXPECT_EQ(box->num_columns(), 12u);

  EXPECT_TRUE(LoadTableFromSource("demo://boxoffice").ok());
  EXPECT_FALSE(LoadTableFromSource("demo://nope").ok());
  EXPECT_FALSE(LoadTableFromSource("demo://boxoffice?speed=7").ok());
  EXPECT_FALSE(LoadTableFromSource("demo://boxoffice?seed=abc").ok());
  EXPECT_FALSE(LoadTableFromSource("/no/such/file.csv").ok());
}

// ---------------------------------------------------------------- catalog --

TEST(ServerCatalogTest, OpenFindCloseList) {
  ServerCatalog catalog;
  auto ds = MakeBoxOfficeDataset(7);
  ASSERT_TRUE(ds.ok());
  ASSERT_TRUE(catalog.Open("box", std::move(ds->table)).ok());
  EXPECT_EQ(catalog.num_tables(), 1u);

  EXPECT_TRUE(catalog.Find("box").ok());
  EXPECT_TRUE(catalog.Find("nope").status().IsNotFound());

  auto dup = MakeBoxOfficeDataset(7);
  ASSERT_TRUE(dup.ok());
  EXPECT_TRUE(
      catalog.Open("box", std::move(dup->table)).status().IsAlreadyExists());

  auto infos = catalog.List();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].name, "box");
  EXPECT_EQ(infos[0].num_rows, 900u);
  EXPECT_EQ(infos[0].generation, 0u);

  EXPECT_TRUE(catalog.Close("box").ok());
  EXPECT_TRUE(catalog.Close("box").IsNotFound());
  EXPECT_EQ(catalog.num_tables(), 0u);
}

TEST(ServerCatalogTest, RejectsBadNamesAndEnforcesCapacity) {
  CatalogOptions options;
  options.max_tables = 1;
  ServerCatalog catalog(options);
  auto a = MakeBoxOfficeDataset(7);
  auto b = MakeBoxOfficeDataset(19);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(catalog.Open("a", std::move(a->table)).ok());
  EXPECT_TRUE(
      catalog.Open("b", std::move(b->table)).status().IsFailedPrecondition());
}

// The catalog and the store share one table-name rule: "." and ".."
// would name the store's own directories, so a table by that name could
// never be checkpointed and every background flush of it would fail.
TEST(DaemonHandlerTest, OpenRejectsDotTableNames) {
  CatalogOptions options;
  options.serve = GoldenServeOptions();
  ServerCatalog catalog(options);
  DaemonHandler handler(&catalog);
  for (const char* name : {".", ".."}) {
    auto request = LineProtocol::ParseRequest(
        std::string("OPEN ") + name + " demo://boxoffice?seed=7");
    ASSERT_TRUE(request.ok()) << name;
    EXPECT_EQ(handler.Handle(*request).code, StatusCode::kInvalidArgument)
        << name;
  }
  EXPECT_EQ(catalog.num_tables(), 0u);
}

TEST(ServerCatalogTest, SharedBudgetIsChargedAndStatsExposeIt) {
  CatalogOptions options;
  options.serve = GoldenServeOptions();
  ServerCatalog catalog(options);
  auto ds = MakeBoxOfficeDataset(7);
  ASSERT_TRUE(ds.ok());
  const std::string predicate = ds->selection_predicate;
  auto server = catalog.Open("box", std::move(ds->table));
  ASSERT_TRUE(server.ok());
  const uint64_t sid = (*server)->OpenSession();
  ASSERT_TRUE((*server)->Characterize(sid, predicate).ok());
  obs::MetricsRegistry* metrics = catalog.metrics();
  catalog.RefreshMetrics();
  EXPECT_EQ(metrics->GaugeValue("ziggy_catalog_tables"), 1);
  // The cached sketch.
  EXPECT_GT(metrics->GaugeValue("ziggy_catalog_shared_budget_used_bytes"), 0);
  EXPECT_GT(metrics->GaugeValue("ziggy_catalog_worker_pool_threads"), 0);
  // Closing the table destroys its server and cache; the shared ledger
  // must return to zero (no leaked accounting).
  ASSERT_TRUE(catalog.Close("box").ok());
  server = Status::NotFound("released");  // drop the last server handle
  catalog.RefreshMetrics();
  EXPECT_EQ(metrics->GaugeValue("ziggy_catalog_shared_budget_used_bytes"), 0);
}

TEST(ServerCatalogTest, TinySharedBudgetEnforcedAcrossTables) {
  CatalogOptions options;
  options.serve = GoldenServeOptions();
  // A budget far below one sketch set: every insertion must shed down to
  // the single just-inserted entry, and the ledger must track it.
  options.total_cache_budget_bytes = 1024;
  ServerCatalog catalog(options);
  auto a = MakeBoxOfficeDataset(7);
  auto b = MakeBoxOfficeDataset(19);
  ASSERT_TRUE(a.ok() && b.ok());
  auto sa = catalog.Open("a", std::move(a->table));
  auto sb = catalog.Open("b", std::move(b->table));
  ASSERT_TRUE(sa.ok() && sb.ok());
  const uint64_t sida = (*sa)->OpenSession();
  const uint64_t sidb = (*sb)->OpenSession();
  for (int i = 0; i < 3; ++i) {
    // Distinct selections each round: every request inserts fresh
    // sketches, so the group budget is exercised, not the exact-hit path.
    const std::string suffix = "1." + std::to_string(i);
    ASSERT_TRUE((*sa)->Characterize(sida, "revenue_index > " + suffix).ok());
    ASSERT_TRUE((*sb)->Characterize(sidb, "revenue_index > " + suffix).ok());
  }
  const CacheStats ca = (*sa)->stats().cache;
  const CacheStats cb = (*sb)->stats().cache;
  // Each cache kept at most its most recent insertion ("cache of one").
  EXPECT_LE(ca.entries, 1u);
  EXPECT_LE(cb.entries, 1u);
  EXPECT_GT(ca.evictions + cb.evictions, 0u);
}

// Two tables served concurrently through one catalog byte-match their
// solo-served outputs: cross-table interference (shared pool, shared
// budget, interleaved scheduling) must be invisible in results.
TEST(ServerCatalogTest, TwoTablesConcurrentlyByteMatchSoloServing) {
  auto make_workload = [](uint64_t seed) {
    auto ds = MakeBoxOfficeDataset(seed).ValueOrDie();
    std::vector<std::string> queries = {ds.selection_predicate,
                                        "revenue_index > 1.0",
                                        "budget_0 > 0.5 AND budget_1 > 0.5",
                                        ds.selection_predicate,  // cache hit
                                        "audience_0 > 0.25"};
    return std::make_pair(std::move(ds), std::move(queries));
  };

  auto serve_solo = [](Table table, const std::vector<std::string>& queries) {
    auto server = ZiggyServer::Create(std::move(table), GoldenServeOptions());
    EXPECT_TRUE(server.ok());
    const uint64_t sid = (*server)->OpenSession();
    std::vector<std::string> reports;
    const Schema& schema = (*server)->state()->table().schema();
    for (const std::string& q : queries) {
      auto result = (*server)->Characterize(sid, q);
      EXPECT_TRUE(result.ok()) << q;
      reports.push_back(RenderCharacterizationReport(*result, schema));
    }
    return reports;
  };

  auto [ds_a, queries_a] = make_workload(7);
  auto [ds_b, queries_b] = make_workload(19);
  auto solo_a = serve_solo(std::move(ds_a.table), queries_a);
  auto solo_b = serve_solo(std::move(ds_b.table), queries_b);

  CatalogOptions options;
  options.serve = GoldenServeOptions();
  ServerCatalog catalog(options);
  auto fresh_a = MakeBoxOfficeDataset(7);
  auto fresh_b = MakeBoxOfficeDataset(19);
  ASSERT_TRUE(fresh_a.ok() && fresh_b.ok());
  ASSERT_TRUE(catalog.Open("a", std::move(fresh_a->table)).ok());
  ASSERT_TRUE(catalog.Open("b", std::move(fresh_b->table)).ok());

  std::vector<std::string> concurrent_a, concurrent_b;
  auto drive = [&catalog](const std::string& name,
                          const std::vector<std::string>& queries,
                          std::vector<std::string>* out) {
    auto server = catalog.Find(name);
    ASSERT_TRUE(server.ok());
    const uint64_t sid = (*server)->OpenSession();
    const Schema& schema = (*server)->state()->table().schema();
    for (const std::string& q : queries) {
      auto result = (*server)->Characterize(sid, q);
      ASSERT_TRUE(result.ok()) << name << ": " << q;
      out->push_back(RenderCharacterizationReport(*result, schema));
    }
  };
  std::thread ta(drive, "a", queries_a, &concurrent_a);
  std::thread tb(drive, "b", queries_b, &concurrent_b);
  ta.join();
  tb.join();

  EXPECT_EQ(concurrent_a, solo_a);
  EXPECT_EQ(concurrent_b, solo_b);
}

// ---------------------------------------------------------------- handler --

TEST(DaemonHandlerTest, VerbSemantics) {
  CatalogOptions options;
  options.serve = GoldenServeOptions();
  ServerCatalog catalog(options);
  DaemonHandler handler(&catalog);

  auto call = [&handler](const std::string& line) {
    auto request = LineProtocol::ParseRequest(line);
    EXPECT_TRUE(request.ok()) << line;
    return handler.Handle(*request);
  };

  WireResponse open = call("OPEN box demo://boxoffice?seed=7");
  ASSERT_TRUE(open.ok) << open.body;
  EXPECT_EQ(open.body,
            "{\"table\":\"box\",\"rows\":900,\"columns\":12,\"generation\":0}");

  WireResponse dup = call("OPEN box demo://boxoffice?seed=7");
  EXPECT_FALSE(dup.ok);
  EXPECT_EQ(dup.code, StatusCode::kAlreadyExists);

  WireResponse list = call("LIST");
  ASSERT_TRUE(list.ok);
  EXPECT_EQ(list.body,
            "{\"tables\":[{\"name\":\"box\",\"rows\":900,\"columns\":12,"
            "\"generation\":0,\"sessions\":0}]}");

  EXPECT_EQ(call("VIEWS nope x > 1").code, StatusCode::kNotFound);
  EXPECT_EQ(call("VIEWS box revenue_index >").code, StatusCode::kParseError);
  EXPECT_EQ(handler.num_open_sessions(), 1u);  // lazily opened by VIEWS

  WireResponse views = call(std::string("VIEWS box ") + kBoxofficePredicate);
  ASSERT_TRUE(views.ok) << views.body;
  EXPECT_EQ(views.body.front(), '"');
  EXPECT_EQ(views.body.back(), '"');

  WireResponse characterize =
      call(std::string("CHARACTERIZE box ") + kBoxofficePredicate);
  ASSERT_TRUE(characterize.ok);
  EXPECT_NE(characterize.body.find("\"result\":{"), std::string::npos);
  EXPECT_NE(characterize.body.find("\"sketches\":\""), std::string::npos);

  WireResponse stats = call("STATS box");
  ASSERT_TRUE(stats.ok);
  EXPECT_NE(stats.body.find("\"sketch_cache\""), std::string::npos);
  WireResponse catalog_stats = call("STATS");
  ASSERT_TRUE(catalog_stats.ok);
  EXPECT_NE(catalog_stats.body.find("\"worker_pool_threads\""),
            std::string::npos);

  WireResponse close = call("CLOSE box");
  ASSERT_TRUE(close.ok);
  EXPECT_EQ(handler.num_open_sessions(), 0u);
  EXPECT_EQ(call("CLOSE box").code, StatusCode::kNotFound);

  // HELLO pins the full capability payload: no store attached, healthy,
  // default limits, every verb in table (= enum = wire) order.
  WireResponse hello = call("HELLO");
  ASSERT_TRUE(hello.ok) << hello.body;
  EXPECT_EQ(hello.body,
            "{\"server\":\"ziggy\",\"protocol\":2,"
            "\"features\":{\"pipelining\":true,\"compression\":false,"
            "\"degraded\":false},"
            "\"limits\":{\"max_line_bytes\":" +
                std::to_string(LineProtocol::kMaxLineBytes) +
                ",\"max_pipeline\":64},"
                "\"verbs\":[\"OPEN\",\"LIST\",\"CHARACTERIZE\",\"VIEWS\","
                "\"APPEND\",\"STATS\",\"SAVE\",\"PERSIST\",\"CLOSE\","
                "\"HEALTH\",\"HELLO\",\"QUIT\",\"METRICS\"]}");

  // METRICS: JSON by default, Prometheus text (wire-framed as one JSON
  // string) on request, and an ERR for an unknown format.
  WireResponse metrics_json = call("METRICS");
  ASSERT_TRUE(metrics_json.ok) << metrics_json.body;
  EXPECT_EQ(metrics_json.body.front(), '{');
  EXPECT_NE(metrics_json.body.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(metrics_json.body.find("\"histograms\":{"), std::string::npos);
  WireResponse metrics_prom = call("METRICS prometheus");
  ASSERT_TRUE(metrics_prom.ok) << metrics_prom.body;
  EXPECT_EQ(metrics_prom.body.front(), '"');
  EXPECT_EQ(metrics_prom.body.back(), '"');
  EXPECT_NE(metrics_prom.body.find("# TYPE"), std::string::npos);
  EXPECT_EQ(call("METRICS xml").code, StatusCode::kInvalidArgument);

  EXPECT_FALSE(handler.quit_requested());
  WireResponse quit = call("QUIT");
  ASSERT_TRUE(quit.ok);
  EXPECT_TRUE(handler.quit_requested());
}

// A connection's cached per-table session must not outlive the table: if
// another connection CLOSEs and re-OPENs the name, the next request here
// must bind to the *current* table, not silently serve the dead one.
TEST(DaemonHandlerTest, RebindsSessionAfterTableIsReplacedByAnotherConnection) {
  CatalogOptions options;
  options.serve = GoldenServeOptions();
  ServerCatalog catalog(options);
  DaemonHandler conn_a(&catalog);
  DaemonHandler conn_b(&catalog);

  auto call = [](DaemonHandler* handler, const std::string& line) {
    auto request = LineProtocol::ParseRequest(line);
    EXPECT_TRUE(request.ok()) << line;
    return handler->Handle(*request);
  };

  ASSERT_TRUE(call(&conn_a, "OPEN t demo://boxoffice?seed=7").ok);
  ASSERT_TRUE(call(&conn_a, "VIEWS t revenue_index > 1.2").ok);  // binds session

  // Connection B replaces `t` with a different dataset (different schema).
  ASSERT_TRUE(call(&conn_b, "CLOSE t").ok);
  ASSERT_TRUE(call(&conn_b, "OPEN t demo://crime?seed=11").ok);

  // A's cached binding is stale; the handler must resolve the new table —
  // a boxoffice column no longer exists, a crime column does.
  EXPECT_EQ(call(&conn_a, "VIEWS t revenue_index > 1.2").code,
            StatusCode::kNotFound);
  EXPECT_TRUE(call(&conn_a, "VIEWS t violent_crime_rate > 1.4").ok);
  EXPECT_EQ(conn_a.num_open_sessions(), 1u);
}

TEST(DaemonHandlerTest, SaveAndPersistRequireAStore) {
  CatalogOptions options;
  options.serve = GoldenServeOptions();
  ServerCatalog catalog(options);
  DaemonHandler handler(&catalog);

  auto call = [&handler](const std::string& line) {
    auto request = LineProtocol::ParseRequest(line);
    EXPECT_TRUE(request.ok()) << line;
    return handler.Handle(*request);
  };

  EXPECT_EQ(call("SAVE").code, StatusCode::kFailedPrecondition);
  EXPECT_EQ(call("SAVE box").code, StatusCode::kFailedPrecondition);
  EXPECT_EQ(call("PERSIST box on").code, StatusCode::kFailedPrecondition);
}

TEST(DaemonHandlerTest, SaveAndPersistVerbsAgainstAStore) {
  const std::string dir =
      ::testing::TempDir() + "/ziggy_daemon_test_store_verbs";
  CatalogOptions options;
  options.serve = GoldenServeOptions();
  ServerCatalog catalog(options);
  ASSERT_TRUE(catalog.AttachStore(dir).ok());
  DaemonHandler handler(&catalog);

  auto call = [&handler](const std::string& line) {
    auto request = LineProtocol::ParseRequest(line);
    EXPECT_TRUE(request.ok()) << line;
    return handler.Handle(*request);
  };

  ASSERT_TRUE(call("OPEN box demo://boxoffice?seed=7").ok);
  EXPECT_EQ(call("SAVE nope").code, StatusCode::kNotFound);
  EXPECT_EQ(call("PERSIST nope on").code, StatusCode::kNotFound);
  EXPECT_EQ(call("PERSIST box maybe").code, StatusCode::kInvalidArgument);

  WireResponse save = call("SAVE box");
  ASSERT_TRUE(save.ok) << save.body;
  EXPECT_EQ(save.body, "{\"saved\":[{\"table\":\"box\",\"generation\":0}]}");
  EXPECT_TRUE(catalog.StoreHas("box"));

  WireResponse persist_on = call("PERSIST box on");
  ASSERT_TRUE(persist_on.ok);
  EXPECT_EQ(persist_on.body, "{\"table\":\"box\",\"persist\":true}");
  WireResponse persist_off = call("PERSIST box OFF");  // case-insensitive
  ASSERT_TRUE(persist_off.ok);
  EXPECT_EQ(persist_off.body, "{\"table\":\"box\",\"persist\":false}");

  WireResponse save_all = call("SAVE");
  ASSERT_TRUE(save_all.ok);
  EXPECT_EQ(save_all.body,
            "{\"saved\":[{\"table\":\"box\",\"generation\":0}]}");

  // Stats expose the store section.
  WireResponse stats = call("STATS");
  ASSERT_TRUE(stats.ok);
  EXPECT_NE(stats.body.find("\"store\":{\"attached\":true"), std::string::npos);

  ASSERT_TRUE(call("CLOSE box").ok);
  EXPECT_TRUE(catalog.StoreHas("box"));  // close keeps the checkpoint
  ASSERT_TRUE(RemoveDirectory(dir).ok());
}

// A SAVE that hits a disk fault surfaces the error over the wire,
// installs nothing, and succeeds verbatim once the fault heals (the
// ScopedFault window closing is the heal).
TEST(DaemonHandlerTest, SaveFaultSurfacesErrorAndHealsCleanly) {
  const std::string dir = ::testing::TempDir() + "/ziggy_daemon_test_savefault";
  CatalogOptions options;
  options.serve = GoldenServeOptions();
  ServerCatalog catalog(options);
  ASSERT_TRUE(catalog.AttachStore(dir).ok());
  DaemonHandler handler(&catalog);

  auto call = [&handler](const std::string& line) {
    auto request = LineProtocol::ParseRequest(line);
    EXPECT_TRUE(request.ok()) << line;
    return handler.Handle(*request);
  };

  ASSERT_TRUE(call("OPEN box demo://boxoffice?seed=7").ok);
  {
    ScopedFault fault("store.write:n1#ENOSPC");
    ASSERT_TRUE(fault.status().ok());
    WireResponse save = call("SAVE box");
    EXPECT_FALSE(save.ok);
    EXPECT_GE(fault.fires(), 1u);
  }
  EXPECT_FALSE(catalog.StoreHas("box"));

  WireResponse healed = call("SAVE box");
  ASSERT_TRUE(healed.ok) << healed.body;
  EXPECT_EQ(healed.body, "{\"saved\":[{\"table\":\"box\",\"generation\":0}]}");
  EXPECT_TRUE(catalog.StoreHas("box"));
  ASSERT_TRUE(call("CLOSE box").ok);
  ASSERT_TRUE(RemoveDirectory(dir).ok());
}

// Every reply body the handler writes, pinned byte for byte: a handler
// driven without a daemon (so `connections` reads all zeros) over a
// FakeClock registry (so every span histogram reads 0). Only numbers that
// vary by host (core count, checkpoint sizes, process gauges) are
// wildcards, and CHARACTERIZE's wall-clock stage timings are masked; the
// hand-built characterization below pins how timings render.
TEST(DaemonHandlerTest, ReplyBodiesArePinnedByteForByte) {
  Schema schema({{"quote\"d", ColumnType::kNumeric},
                 {"gr\xc3\xb6\xc3\x9f" "e", ColumnType::kCategorical}});
  Characterization built;
  built.inside_count = 90;
  built.outside_count = 810;
  built.num_candidates = 8;
  built.views_dropped = 1;
  built.timings.preparation_ms = 1.5;
  built.timings.search_ms = 1.0 / 3.0;
  built.timings.post_processing_ms = 0.0;
  CharacterizedView first;
  first.view.columns = {0, 1};
  first.view.score.total = 0.25;
  first.view.score.per_kind[0] = 0.5;
  first.view.score.count_per_kind[0] = 1;
  first.view.score.per_kind[3] = 1e-20;
  first.view.score.count_per_kind[3] = 2;
  first.view.tightness = 0.7;
  first.view.aggregated_p_value = std::nan("");
  first.explanation.headline =
      "a \"quoted\"\nline, caf\xc3\xa9 \xf0\x9f\x98\x80";
  first.explanation.details = {"d1", "tab\there"};
  CharacterizedView second;
  second.view.columns = {1};
  second.view.aggregated_p_value = 3.51986835631e-37;
  built.views = {first, second};
  EXPECT_EQ(
      CharacterizationToJson(built, schema),
      "{\"inside_count\":90,\"outside_count\":810,\"num_candidates\":8,"
      "\"views_dropped\":1,\"timings_ms\":{"
      "\"preparation\":1.5,\"view_search\":0.333333333333,"
      "\"post_processing\":0},\"views\":[{\"rank\":1,\"columns\":["
      "\"quote\\\"d\",\"gr\\u00f6\\u00dfe\"],\"score\":0.25,"
      "\"score_breakdown\":{\"mean-shift\":0.5,\"frequency-shift\":1e-20},"
      "\"tightness\":0.7,\"p_value\":null,\"headline\":\"a \\\"quoted\\\"\\n"
      "line, caf\\u00e9 \\ud83d\\ude00\",\"details\":[\"d1\","
      "\"tab\\there\"]},{\"rank\":2,\"columns\":[\"gr\\u00f6\\u00dfe\"],"
      "\"score\":0,\"score_breakdown\":{},\"tightness\":1,"
      "\"p_value\":3.51986835631e-37,\"headline\":\"\",\"details\":[]}]}");

  const std::string dir = ::testing::TempDir() + "/ziggy_daemon_test_pins";
  (void)RemoveDirectory(dir);
  obs::FakeClock clock;
  CatalogOptions options;
  options.serve = GoldenServeOptions();
  options.serve.engine.search.max_views = 2;
  options.metrics = std::make_shared<obs::MetricsRegistry>(&clock);
  ServerCatalog catalog(options);
  ASSERT_TRUE(catalog.AttachStore(dir).ok());
  DaemonHandler handler(&catalog);
  auto call = [&handler](const std::string& line) {
    auto request = LineProtocol::ParseRequest(line);
    EXPECT_TRUE(request.ok()) << line;
    WireResponse response = handler.Handle(*request);
    EXPECT_TRUE(response.ok) << line << ": " << response.body;
    return response.body;
  };

  EXPECT_EQ(call("OPEN box demo://boxoffice?seed=7"),
            "{\"table\":\"box\",\"rows\":900,\"columns\":12,\"generation\":0}");
  EXPECT_EQ(call("OPEN crime demo://crime?seed=11"),
            "{\"table\":\"crime\",\"rows\":1994,\"columns\":128,"
            "\"generation\":0}");
  EXPECT_EQ(call("LIST"),
            "{\"tables\":[{\"name\":\"box\",\"rows\":900,\"columns\":12,"
            "\"generation\":0,\"sessions\":0},{\"name\":\"crime\","
            "\"rows\":1994,\"columns\":128,\"generation\":0,\"sessions\":0}]}");

  std::string characterize =
      call(std::string("CHARACTERIZE box ") + kBoxofficePredicate);
  const size_t timings = characterize.find("\"timings_ms\":{");
  ASSERT_NE(timings, std::string::npos) << characterize;
  characterize.replace(timings,
                       characterize.find('}', timings) + 1 - timings,
                       "\"timings_ms\":{}");
  EXPECT_EQ(
      characterize,
      "{\"table\":\"box\",\"sketches\":\"server-scan\",\"result\":{"
      "\"inside_count\":90,\"outside_count\":810,\"num_candidates\":8,"
      "\"views_dropped\":0,\"timings_ms\":{},"
      "\"views\":[{\"rank\":1,\"columns\":[\"cat_0\"],\"score\":1,"
      "\"score_breakdown\":{\"frequency-shift\":1},\"tightness\":1,"
      "\"p_value\":3.51986835631e-37,\"headline\":\"On the column cat_0, "
      "your selection has an over-representation of 'c0' in cat_0.\","
      "\"details\":[\"frequency-shift on cat_0: total-variation distance "
      "0.593, most over-represented: 'c0', p=3.5e-37 [n_in=90, "
      "n_out=810]\"]},{\"rank\":2,\"columns\":[\"revenue_index\"],"
      "\"score\":1,\"score_breakdown\":{\"mean-shift\":1,"
      "\"dispersion-shift\":1,\"rank-shift\":1,\"distribution-shift\":1},"
      "\"tightness\":1,\"p_value\":0,\"headline\":\"On the column "
      "revenue_index, your selection has particularly high values of "
      "revenue_index, a concentration of revenue_index in the range "
      "[1.206, 1.583) and systematically higher values of "
      "revenue_index.\",\"details\":[\"mean-shift on revenue_index: mean "
      "1.688 inside vs -0.2477 outside (g=2.42), p=0 [n_in=90, "
      "n_out=810]\",\"distribution-shift on revenue_index: histogram "
      "total-variation distance 0.978, mass concentrated in [1.206, "
      "1.583), p=1.5e-177 [n_in=90, n_out=810]\",\"rank-shift on "
      "revenue_index: P(inside > outside) = 1 (Cliff's delta=1), p=1e-54 "
      "[n_in=90, n_out=810]\"]}]}}");

  EXPECT_EQ(call("PERSIST box on"), "{\"table\":\"box\",\"persist\":true}");
  // Under this fault the first fire only makes the dictionary pool inline
  // a dictionary; the second fails the checkpoint's table file.
  {
    ScopedFault fault("store.write:n1*2#ENOSPC");
    ASSERT_TRUE(fault.status().ok());
    EXPECT_EQ(call("APPEND box demo://boxoffice?seed=19"),
              "{\"table\":\"box\",\"appended_rows\":900,\"generation\":1,"
              "\"checkpoint_error\":\"IOError: injected fault at store.write "
              "(ENOSPC): No space left on device\"}");
  }
  {
    ScopedFault fault("store.write:n1*2#ENOSPC");
    ASSERT_TRUE(fault.status().ok());
    EXPECT_EQ(call("SAVE"),
              "{\"saved\":[{\"table\":\"crime\",\"generation\":0}],"
              "\"errors\":[{\"table\":\"box\",\"error\":\"IOError: injected "
              "fault at store.write (ENOSPC): No space left on device\"}]}");
  }
  EXPECT_EQ(call("HELLO"),
            "{\"server\":\"ziggy\",\"protocol\":2,"
            "\"features\":{\"pipelining\":true,\"compression\":true,"
            "\"degraded\":false},"
            "\"limits\":{\"max_line_bytes\":1048576,\"max_pipeline\":64},"
            "\"verbs\":[\"OPEN\",\"LIST\",\"CHARACTERIZE\",\"VIEWS\","
            "\"APPEND\",\"STATS\",\"SAVE\",\"PERSIST\",\"CLOSE\","
            "\"HEALTH\",\"HELLO\",\"QUIT\",\"METRICS\"]}");
  EXPECT_EQ(call("STATS box"),
            "{\"generation\":1,\"sessions_opened\":1,\"requests\":1,"
            "\"failures\":0,\"sketch_exact_hits\":0,\"sketch_patched_hits\":0,"
            "\"sketch_misses\":1,\"patched_delta_rows\":0,\"appends\":1,"
            "\"appended_rows\":900,\"cache_flushes\":1,"
            "\"sketch_cache\":{\"hits\":0,\"misses\":1,\"insertions\":1,"
            "\"evictions\":0,\"bytes_in_use\":0,\"entries\":0}}");
  EXPECT_EQ(call("CLOSE crime"), "{\"table\":\"crime\",\"closed\":true}");
  const std::string metrics = call("METRICS json");
  EXPECT_TRUE(MatchesWithNumbers(
      metrics,
      "{\"counters\":{\"ziggy_catalog_tables_closed_total\":1,"
      "\"ziggy_catalog_tables_opened_total\":2,"
      "\"ziggy_flusher_cycles_total\":0,\"ziggy_flusher_failures_total\":0,"
      "\"ziggy_flusher_flushed_tables_total\":0,"
      "\"ziggy_sketch_cache_evictions_total\":0,"
      "\"ziggy_sketch_cache_hits_total\":0,"
      "\"ziggy_sketch_cache_insertions_total\":1,"
      "\"ziggy_sketch_cache_misses_total\":1,\"ziggy_store_opens_total\":0,"
      "\"ziggy_store_saves_total\":1},\"gauges\":{"
      "\"ziggy_catalog_shared_budget_total_bytes\":268435456,"
      "\"ziggy_catalog_shared_budget_used_bytes\":0,"
      "\"ziggy_catalog_tables\":1,\"ziggy_catalog_worker_pool_threads\":*,"
      "\"ziggy_flusher_active\":0,\"ziggy_flusher_backoff_tables\":0,"
      "\"ziggy_flusher_consecutive_failures\":0,"
      "\"ziggy_flusher_degraded\":0,\"ziggy_flusher_max_dirty_age_ms\":0,"
      "\"ziggy_flusher_queue_depth\":0,\"ziggy_flusher_retry_after_ms\":0,"
      "\"ziggy_process_minor_faults\":*,\"ziggy_process_peak_rss_bytes\":*,"
      "\"ziggy_store_attached\":1,\"ziggy_store_checkpoint_bytes\":*,"
      "\"ziggy_store_checkpoint_raw_bytes\":*,\"ziggy_store_compactions\":0,"
      "\"ziggy_store_delta_checkpoints\":0,"
      "\"ziggy_store_dict_pool_bytes\":*,\"ziggy_store_dict_pool_files\":*,"
      "\"ziggy_store_dict_pool_shared_hits\":0,"
      "\"ziggy_store_full_checkpoints\":*,\"ziggy_store_tables\":*},"
      "\"histograms\":{\"ziggy_open_csv_parse_us\":{\"count\":2,\"sum\":0,"
      "\"min\":0,\"max\":0,\"p50\":0,\"p90\":0,\"p99\":0},"
      "\"ziggy_open_dendrogram_us\":{\"count\":2,\"sum\":0,\"min\":0,"
      "\"max\":0,\"p50\":0,\"p90\":0,\"p99\":0},"
      "\"ziggy_open_profile_us\":{\"count\":2,\"sum\":0,\"min\":0,\"max\":0,"
      "\"p50\":0,\"p90\":0,\"p99\":0},\"ziggy_scan_us\":{\"count\":1,"
      "\"sum\":0,\"min\":0,\"max\":0,\"p50\":0,\"p90\":0,\"p99\":0},"
      "\"ziggy_sketch_lookup_us\":{\"count\":1,\"sum\":0,\"min\":0,"
      "\"max\":0,\"p50\":0,\"p90\":0,\"p99\":0},"
      "\"ziggy_store_load_us\":{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,"
      "\"p50\":0,\"p90\":0,\"p99\":0},\"ziggy_store_save_us\":{"
      "\"count\":*,\"sum\":0,\"min\":0,\"max\":0,\"p50\":0,\"p90\":0,"
      "\"p99\":0}}}"))
      << metrics;
  EXPECT_EQ(call("QUIT"), "{\"bye\":true}");
  ASSERT_TRUE(RemoveDirectory(dir).ok());
}

// STATS and HEALTH are views of the registry: through OPEN, a persisted
// APPEND, SAVE, a failing background flush that trips the degraded latch,
// and the heal, every field they render equals its registry series.
TEST(DaemonHandlerTest, StatsAndHealthAgreeWithTheRegistry) {
  struct Series {
    const char* key;
    bool counter;  // else a gauge (booleans are 0/1 gauges)
    const char* name;
  };
  const std::vector<Series> connections = {
      {"connections.accepted", true, "ziggy_daemon_connections_accepted_total"},
      {"connections.rejected", true, "ziggy_daemon_connections_rejected_total"},
      {"connections.timed_out", true,
       "ziggy_daemon_connections_timed_out_total"},
      {"connections.live", false, "ziggy_daemon_live_connections"},
      {"connections.accept_retries", true, "ziggy_daemon_accept_retries_total"},
      {"connections.requests", true, "ziggy_daemon_requests_total"},
      {"connections.protocol_errors", true,
       "ziggy_daemon_protocol_errors_total"},
      {"connections.reads_throttled", true,
       "ziggy_daemon_reads_throttled_total"},
      {"connections.pipelined_requests", true,
       "ziggy_daemon_pipelined_requests_total"},
      {"connections.dispatch_batches", true,
       "ziggy_daemon_dispatch_batches_total"},
  };
  std::vector<Series> stats_keys = {
      {"tables", false, "ziggy_catalog_tables"},
      {"tables_opened", true, "ziggy_catalog_tables_opened_total"},
      {"tables_closed", true, "ziggy_catalog_tables_closed_total"},
      {"shared_budget_total_bytes", false,
       "ziggy_catalog_shared_budget_total_bytes"},
      {"shared_budget_used_bytes", false,
       "ziggy_catalog_shared_budget_used_bytes"},
      {"worker_pool_threads", false, "ziggy_catalog_worker_pool_threads"},
      {"store.attached", false, "ziggy_store_attached"},
      {"store.tables", false, "ziggy_store_tables"},
      {"store.opens", true, "ziggy_store_opens_total"},
      {"store.saves", true, "ziggy_store_saves_total"},
      {"store.full_checkpoints", false, "ziggy_store_full_checkpoints"},
      {"store.delta_checkpoints", false, "ziggy_store_delta_checkpoints"},
      {"store.compactions", false, "ziggy_store_compactions"},
      {"store.checkpoint_bytes", false, "ziggy_store_checkpoint_bytes"},
      {"store.checkpoint_raw_bytes", false, "ziggy_store_checkpoint_raw_bytes"},
      {"store.dict_pool.files", false, "ziggy_store_dict_pool_files"},
      {"store.dict_pool.bytes", false, "ziggy_store_dict_pool_bytes"},
      {"store.dict_pool.shared_hits", false,
       "ziggy_store_dict_pool_shared_hits"},
      {"flusher.active", false, "ziggy_flusher_active"},
      {"flusher.dirty_tables", false, "ziggy_flusher_queue_depth"},
      {"flusher.cycles", true, "ziggy_flusher_cycles_total"},
      {"flusher.flushed_tables", true, "ziggy_flusher_flushed_tables_total"},
      {"flusher.failures", true, "ziggy_flusher_failures_total"},
      {"flusher.backoff_tables", false, "ziggy_flusher_backoff_tables"},
      {"flusher.degraded", false, "ziggy_flusher_degraded"},
      {"flusher.consecutive_failures", false,
       "ziggy_flusher_consecutive_failures"},
      {"flusher.queue_depth", false, "ziggy_flusher_queue_depth"},
      {"flusher.max_dirty_age_ms", false, "ziggy_flusher_max_dirty_age_ms"},
  };
  std::vector<Series> health_keys = {
      {"tables", false, "ziggy_catalog_tables"},
      {"dirty_tables", false, "ziggy_flusher_queue_depth"},
      {"flush_backoff_tables", false, "ziggy_flusher_backoff_tables"},
      {"consecutive_failures", false, "ziggy_flusher_consecutive_failures"},
      {"flush_lag_ms", false, "ziggy_flusher_max_dirty_age_ms"},
      {"retry_after_ms", false, "ziggy_flusher_retry_after_ms"},
  };
  stats_keys.insert(stats_keys.end(), connections.begin(), connections.end());
  health_keys.insert(health_keys.end(), connections.begin(),
                     connections.end());

  const std::string dir = ::testing::TempDir() + "/ziggy_daemon_test_agree";
  (void)RemoveDirectory(dir);
  CatalogOptions options;
  options.serve = GoldenServeOptions();
  options.flush_interval_ms = 5;
  options.flush_backoff_initial_ms = 10;
  options.flush_backoff_max_ms = 40;
  options.degraded_after_failures = 2;
  ServerCatalog catalog(options);
  ASSERT_TRUE(catalog.AttachStore(dir).ok());
  DaemonHandler handler(&catalog);
  const obs::MetricsRegistry& metrics = *catalog.metrics();
  auto call = [&handler](const std::string& line) {
    auto request = LineProtocol::ParseRequest(line);
    EXPECT_TRUE(request.ok()) << line;
    return handler.Handle(*request);
  };

  // The flusher thread bumps counters at any time; a reply is compared
  // once no counter moved across its render (gauges are written only by
  // the render's own refresh pass).
  const auto agree = [&](const std::string& step, const std::string& verb,
                         const std::vector<Series>& keys) {
    SCOPED_TRACE(step + " / " + verb);
    const auto counters = [&] {
      std::vector<uint64_t> values;
      for (const Series& series : keys) {
        if (series.counter) values.push_back(metrics.CounterValue(series.name));
      }
      return values;
    };
    for (int attempt = 0; attempt < 1000; ++attempt) {
      const std::vector<uint64_t> before = counters();
      const WireResponse reply = call(verb);
      ASSERT_TRUE(reply.ok) << reply.body;
      if (counters() != before) continue;
      std::map<std::string, std::string> fields = FlattenJson(reply.body);
      // Counters are compared with the snapshot that bracketed the render:
      // a fresh read here could already see the flusher's next bump.
      size_t counter_index = 0;
      for (const Series& series : keys) {
        const auto it = fields.find(series.key);
        ASSERT_NE(it, fields.end()) << series.key << " in " << reply.body;
        const int64_t value =
            series.counter
                ? static_cast<int64_t>(before[counter_index++])
                : metrics.GaugeValue(series.name);
        if (it->second == "true" || it->second == "false") {
          EXPECT_EQ(it->second, value != 0 ? "true" : "false") << series.key;
        } else {
          EXPECT_EQ(it->second, std::to_string(value)) << series.key;
        }
        fields.erase(it);
      }
      // What is left is not a registry number: the dirty rows (one per
      // queued table) and HEALTH's status word.
      const int64_t depth = metrics.GaugeValue("ziggy_flusher_queue_depth");
      const bool degraded = metrics.GaugeValue("ziggy_flusher_degraded") != 0;
      if (verb == "STATS") {
        ASSERT_EQ(fields.size(), 1u) << reply.body;
        const std::string& dirty = fields["flusher.dirty"];
        EXPECT_EQ(std::count(dirty.begin(), dirty.end(), '{'), depth) << dirty;
      } else {
        ASSERT_EQ(fields.size(), 1u) << reply.body;
        EXPECT_EQ(fields["status"], degraded ? "\"degraded\"" : "\"ok\"");
      }
      return;
    }
    FAIL() << "the counters never held still across a render";
  };
  const auto agree_both = [&](const std::string& step) {
    agree(step, "STATS", stats_keys);
    agree(step, "HEALTH", health_keys);
  };
  const auto wait_for = [](const std::function<bool()>& done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return done();
  };

  agree_both("attached");
  ASSERT_TRUE(call("OPEN box demo://boxoffice?seed=7").ok);
  ASSERT_TRUE(call(std::string("VIEWS box ") + kBoxofficePredicate).ok);
  agree_both("open");
  ASSERT_TRUE(call("PERSIST box on").ok);
  ASSERT_TRUE(call("APPEND box demo://boxoffice?seed=19").ok);
  agree_both("append");
  ASSERT_TRUE(wait_for([&] {
    return metrics.CounterValue("ziggy_flusher_flushed_tables_total") >= 1;
  }));
  agree_both("flushed");
  ASSERT_TRUE(call("SAVE").ok);
  agree_both("save");
  {
    ScopedFault fault("store.write:p1.0");
    ASSERT_TRUE(fault.status().ok());
    ASSERT_TRUE(call("APPEND box demo://boxoffice?seed=19").ok);
    ASSERT_TRUE(wait_for([&] { return catalog.degraded(); }));
    agree_both("degraded");
    EXPECT_EQ(metrics.GaugeValue("ziggy_flusher_degraded"), 1);
    EXPECT_GE(metrics.CounterValue("ziggy_flusher_failures_total"), 2u);
    EXPECT_GT(metrics.GaugeValue("ziggy_flusher_retry_after_ms"), 0);
  }
  ASSERT_TRUE(wait_for([&] { return !catalog.degraded(); }));
  agree_both("healed");
  EXPECT_EQ(metrics.GaugeValue("ziggy_flusher_degraded"), 0);
  ASSERT_TRUE(call("CLOSE box").ok);
  agree_both("closed");
  catalog.StopFlusher();
  ASSERT_TRUE(RemoveDirectory(dir).ok());
}

// OPEN falls back to a stored checkpoint: same command, same reply, warm
// path — the invariant the CI store-roundtrip gate replays over TCP.
TEST(DaemonHandlerTest, OpenServesCheckpointWhenStoreHasTheTable) {
  const std::string dir = ::testing::TempDir() + "/ziggy_daemon_test_warm_open";
  CatalogOptions options;
  options.serve = GoldenServeOptions();

  std::string cold_open_body, cold_views_body;
  {
    ServerCatalog catalog(options);
    ASSERT_TRUE(catalog.AttachStore(dir).ok());
    DaemonHandler handler(&catalog);
    auto open = LineProtocol::ParseRequest("OPEN box demo://boxoffice?seed=7");
    auto views = LineProtocol::ParseRequest(std::string("VIEWS box ") +
                                            kBoxofficePredicate);
    ASSERT_TRUE(open.ok() && views.ok());
    WireResponse open_reply = handler.Handle(*open);
    ASSERT_TRUE(open_reply.ok);
    cold_open_body = open_reply.body;
    WireResponse views_reply = handler.Handle(*views);
    ASSERT_TRUE(views_reply.ok);
    cold_views_body = views_reply.body;
    ASSERT_TRUE(handler.Handle(*LineProtocol::ParseRequest("SAVE box")).ok);
  }

  // "Restart": a fresh catalog on the same store. The identical OPEN now
  // serves the checkpoint — byte-identical replies, store_opens == 1.
  ServerCatalog catalog(options);
  ASSERT_TRUE(catalog.AttachStore(dir).ok());
  DaemonHandler handler(&catalog);
  auto open = LineProtocol::ParseRequest("OPEN box demo://boxoffice?seed=7");
  auto views = LineProtocol::ParseRequest(std::string("VIEWS box ") +
                                          kBoxofficePredicate);
  ASSERT_TRUE(open.ok() && views.ok());
  WireResponse warm_open = handler.Handle(*open);
  ASSERT_TRUE(warm_open.ok) << warm_open.body;
  EXPECT_EQ(warm_open.body, cold_open_body);
  WireResponse warm_views = handler.Handle(*views);
  ASSERT_TRUE(warm_views.ok);
  EXPECT_EQ(warm_views.body, cold_views_body);
  EXPECT_EQ(catalog.metrics()->CounterValue("ziggy_store_opens_total"), 1u);
  // HELLO's compression flag now means "a store is attached".
  WireResponse hello = handler.Handle(*LineProtocol::ParseRequest("HELLO"));
  ASSERT_TRUE(hello.ok);
  EXPECT_NE(hello.body.find("\"compression\":true"), std::string::npos)
      << hello.body;
  ASSERT_TRUE(RemoveDirectory(dir).ok());
}

// ------------------------------------------------------------- TCP daemon --

class DaemonTcpTest : public ::testing::Test {
 protected:
  void StartDaemon(DaemonOptions options = {}) {
    options.catalog.serve = GoldenServeOptions();
    auto daemon = ZiggyDaemon::Start(std::move(options));
    ASSERT_TRUE(daemon.ok()) << daemon.status();
    daemon_ = std::move(*daemon);
  }

  Status Connect(ZiggyClient* client) {
    return client->Connect(daemon_->host(), daemon_->port());
  }

  /// A daemon counter, read from the registry that STATS renders.
  uint64_t DaemonCounter(const std::string& name) {
    return daemon_->catalog().metrics()->CounterValue(name);
  }

  std::unique_ptr<ZiggyDaemon> daemon_;
};

TEST_F(DaemonTcpTest, ServesGoldenOutputOverTheWire) {
  StartDaemon();
  ZiggyClient client;
  ASSERT_TRUE(Connect(&client).ok());

  auto open = client.Open("box", "demo://boxoffice?seed=7");
  ASSERT_TRUE(open.ok()) << open.status();

  // Pin the predicate the CI commands file uses to the dataset's ground
  // truth, then check the wire report against the in-process golden file.
  auto ds = MakeBoxOfficeDataset(7);
  ASSERT_TRUE(ds.ok());
  ASSERT_EQ(ds->selection_predicate, kBoxofficePredicate);

  auto report = client.Views("box", kBoxofficePredicate);
  ASSERT_TRUE(report.ok()) << report.status();
  const std::string golden = ReadFileOrDie(
      std::string(ZIGGY_SOURCE_DIR) + "/tests/golden/boxoffice_views.golden");
  EXPECT_EQ(*report, golden);

  EXPECT_TRUE(client.Quit().ok());
}

TEST_F(DaemonTcpTest, TwoConcurrentClientsBothGetGoldenOutput) {
  StartDaemon();
  const std::string golden = ReadFileOrDie(
      std::string(ZIGGY_SOURCE_DIR) + "/tests/golden/boxoffice_views.golden");
  {
    ZiggyClient setup;
    ASSERT_TRUE(Connect(&setup).ok());
    ASSERT_TRUE(setup.Open("box", "demo://boxoffice?seed=7").ok());
  }
  auto drive = [this, &golden]() {
    ZiggyClient client;
    ASSERT_TRUE(Connect(&client).ok());
    for (int i = 0; i < 3; ++i) {
      auto report = client.Views("box", kBoxofficePredicate);
      ASSERT_TRUE(report.ok()) << report.status();
      EXPECT_EQ(*report, golden);
    }
  };
  std::thread a(drive), b(drive);
  a.join();
  b.join();
  EXPECT_GE(DaemonCounter("ziggy_daemon_connections_accepted_total"), 3u);
}

TEST_F(DaemonTcpTest, MalformedAndOversizedInputGetCleanErrorsAndTheConnectionSurvives) {
  DaemonOptions options;
  options.max_line_bytes = 256;
  StartDaemon(std::move(options));
  ZiggyClient client;
  ASSERT_TRUE(Connect(&client).ok());

  auto bogus = client.CallLine("FROBNICATE the data");
  ASSERT_TRUE(bogus.ok());  // transport fine; protocol-level ERR
  EXPECT_FALSE(bogus->ok);
  EXPECT_EQ(bogus->code, StatusCode::kInvalidArgument);

  auto empty_verb = client.CallLine("   ");
  ASSERT_TRUE(empty_verb.ok());
  EXPECT_FALSE(empty_verb->ok);

  auto oversized = client.CallLine("VIEWS box " + std::string(4096, 'x'));
  ASSERT_TRUE(oversized.ok());
  EXPECT_FALSE(oversized->ok);
  EXPECT_EQ(oversized->code, StatusCode::kOutOfRange);

  // The stream re-synchronized: normal traffic continues on the same
  // connection.
  auto list = client.List();
  ASSERT_TRUE(list.ok()) << list.status();
  EXPECT_EQ(*list, "{\"tables\":[]}");
  EXPECT_GE(DaemonCounter("ziggy_daemon_protocol_errors_total"), 3u);
}

TEST_F(DaemonTcpTest, AppendCreatesNewGenerationOverTheWire) {
  StartDaemon();
  ZiggyClient client;
  ASSERT_TRUE(Connect(&client).ok());
  ASSERT_TRUE(client.Open("box", "demo://boxoffice?seed=7").ok());

  auto ds = MakeBoxOfficeDataset(7);
  ASSERT_TRUE(ds.ok());
  const std::string csv_path =
      ::testing::TempDir() + "/ziggy_daemon_test_append.csv";
  ASSERT_TRUE(WriteCsvFile(ds->table, csv_path).ok());

  auto append = client.Append("box", csv_path);
  ASSERT_TRUE(append.ok()) << append.status();
  EXPECT_EQ(*append,
            "{\"table\":\"box\",\"appended_rows\":900,\"generation\":1}");

  auto list = client.List();
  ASSERT_TRUE(list.ok());
  EXPECT_NE(list->find("\"rows\":1800"), std::string::npos);
  // Queries on the doubled table still work end to end.
  auto report = client.Views("box", kBoxofficePredicate);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_NE(report->find("inside="), std::string::npos);
  std::remove(csv_path.c_str());
}

// Full warm-restart cycle over TCP: daemon A checkpoints, daemon B boots
// from the store and serves byte-identical wire output for the same
// commands — the in-process version of the CI store-roundtrip gate.
TEST_F(DaemonTcpTest, WarmRestartedDaemonServesByteIdenticalWireOutput) {
  const std::string dir = ::testing::TempDir() + "/ziggy_daemon_tcp_store";
  const std::string golden = ReadFileOrDie(
      std::string(ZIGGY_SOURCE_DIR) + "/tests/golden/boxoffice_views.golden");

  DaemonOptions options;
  options.store_dir = dir;
  StartDaemon(std::move(options));
  {
    ZiggyClient client;
    ASSERT_TRUE(Connect(&client).ok());
    ASSERT_TRUE(client.Open("box", "demo://boxoffice?seed=7").ok());
    auto report = client.Views("box", kBoxofficePredicate);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(*report, golden);
    auto saved = client.Save();
    ASSERT_TRUE(saved.ok()) << saved.status();
    EXPECT_EQ(*saved, "{\"saved\":[{\"table\":\"box\",\"generation\":0}]}");
  }
  daemon_->Stop();

  // Restart on the same store; replay the same OPEN + VIEWS.
  DaemonOptions restarted;
  restarted.store_dir = dir;
  StartDaemon(std::move(restarted));
  ZiggyClient client;
  ASSERT_TRUE(Connect(&client).ok());
  auto open = client.Open("box", "demo://boxoffice?seed=7");
  ASSERT_TRUE(open.ok()) << open.status();
  EXPECT_EQ(*open,
            "{\"table\":\"box\",\"rows\":900,\"columns\":12,\"generation\":0}");
  auto report = client.Views("box", kBoxofficePredicate);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(*report, golden);
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("\"opens\":1"), std::string::npos) << *stats;
  ASSERT_TRUE(RemoveDirectory(dir).ok());
}

// A silent client is disconnected after --request-timeout-ms instead of
// pinning a handler thread forever (PR 3 hardening follow-up).
TEST_F(DaemonTcpTest, SilentConnectionIsTimedOutAndFreed) {
  DaemonOptions options;
  options.request_timeout_ms = 150;
  StartDaemon(std::move(options));

  ZiggyClient idle;
  // Pin the raw single-attempt path: with retries on, the client would
  // transparently reconnect after the timeout disconnect (that behavior
  // has its own test below) and this test wants to see the raw failure.
  idle.set_retry_policy({/*enabled=*/false});
  ASSERT_TRUE(Connect(&idle).ok());
  // Active traffic inside the window is unaffected.
  ASSERT_TRUE(idle.List().ok());

  // Now go silent past the timeout: the daemon answers with an ERR and
  // closes, so the next call fails instead of hanging.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  auto after = idle.List();
  EXPECT_FALSE(after.ok());
  // The reaper may take one accept-loop turn; poll briefly.
  for (int i = 0;
       i < 50 && DaemonCounter("ziggy_daemon_connections_timed_out_total") == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(DaemonCounter("ziggy_daemon_connections_timed_out_total"), 1u);

  // A fresh connection still serves.
  ZiggyClient fresh;
  ASSERT_TRUE(Connect(&fresh).ok());
  EXPECT_TRUE(fresh.List().ok());
}

TEST_F(DaemonTcpTest, StopUnblocksLiveConnections) {
  StartDaemon();
  ZiggyClient client;
  ASSERT_TRUE(Connect(&client).ok());
  ASSERT_TRUE(client.List().ok());
  daemon_->Stop();
  // The daemon closed the socket: the next call fails cleanly instead of
  // hanging (the idempotent-retry reconnects also fail — nothing listens).
  EXPECT_FALSE(client.List().ok());
}

// ----------------------------------------------------------- resilience --

// The admin replies keep every key, in order, with their values: the
// STATS, STATS <table>, HEALTH and HELLO bodies of a daemon with a store,
// one served table, one saved checkpoint and one dirty append. A '*'
// stands for a byte count, an age or a core count.
TEST_F(DaemonTcpTest, AdminRepliesKeepTheirKeysInOrder) {
  const std::string dir = ::testing::TempDir() + "/ziggy_daemon_tcp_admin";
  DaemonOptions options;
  options.store_dir = dir;
  // The flusher runs but never fires within the test: the append stays
  // dirty.
  options.catalog.flush_interval_ms = 600'000;
  (void)RemoveDirectory(dir);  // a stale store would make the OPEN warm
  StartDaemon(std::move(options));
  ZiggyClient client;
  ASSERT_TRUE(Connect(&client).ok());
  ASSERT_TRUE(client.Open("box", "demo://boxoffice?seed=7").ok());
  ASSERT_TRUE(client.Views("box", kBoxofficePredicate).ok());
  ASSERT_TRUE(client.Save("box").ok());
  ASSERT_TRUE(client.Persist("box", true).ok());
  ASSERT_TRUE(client.Append("box", "demo://boxoffice?seed=19").ok());

  // Requests are counted as their handler returns, so a reply counts
  // every request before it. A blocking client never pipelines; how many
  // of its requests one dispatch run drains races the loop, but the run
  // that answers this very request is counted.
  const auto connections = [](int requests) {
    return "\"connections\":{\"accepted\":1,\"rejected\":0,"
           "\"timed_out\":0,\"live\":1,\"accept_retries\":0,\"requests\":" +
           std::to_string(requests) +
           ",\"protocol_errors\":0,\"reads_throttled\":0,"
           "\"pipelined_requests\":0,\"dispatch_batches\":*}";
  };
  const auto batches = [](const std::string& body) {
    return std::stoull(FlattenJson(body)["connections.dispatch_batches"]);
  };
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_TRUE(MatchesWithNumbers(
      *stats,
      "{\"tables\":1,\"tables_opened\":1,\"tables_closed\":0,"
      "\"shared_budget_total_bytes\":268435456,"
      "\"shared_budget_used_bytes\":0,\"worker_pool_threads\":*,"
      "\"store\":{\"attached\":true,\"tables\":1,\"opens\":0,\"saves\":1,"
      "\"full_checkpoints\":1,\"delta_checkpoints\":0,\"compactions\":0,"
      "\"checkpoint_bytes\":*,\"checkpoint_raw_bytes\":*,"
      "\"dict_pool\":{\"files\":*,\"bytes\":*,\"shared_hits\":0}},"
      "\"flusher\":{\"active\":true,\"dirty_tables\":1,\"cycles\":0,"
      "\"flushed_tables\":0,\"failures\":0,\"backoff_tables\":0,"
      "\"degraded\":false,\"consecutive_failures\":0,\"queue_depth\":1,"
      "\"max_dirty_age_ms\":*,\"dirty\":[{\"table\":\"box\",\"age_ms\":*}]}," +
          connections(5) + "}"))
      << *stats;
  EXPECT_GE(batches(*stats), 1u);

  auto table_stats = client.Stats("box");
  ASSERT_TRUE(table_stats.ok()) << table_stats.status();
  EXPECT_EQ(*table_stats,
            "{\"generation\":1,\"sessions_opened\":1,\"requests\":1,"
            "\"failures\":0,\"sketch_exact_hits\":0,\"sketch_patched_hits\":0,"
            "\"sketch_misses\":1,\"patched_delta_rows\":0,\"appends\":1,"
            "\"appended_rows\":900,\"cache_flushes\":1,"
            "\"sketch_cache\":{\"hits\":0,\"misses\":1,\"insertions\":1,"
            "\"evictions\":0,\"bytes_in_use\":0,\"entries\":0}}");

  auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_TRUE(MatchesWithNumbers(
      *health,
      "{\"status\":\"ok\",\"tables\":1,\"dirty_tables\":1,"
      "\"flush_backoff_tables\":0,\"consecutive_failures\":0,"
      "\"flush_lag_ms\":*,\"retry_after_ms\":0," +
          connections(7) + "}"))
      << *health;
  EXPECT_GE(batches(*health), 1u);

  auto hello = client.Hello();
  ASSERT_TRUE(hello.ok()) << hello.status();
  EXPECT_EQ(*hello,
            "{\"server\":\"ziggy\",\"protocol\":2,"
            "\"features\":{\"pipelining\":true,\"compression\":true,"
            "\"degraded\":false},"
            "\"limits\":{\"max_line_bytes\":" +
                std::to_string(LineProtocol::kMaxLineBytes) +
                ",\"max_pipeline\":64},"
                "\"verbs\":[\"OPEN\",\"LIST\",\"CHARACTERIZE\",\"VIEWS\","
                "\"APPEND\",\"STATS\",\"SAVE\",\"PERSIST\",\"CLOSE\","
                "\"HEALTH\",\"HELLO\",\"QUIT\",\"METRICS\"]}");
  daemon_->Stop();
  ASSERT_TRUE(RemoveDirectory(dir).ok());
}

TEST_F(DaemonTcpTest, HealthVerbReportsOkOverTheWire) {
  StartDaemon();
  ZiggyClient client;
  ASSERT_TRUE(Connect(&client).ok());
  ASSERT_TRUE(client.Open("box", "demo://boxoffice?seed=7").ok());

  auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_NE(health->find("\"status\":\"ok\""), std::string::npos) << *health;
  EXPECT_NE(health->find("\"tables\":1"), std::string::npos) << *health;
  EXPECT_NE(health->find("\"consecutive_failures\":0"), std::string::npos);
  // Over TCP the probe also carries the daemon's connection counters.
  EXPECT_NE(health->find("\"connections\":{\"accepted\":"), std::string::npos)
      << *health;

  // HEALTH takes no arguments.
  auto bad = client.CallLine("HEALTH now");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad->ok);
}

// A peer that disappears mid-response (RST, not FIN) must cost the daemon
// nothing but the connection: no SIGPIPE death, and fresh clients keep
// being served. Regression for the signal(SIGPIPE, SIG_IGN) hardening.
TEST_F(DaemonTcpTest, VanishedPeerMidResponseDoesNotKillTheDaemon) {
  StartDaemon();
  {
    ZiggyClient setup;
    ASSERT_TRUE(Connect(&setup).ok());
    ASSERT_TRUE(setup.Open("box", "demo://boxoffice?seed=7").ok());
  }
  for (int round = 0; round < 3; ++round) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(daemon_->port());
    ASSERT_EQ(inet_pton(AF_INET, daemon_->host().c_str(), &addr.sin_addr), 1);
    ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    // Ask for a large response, then vanish with an RST before reading a
    // byte of it: the daemon's send() hits a reset stream.
    const std::string request =
        "VIEWS box " + std::string(kBoxofficePredicate) + "\n";
    ASSERT_EQ(send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    linger hard{1, 0};
    (void)setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
    close(fd);
  }
  // The daemon is alive and still serving golden bytes.
  ZiggyClient fresh;
  ASSERT_TRUE(Connect(&fresh).ok());
  auto report = fresh.Views("box", kBoxofficePredicate);
  ASSERT_TRUE(report.ok()) << report.status();
  const std::string golden = ReadFileOrDie(
      std::string(ZIGGY_SOURCE_DIR) + "/tests/golden/boxoffice_views.golden");
  EXPECT_EQ(*report, golden);
}

// ------------------------------------------------------- pipelining --

/// A raw loopback connection for byte-level pipelining tests (the client
/// class would frame for us and hide exactly what we want to observe).
int ConnectRawSocket(const std::string& host, uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

/// Blocking-reads `fd` until `want` newline-terminated lines arrived (or
/// the peer hung up / errored, returning what was read so the test's size
/// assertion fails with the partial transcript visible).
std::vector<std::string> ReadResponseLines(int fd, size_t want) {
  std::string data;
  size_t lines = 0;
  char buffer[4096];
  while (lines < want) {
    const ssize_t n = recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    for (ssize_t i = 0; i < n; ++i) {
      if (buffer[i] == '\n') ++lines;
    }
    data.append(buffer, static_cast<size_t>(n));
  }
  std::vector<std::string> out;
  size_t begin = 0;
  for (size_t nl = data.find('\n'); nl != std::string::npos;
       nl = data.find('\n', begin)) {
    out.push_back(data.substr(begin, nl - begin));
    begin = nl + 1;
  }
  return out;
}

TEST_F(DaemonTcpTest, PipelinedRequestsAnswerStrictlyInOrder) {
  StartDaemon();
  ZiggyClient client;
  ASSERT_TRUE(Connect(&client).ok());
  ASSERT_TRUE(client.Open("box", "demo://boxoffice?seed=7").ok());

  // Queue a window of distinguishable requests without reading anything.
  // One write carries all four, so the daemon decodes them as one batch
  // and the later three are pipelined behind the first; with one write
  // each, the daemon could answer a request before the next arrived.
  const std::vector<WireRequest> window = {{Verb::kList, {}},
                                           {Verb::kStats, {"box"}},
                                           {Verb::kHealth, {}},
                                           {Verb::kList, {}}};
  ASSERT_TRUE(client.SendRequests(window).ok());
  EXPECT_EQ(client.inflight(), 4u);

  // A blocking call may not interleave into the pipeline: it would steal
  // the next pipelined response.
  auto blocked = client.List();
  EXPECT_FALSE(blocked.ok());
  EXPECT_TRUE(blocked.status().IsFailedPrecondition());
  EXPECT_EQ(client.inflight(), 4u);

  // Responses pop strictly in send order.
  auto list = client.WaitResponse();
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->body.rfind("{\"tables\":[{\"name\":\"box\"", 0), 0u)
      << list->body;
  auto stats = client.WaitResponse();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->body.find("\"sketch_cache\""), std::string::npos);
  auto health = client.WaitResponse();
  ASSERT_TRUE(health.ok());
  EXPECT_NE(health->body.find("\"status\":\"ok\""), std::string::npos);
  // The last one through the non-blocking poll.
  for (;;) {
    auto polled = client.PollResponse();
    ASSERT_TRUE(polled.ok()) << polled.status();
    if (!polled->has_value()) continue;
    EXPECT_EQ((*polled)->body.rfind("{\"tables\":[{\"name\":\"box\"", 0), 0u);
    break;
  }
  EXPECT_EQ(client.inflight(), 0u);
  // With the pipeline drained, blocking calls work again.
  EXPECT_TRUE(client.List().ok());
  // Exactly the three requests queued behind the window's first are
  // pipelined; the blocking calls before and after it are not.
  EXPECT_EQ(DaemonCounter("ziggy_daemon_pipelined_requests_total"), 3u);
  EXPECT_TRUE(client.Quit().ok());
}

TEST_F(DaemonTcpTest, HelloAdvertisesProtocolFeaturesAndLimits) {
  DaemonOptions options;
  options.max_pipeline = 32;
  StartDaemon(std::move(options));
  ZiggyClient client;
  ASSERT_TRUE(Connect(&client).ok());
  auto hello = client.Hello();
  ASSERT_TRUE(hello.ok()) << hello.status();
  EXPECT_NE(hello->find("\"server\":\"ziggy\""), std::string::npos) << *hello;
  EXPECT_NE(hello->find("\"protocol\":2"), std::string::npos);
  EXPECT_NE(hello->find("\"pipelining\":true"), std::string::npos);
  EXPECT_NE(hello->find("\"degraded\":false"), std::string::npos);
  EXPECT_NE(hello->find("\"max_pipeline\":32"), std::string::npos);
  EXPECT_NE(hello->find("\"HELLO\""), std::string::npos);
  // HELLO is pure negotiation: the session continues unchanged for a
  // client that sent it — and never changed for one that did not.
  EXPECT_TRUE(client.List().ok());
  EXPECT_TRUE(client.Quit().ok());
}

TEST_F(DaemonTcpTest, OversizedLineMidPipelineAnswersInOrderWithoutDesync) {
  DaemonOptions options;
  options.max_line_bytes = 128;
  StartDaemon(std::move(options));
  const int fd = ConnectRawSocket(daemon_->host(), daemon_->port());
  ASSERT_GE(fd, 0);

  // One segment, three requests, the middle one over the line limit. The
  // server must answer all three in order: OK, ERR, OK — no desync, no
  // drop of the request *after* the oversized one.
  const std::string segment =
      "LIST\nVIEWS box " + std::string(4096, 'x') + "\nLIST\n";
  ASSERT_EQ(send(fd, segment.data(), segment.size(), 0),
            static_cast<ssize_t>(segment.size()));
  const std::vector<std::string> lines = ReadResponseLines(fd, 3);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "OK {\"tables\":[]}");
  EXPECT_EQ(lines[1].rfind("ERR OutOfRange", 0), 0u) << lines[1];
  EXPECT_EQ(lines[2], "OK {\"tables\":[]}");
  close(fd);
}

TEST_F(DaemonTcpTest, SlowReaderBurstIsThrottledAndStillAnsweredInFull) {
  DaemonOptions options;
  options.max_pipeline = 2;  // tiny pipeline: a burst must pause reads
  StartDaemon(std::move(options));
  {
    ZiggyClient setup;
    ASSERT_TRUE(Connect(&setup).ok());
    ASSERT_TRUE(setup.Open("box", "demo://boxoffice?seed=7").ok());
  }
  const int fd = ConnectRawSocket(daemon_->host(), daemon_->port());
  ASSERT_GE(fd, 0);

  // Lead with a slow request so the queue is pinned at its bound while
  // the rest of the burst is already buffered, then don't read a byte
  // until everything is sent.
  constexpr size_t kBurst = 24;
  std::string segment = "VIEWS box " + std::string(kBoxofficePredicate) + "\n";
  for (size_t i = 1; i < kBurst; ++i) segment += "LIST\n";
  ASSERT_EQ(send(fd, segment.data(), segment.size(), 0),
            static_cast<ssize_t>(segment.size()));

  const std::vector<std::string> lines = ReadResponseLines(fd, kBurst);
  ASSERT_EQ(lines.size(), kBurst);
  for (const std::string& line : lines) {
    EXPECT_EQ(line.rfind("OK ", 0), 0u) << line;
  }
  // The burst exceeded max_pipeline while request 0 was in flight, so the
  // loop must have paused this connection's reads at least once.
  EXPECT_GE(DaemonCounter("ziggy_daemon_reads_throttled_total"), 1u);
  EXPECT_GE(DaemonCounter("ziggy_daemon_pipelined_requests_total"), 1u);
  close(fd);
}

TEST_F(DaemonTcpTest, HalfClosedPeerStillGetsEveryQueuedResponse) {
  StartDaemon();
  const int fd = ConnectRawSocket(daemon_->host(), daemon_->port());
  ASSERT_GE(fd, 0);

  // Send a pipeline, then half-close: FIN with requests still queued. The
  // daemon must drain the queue, flush both responses, then close — not
  // treat the FIN as a dead connection.
  const std::string segment = "LIST\nHEALTH\n";
  ASSERT_EQ(send(fd, segment.data(), segment.size(), 0),
            static_cast<ssize_t>(segment.size()));
  ASSERT_EQ(shutdown(fd, SHUT_WR), 0);

  // Read to EOF: exactly the two responses, in order.
  const std::vector<std::string> lines = ReadResponseLines(fd, 3);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "OK {\"tables\":[]}");
  EXPECT_EQ(lines[1].rfind("OK {\"status\":\"ok\"", 0), 0u) << lines[1];
  close(fd);
}

// ------------------------------------------------------- client retries --

/// A hand-rolled one-shot TCP server: hangs up on the first connection
/// after reading the request (an ambiguous transport failure from the
/// client's point of view), then answers the second properly. Lets the
/// retry tests script the exact failure the real daemon can't produce on
/// demand.
class FlakyServer {
 public:
  FlakyServer() {
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(
        bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    EXPECT_EQ(listen(listen_fd_, 4), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(
        getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port_ = ntohs(addr.sin_port);
  }

  ~FlakyServer() {
    if (thread_.joinable()) thread_.join();
    if (listen_fd_ >= 0) close(listen_fd_);
  }

  uint16_t port() const { return port_; }

  /// Connection 1: read the request, close without replying. Connection 2
  /// (if `then_answer`): read the request, reply `response`.
  void Run(bool then_answer, std::string response) {
    thread_ = std::thread([this, then_answer, response = std::move(response)] {
      const int c1 = accept(listen_fd_, nullptr, nullptr);
      if (c1 >= 0) {
        char buf[512];
        (void)!recv(c1, buf, sizeof(buf), 0);
        close(c1);
      }
      if (!then_answer) return;
      const int c2 = accept(listen_fd_, nullptr, nullptr);
      if (c2 >= 0) {
        char buf[512];
        (void)!recv(c2, buf, sizeof(buf), 0);
        (void)!send(c2, response.data(), response.size(), MSG_NOSIGNAL);
        close(c2);
      }
    });
  }

 private:
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

TEST(ZiggyClientRetryTest, IdempotentVerbRetriesReconnectsAndSucceeds) {
  FlakyServer server;
  server.Run(/*then_answer=*/true, "OK {\"tables\":[]}\n");

  ZiggyClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  auto list = client.List();  // LIST is idempotent: retried transparently
  ASSERT_TRUE(list.ok()) << list.status();
  EXPECT_EQ(*list, "{\"tables\":[]}");
  EXPECT_EQ(client.retries(), 1u);
}

TEST(ZiggyClientRetryTest, NonIdempotentVerbSurfacesTheFailureUnretried) {
  FlakyServer server;
  server.Run(/*then_answer=*/false, "");

  ZiggyClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  // APPEND may or may not have been applied by the vanished server — the
  // client must NOT guess. The error surfaces on the first failure.
  auto append = client.Append("box", "/tmp/rows.csv");
  EXPECT_FALSE(append.ok());
  EXPECT_EQ(client.retries(), 0u);
  EXPECT_FALSE(client.connected());
}

TEST(ZiggyClientRetryTest, DisabledPolicySurfacesTransportErrors) {
  FlakyServer server;
  server.Run(/*then_answer=*/false, "");

  ZiggyClient client;
  client.set_retry_policy({/*enabled=*/false});
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  EXPECT_FALSE(client.List().ok());
  EXPECT_EQ(client.retries(), 0u);
}

TEST(ZiggyClientRetryTest, IdempotenceClassification) {
  // Reads (and the re-openable OPEN) retry; anything whose replay could
  // apply a side effect twice does not.
  EXPECT_TRUE(ZiggyClient::IsIdempotent(Verb::kOpen));
  EXPECT_TRUE(ZiggyClient::IsIdempotent(Verb::kList));
  EXPECT_TRUE(ZiggyClient::IsIdempotent(Verb::kCharacterize));
  EXPECT_TRUE(ZiggyClient::IsIdempotent(Verb::kViews));
  EXPECT_TRUE(ZiggyClient::IsIdempotent(Verb::kStats));
  EXPECT_TRUE(ZiggyClient::IsIdempotent(Verb::kHealth));
  EXPECT_TRUE(ZiggyClient::IsIdempotent(Verb::kHello));
  EXPECT_TRUE(ZiggyClient::IsIdempotent(Verb::kMetrics));
  EXPECT_FALSE(ZiggyClient::IsIdempotent(Verb::kAppend));
  EXPECT_FALSE(ZiggyClient::IsIdempotent(Verb::kSave));
  EXPECT_FALSE(ZiggyClient::IsIdempotent(Verb::kPersist));
  EXPECT_FALSE(ZiggyClient::IsIdempotent(Verb::kClose));
  EXPECT_FALSE(ZiggyClient::IsIdempotent(Verb::kQuit));
}

// ------------------------------------------------------- CI e2e fixtures --

// The CI daemon-e2e job pipes tests/golden/daemon_e2e_commands.txt through
// `ziggy_cli connect` against a fresh ziggy_daemon and diffs stdout against
// tests/golden/daemon_e2e.golden. This test regenerates both expectations
// from the library itself, so the checked-in fixtures cannot drift from
// what the code produces. Regenerate with ZIGGY_UPDATE_GOLDEN=1.
TEST(DaemonE2eFixtureTest, CommandsAndGoldenMatchTheLibrary) {
  const std::string commands_path =
      std::string(ZIGGY_SOURCE_DIR) + "/tests/golden/daemon_e2e_commands.txt";
  const std::string golden_path =
      std::string(ZIGGY_SOURCE_DIR) + "/tests/golden/daemon_e2e.golden";

  const std::string expected_commands =
      std::string("open box demo://boxoffice?seed=7\n") +  //
      "list\n" +                                           //
      "views box " + kBoxofficePredicate + "\n" +          //
      "raw BOGUS stuff\n" +                                //
      "close box\n" +                                      //
      "quit\n";

  const std::string report = ReadFileOrDie(
      std::string(ZIGGY_SOURCE_DIR) + "/tests/golden/boxoffice_views.golden");
  const std::string expected_output =
      std::string(
          "{\"table\":\"box\",\"rows\":900,\"columns\":12,\"generation\":0}\n") +
      "{\"tables\":[{\"name\":\"box\",\"rows\":900,\"columns\":12,"
      "\"generation\":0,\"sessions\":0}]}\n" +
      report +  // ends with its own newline
      "error: InvalidArgument: unknown verb: BOGUS\n" +
      "{\"table\":\"box\",\"closed\":true}\n";

  if (std::getenv("ZIGGY_UPDATE_GOLDEN") != nullptr) {
    std::ofstream commands(commands_path);
    commands << expected_commands;
    ASSERT_TRUE(commands.good());
    std::ofstream golden(golden_path);
    golden << expected_output;
    ASSERT_TRUE(golden.good());
    GTEST_SKIP() << "daemon e2e fixtures regenerated";
  }

  EXPECT_EQ(ReadFileOrDie(commands_path), expected_commands);
  EXPECT_EQ(ReadFileOrDie(golden_path), expected_output);
}

}  // namespace
}  // namespace ziggy
