// The persistence subsystem end to end:
//
//  * ZiggyStore — manifest lifecycle, checkpoint/load round trips, name
//    safety, atomic staging (no temp litter).
//  * Warm restart byte-identity — the acceptance bar of the store: a
//    server booted from a checkpoint renders CHARACTERIZE/VIEWS reports
//    byte-identical to the cold-profiled server that wrote it, including
//    after appends.
//  * Compatibility — a store written by an older release (version-2
//    manifest flagging a sketch snapshot) loads, and the next full save
//    rewrites it in the current layout.
//  * Corruption policy — table/profile damage fails cleanly and installs
//    nothing; legacy ZIGPROF1 profiles are rejected with an explicit
//    version error.
//  * Catalog integration — OpenFromStore, SaveToStore generations,
//    checkpoint-on-append, persist flags.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/random.h"
#include "data/synthetic.h"
#include "engine/report.h"
#include "legacy_formats.h"
#include "persist/fs_util.h"
#include "persist/manifest.h"
#include "persist/store.h"
#include "serve/catalog.h"
#include "serve/daemon/handler.h"
#include "storage/csv.h"
#include "storage/table_io.h"

namespace ziggy {
namespace {

ServeOptions GoldenServeOptions() {
  ServeOptions options;
  options.engine.search.min_tightness = 0.4;
  options.engine.search.max_views = 10;
  return options;
}

// Registry reads of the catalog's admin series: counters as they stand,
// gauges after the refresh pass that writes them.
uint64_t CounterOf(const ServerCatalog& catalog, const std::string& name) {
  return catalog.metrics()->CounterValue(name);
}
int64_t GaugeOf(ServerCatalog& catalog, const std::string& name) {
  catalog.RefreshMetrics();
  return catalog.metrics()->GaugeValue(name);
}

std::string UniqueDir(const std::string& tag) {
  static int counter = 0;
  return testing::TempDir() + "/ziggy_store_test_" + tag + "_" +
         std::to_string(++counter);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

void FlipByte(const std::string& path, size_t offset) {
  std::string bytes = ReadFileBytes(path);
  ASSERT_LT(offset, bytes.size());
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0x20);
  WriteFileBytes(path, bytes);
}

bool DirHasTempLitter(const std::string& dir) {
  namespace fs = std::filesystem;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.path().filename().string().find(".tmp.") != std::string::npos) {
      return true;
    }
  }
  return false;
}

/// Per-column dictionary sizes (0 for numeric columns): the base shape a
/// delta segment is cut against.
std::vector<size_t> DictSizesOf(const Table& table) {
  std::vector<size_t> sizes(table.num_columns(), 0);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (table.column(c).is_categorical()) {
      sizes[c] = table.column(c).dictionary().size();
    }
  }
  return sizes;
}

// ----------------------------------------------------------- manifest ----

TEST(ManifestTest, RoundTripAndValidation) {
  Manifest m;
  m.Upsert(ManifestEntry{"zeta", 3, 3, {}, {}});
  m.Upsert(ManifestEntry{"alpha", 0, 0, {}, {}});
  m.Upsert(ManifestEntry{"zeta", 4, 1, {2, 4}, {}});  // replaces

  const std::string text = m.Serialize();
  // Always version 3 (dict-ref count present even when zero), with the
  // retired sketch flag written as 0.
  EXPECT_EQ(text,
            "ziggy-store 3\ntable alpha 0 0 0 0 0\n"
            "table zeta 4 0 1 2 2 4 0\n");
  Manifest parsed = Manifest::Parse(text).ValueOrDie();
  ASSERT_EQ(parsed.entries().size(), 2u);
  EXPECT_EQ(parsed.entries()[0].name, "alpha");  // sorted
  EXPECT_EQ(parsed.entries()[0].base_generation, 0u);
  EXPECT_TRUE(parsed.entries()[0].delta_generations.empty());
  EXPECT_EQ(parsed.entries()[1].name, "zeta");
  EXPECT_EQ(parsed.entries()[1].generation, 4u);
  EXPECT_EQ(parsed.entries()[1].base_generation, 1u);
  EXPECT_EQ(parsed.entries()[1].delta_generations,
            (std::vector<uint64_t>{2, 4}));

  EXPECT_TRUE(parsed.Remove("alpha"));
  EXPECT_FALSE(parsed.Remove("alpha"));

  EXPECT_FALSE(Manifest::Parse("").ok());
  EXPECT_FALSE(Manifest::Parse("not-a-manifest 1\n").ok());
  EXPECT_TRUE(Manifest::Parse("ziggy-store 99\n")
                  .status()
                  .IsFailedPrecondition());  // future version
  EXPECT_FALSE(Manifest::Parse("ziggy-store 1\ntable x\n").ok());
  EXPECT_FALSE(Manifest::Parse("ziggy-store 1\ntable a 1 2\n").ok());
  EXPECT_FALSE(Manifest::Parse("ziggy-store 1\ntable a -3 0\n").ok());
  EXPECT_FALSE(
      Manifest::Parse("ziggy-store 1\ntable a 1 0\ntable a 2 0\n").ok());
  // Path-traversal names never survive parsing.
  EXPECT_FALSE(Manifest::Parse("ziggy-store 1\ntable .. 0 0\n").ok());
  // v1 manifests (no chain fields) parse as full snapshots.
  Manifest legacy =
      Manifest::Parse("ziggy-store 1\ntable a 5 0\n").ValueOrDie();
  ASSERT_EQ(legacy.entries().size(), 1u);
  EXPECT_EQ(legacy.entries()[0].base_generation, 5u);
  EXPECT_TRUE(legacy.entries()[0].delta_generations.empty());
  // v1 lines must not carry chain fields; v2 lines must.
  EXPECT_FALSE(Manifest::Parse("ziggy-store 1\ntable a 5 0 5 0\n").ok());
  EXPECT_FALSE(Manifest::Parse("ziggy-store 2\ntable a 5 0\n").ok());
  // Chain validation: strictly increasing, above the base, ending at the
  // current generation, and count-consistent.
  EXPECT_TRUE(Manifest::Parse("ziggy-store 2\ntable a 4 0 1 2 2 4\n").ok());
  EXPECT_FALSE(Manifest::Parse("ziggy-store 2\ntable a 4 0 1 2 4 2\n").ok());
  EXPECT_FALSE(Manifest::Parse("ziggy-store 2\ntable a 4 0 5 1 4\n").ok());
  EXPECT_FALSE(Manifest::Parse("ziggy-store 2\ntable a 4 0 1 1 3\n").ok());
  EXPECT_FALSE(Manifest::Parse("ziggy-store 2\ntable a 4 0 1 3 2 4\n").ok());
  EXPECT_FALSE(Manifest::Parse("ziggy-store 2\ntable a 4 0 5 0\n").ok());
}

TEST(ManifestTest, StoreNameRejectsPathSpecials) {
  EXPECT_TRUE(IsValidStoreTableName("ok_Name-1.2"));
  EXPECT_FALSE(IsValidStoreTableName(""));
  EXPECT_FALSE(IsValidStoreTableName("."));
  EXPECT_FALSE(IsValidStoreTableName(".."));
  EXPECT_FALSE(IsValidStoreTableName("a/b"));
  EXPECT_FALSE(IsValidStoreTableName("has space"));
  EXPECT_FALSE(IsValidStoreTableName("semi;colon"));
}

// -------------------------------------------------------------- store ----

TEST(ZiggyStoreTest, SaveLoadRoundTripIsExact) {
  const std::string dir = UniqueDir("roundtrip");
  auto store = ZiggyStore::Open(dir).ValueOrDie();

  SyntheticDataset ds = MakeBoxOfficeDataset(7).ValueOrDie();
  TableProfile profile = TableProfile::Compute(ds.table).ValueOrDie();
  ASSERT_TRUE(store->SaveTable("box", ds.table, 0, profile).ok());

  EXPECT_TRUE(store->Has("box"));
  EXPECT_FALSE(store->Has("nope"));
  EXPECT_EQ(store->StoredGeneration("box").ValueOrDie(), 0u);
  EXPECT_TRUE(store->StoredGeneration("nope").status().IsNotFound());

  StoredTable loaded = store->LoadTable("box").ValueOrDie();
  EXPECT_EQ(loaded.generation, 0u);
  EXPECT_EQ(loaded.table.num_rows(), ds.table.num_rows());
  EXPECT_EQ(loaded.table.schema(), ds.table.schema());
  EXPECT_TRUE(loaded.profile.Equals(profile));

  EXPECT_FALSE(DirHasTempLitter(dir));
  ASSERT_TRUE(RemoveDirectory(dir).ok());
}

TEST(ZiggyStoreTest, ReopenSeesPersistedManifest) {
  const std::string dir = UniqueDir("reopen");
  SyntheticDataset ds = MakeBoxOfficeDataset(7).ValueOrDie();
  TableProfile profile = TableProfile::Compute(ds.table).ValueOrDie();
  {
    auto store = ZiggyStore::Open(dir).ValueOrDie();
    ASSERT_TRUE(store->SaveTable("box", ds.table, 2, profile).ok());
  }
  auto reopened = ZiggyStore::Open(dir).ValueOrDie();
  ASSERT_EQ(reopened->List().size(), 1u);
  EXPECT_EQ(reopened->List()[0].name, "box");
  EXPECT_EQ(reopened->List()[0].generation, 2u);

  ASSERT_TRUE(reopened->RemoveTable("box").ok());
  EXPECT_TRUE(reopened->RemoveTable("box").IsNotFound());
  EXPECT_FALSE(PathExists(reopened->TableDir("box")));
  ASSERT_TRUE(RemoveDirectory(dir).ok());
}

TEST(ZiggyStoreTest, RejectsUnsafeNamesAndCorruptManifest) {
  const std::string dir = UniqueDir("names");
  auto store = ZiggyStore::Open(dir).ValueOrDie();
  SyntheticDataset ds = MakeBoxOfficeDataset(7).ValueOrDie();
  TableProfile profile = TableProfile::Compute(ds.table).ValueOrDie();
  EXPECT_TRUE(
      store->SaveTable("..", ds.table, 0, profile).IsInvalidArgument());
  EXPECT_TRUE(
      store->SaveTable("a/b", ds.table, 0, profile).IsInvalidArgument());

  WriteFileBytes(store->ManifestPath(), "garbage\n");
  EXPECT_FALSE(ZiggyStore::Open(dir).ok());
  ASSERT_TRUE(RemoveDirectory(dir).ok());
}

// ------------------------------------------------------ compatibility ----

TEST(StoreCompatTest, ParentStoreWithSketchSnapshotLoadsAndIsRewritten) {
  // A store as older releases wrote it: raw v1 base + v1 delta segment, a
  // version-2 manifest (no dict refs) whose sketch flag is set, and a
  // sketch-cache snapshot next to the head generation. The snapshot is
  // junk on purpose: nothing may read it any more.
  const std::string dir = UniqueDir("compat");
  SyntheticDataset ds = MakeBoxOfficeDataset(7).ValueOrDie();
  SyntheticDataset tail = MakeBoxOfficeDataset(19).ValueOrDie();
  const Table live = ds.table.WithAppendedRows(tail.table).ValueOrDie();
  const TableProfile profile = TableProfile::Compute(live).ValueOrDie();
  const std::string table_dir = dir + "/tables/box";
  const std::string snapshot = table_dir + "/sketches.g1.zskc";
  ASSERT_TRUE(EnsureDirectory(table_dir).ok());
  WriteFileBytes(table_dir + "/table.g0.ztbl", legacy::TableV1(ds.table));
  WriteFileBytes(
      table_dir + "/delta.g1.zdlt",
      legacy::DeltaV1(live, ds.table.num_rows(), DictSizesOf(ds.table)));
  ASSERT_TRUE(profile.SaveToFile(table_dir + "/profile.g1.zprof").ok());
  WriteFileBytes(snapshot, "ZIGSKC01-junk-that-must-never-be-parsed");
  WriteFileBytes(dir + "/ziggy.manifest",
                 "ziggy-store 2\ntable box 1 1 0 1 1\n");

  auto store = ZiggyStore::Open(dir).ValueOrDie();
  StoredTable loaded = store->LoadTable("box").ValueOrDie();
  EXPECT_EQ(loaded.generation, 1u);
  EXPECT_EQ(legacy::TableV1(loaded.table), legacy::TableV1(live));
  EXPECT_TRUE(loaded.profile.Equals(profile));

  // The next full save writes the current layout: a version-3 manifest
  // with 0 in the retired sketch slot, and no snapshot left behind.
  ASSERT_TRUE(store->SaveTable("box", loaded.table, 2, loaded.profile).ok());
  const std::string manifest = ReadFileBytes(store->ManifestPath());
  ASSERT_EQ(manifest.rfind("ziggy-store 3\ntable box 2 0 2 0 ", 0), 0u)
      << manifest;
  EXPECT_FALSE(PathExists(snapshot));
  EXPECT_FALSE(PathExists(table_dir + "/table.g0.ztbl"));
  EXPECT_FALSE(PathExists(table_dir + "/delta.g1.zdlt"));
  EXPECT_EQ(ReadFileBytes(store->TablePath("box", 2)).substr(0, 8),
            "ZIGTBL02");

  store.reset();
  auto reopened = ZiggyStore::Open(dir).ValueOrDie();
  StoredTable again = reopened->LoadTable("box").ValueOrDie();
  EXPECT_EQ(legacy::TableV1(again.table), legacy::TableV1(live));
  ASSERT_TRUE(RemoveDirectory(dir).ok());
}

// ------------------------------------------------- warm restart parity ----

TEST(StoreWarmRestartTest, WarmServerRendersByteIdenticalReports) {
  const std::string dir = UniqueDir("warm");
  SyntheticDataset ds = MakeBoxOfficeDataset(7).ValueOrDie();
  const std::vector<std::string> queries = {
      ds.selection_predicate, "revenue_index > 1.0",
      "budget_0 > 0.5 AND budget_1 > 0.5", ds.selection_predicate};

  // Cold boot: profile computed from scratch; render, then checkpoint.
  auto cold =
      ZiggyServer::Create(ds.table, GoldenServeOptions()).ValueOrDie();
  const uint64_t cold_sid = cold->OpenSession();
  std::vector<std::string> cold_reports;
  const Schema& schema = cold->state()->table().schema();
  for (const std::string& q : queries) {
    auto result = cold->Characterize(cold_sid, q);
    ASSERT_TRUE(result.ok()) << q;
    cold_reports.push_back(RenderCharacterizationReport(*result, schema));
  }
  auto store = ZiggyStore::Open(dir).ValueOrDie();
  ASSERT_TRUE(store
                  ->SaveTable("box", cold->state()->table(),
                              cold->state()->generation(),
                              *cold->state()->profile)
                  .ok());

  // Warm boot: checkpointed table + profile; the sketch cache starts
  // empty and refills from scans.
  StoredTable stored = store->LoadTable("box").ValueOrDie();
  auto warm = ZiggyServer::CreateFromState(std::move(stored.table),
                                           stored.generation,
                                           std::move(stored.profile),
                                           GoldenServeOptions())
                  .ValueOrDie();

  const uint64_t warm_sid = warm->OpenSession();
  for (size_t i = 0; i < queries.size(); ++i) {
    auto result = warm->Characterize(warm_sid, queries[i]);
    ASSERT_TRUE(result.ok()) << queries[i];
    EXPECT_EQ(RenderCharacterizationReport(*result, schema), cold_reports[i])
        << "query " << i << " diverged after warm restart";
  }
  ASSERT_TRUE(RemoveDirectory(dir).ok());
}

TEST(StoreWarmRestartTest, CheckpointAfterAppendRestoresGeneration) {
  const std::string dir = UniqueDir("gen");
  SyntheticDataset ds = MakeBoxOfficeDataset(7).ValueOrDie();
  SyntheticDataset tail = MakeBoxOfficeDataset(19).ValueOrDie();

  auto cold = ZiggyServer::Create(ds.table, GoldenServeOptions()).ValueOrDie();
  ASSERT_TRUE(cold->Append(tail.table).ok());
  ASSERT_TRUE(cold->Append(tail.table).ok());
  ASSERT_EQ(cold->state()->generation(), 2u);

  const uint64_t sid = cold->OpenSession();
  auto cold_result = cold->Characterize(sid, ds.selection_predicate);
  ASSERT_TRUE(cold_result.ok());
  const Schema& schema = cold->state()->table().schema();
  const std::string cold_report =
      RenderCharacterizationReport(*cold_result, schema);

  auto store = ZiggyStore::Open(dir).ValueOrDie();
  ASSERT_TRUE(store
                  ->SaveTable("box", cold->state()->table(), 2,
                              *cold->state()->profile)
                  .ok());

  StoredTable stored = store->LoadTable("box").ValueOrDie();
  EXPECT_EQ(stored.generation, 2u);
  EXPECT_EQ(stored.table.num_rows(), 2700u);
  auto warm = ZiggyServer::CreateFromState(std::move(stored.table), 2,
                                           std::move(stored.profile),
                                           GoldenServeOptions())
                  .ValueOrDie();
  EXPECT_EQ(warm->state()->generation(), 2u);
  const uint64_t warm_sid = warm->OpenSession();
  auto warm_result = warm->Characterize(warm_sid, ds.selection_predicate);
  ASSERT_TRUE(warm_result.ok());
  EXPECT_EQ(RenderCharacterizationReport(*warm_result, schema), cold_report);
  ASSERT_TRUE(RemoveDirectory(dir).ok());
}

// --------------------------------------------------- corruption policy ----

class StoreCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = UniqueDir("corrupt");
    auto store = ZiggyStore::Open(dir_).ValueOrDie();
    SyntheticDataset ds = MakeBoxOfficeDataset(7).ValueOrDie();
    auto server =
        ZiggyServer::Create(ds.table, GoldenServeOptions()).ValueOrDie();
    const uint64_t sid = server->OpenSession();
    ASSERT_TRUE(server->Characterize(sid, ds.selection_predicate).ok());
    ASSERT_TRUE(store
                    ->SaveTable("box", server->state()->table(), 0,
                                *server->state()->profile)
                    .ok());
    store_ = std::move(store);
  }

  void TearDown() override {
    store_.reset();
    ASSERT_TRUE(RemoveDirectory(dir_).ok());
  }

  std::string dir_;
  std::unique_ptr<ZiggyStore> store_;
};

TEST_F(StoreCorruptionTest, CorruptTableFailsCleanlyAndInstallsNothing) {
  FlipByte(store_->TablePath("box", 0),
           ReadFileBytes(store_->TablePath("box", 0)).size() / 2);
  Result<StoredTable> loaded = store_->LoadTable("box");
  EXPECT_FALSE(loaded.ok());

  CatalogOptions options;
  options.serve = GoldenServeOptions();
  ServerCatalog catalog(options);
  // Attach to the same (damaged) store: OpenFromStore must fail without
  // publishing a table.
  ASSERT_TRUE(catalog.AttachStore(dir_).ok());
  EXPECT_FALSE(catalog.OpenFromStore("box").ok());
  EXPECT_EQ(catalog.num_tables(), 0u);
}

TEST_F(StoreCorruptionTest, OpenFallsBackToColdSourceWhenCheckpointIsBad) {
  // Availability over warmth: a damaged checkpoint must not make the name
  // unopenable when the OPEN carried a valid cold source.
  FlipByte(store_->TablePath("box", 0),
           ReadFileBytes(store_->TablePath("box", 0)).size() / 2);
  CatalogOptions options;
  options.serve = GoldenServeOptions();
  ServerCatalog catalog(options);
  ASSERT_TRUE(catalog.AttachStore(dir_).ok());
  DaemonHandler handler(&catalog);
  auto open = LineProtocol::ParseRequest("OPEN box demo://boxoffice?seed=7");
  ASSERT_TRUE(open.ok());
  WireResponse reply = handler.Handle(*open);
  ASSERT_TRUE(reply.ok) << reply.body;
  EXPECT_EQ(reply.body,
            "{\"table\":\"box\",\"rows\":900,\"columns\":12,\"generation\":0}");
  // The cold path served it.
  EXPECT_EQ(CounterOf(catalog, "ziggy_store_opens_total"), 0u);
  EXPECT_EQ(catalog.num_tables(), 1u);
}

TEST_F(StoreCorruptionTest, TruncatedProfileFailsCleanly) {
  const std::string path = store_->ProfilePath("box", 0);
  const std::string bytes = ReadFileBytes(path);
  WriteFileBytes(path, bytes.substr(0, bytes.size() / 3));
  EXPECT_FALSE(store_->LoadTable("box").ok());
}

TEST_F(StoreCorruptionTest, WrongMagicProfileFailsCleanly) {
  WriteFileBytes(store_->ProfilePath("box", 0), "NOTAPROF-garbage-bytes");
  Result<StoredTable> loaded = store_->LoadTable("box");
  EXPECT_TRUE(loaded.status().IsParseError());
}

TEST_F(StoreCorruptionTest, LegacyProfileVersionExplicitlyRejected) {
  // ZIGPROF1 and ZIGPROF2 payloads must produce the version-mismatch
  // error, not a generic bad-magic parse error: the recompute note in
  // profile_io.cc is an actionable Status.
  const std::string current = ReadFileBytes(store_->ProfilePath("box", 0));
  ASSERT_GE(current.size(), 8u);
  ASSERT_EQ(current.substr(0, 8), "ZIGPROF4");
  for (const char version : {'1', '2'}) {
    std::string bytes = current;
    bytes[7] = version;
    WriteFileBytes(store_->ProfilePath("box", 0), bytes);
    Result<StoredTable> loaded = store_->LoadTable("box");
    ASSERT_FALSE(loaded.ok()) << "ZIGPROF" << version;
    EXPECT_TRUE(loaded.status().IsFailedPrecondition()) << loaded.status();
    EXPECT_NE(loaded.status().message().find("recompute"), std::string::npos);
  }
}

TEST_F(StoreCorruptionTest, ProfileWithShortRankArraysRejected) {
  // A well-formed profile of a shorter table with the same columns: its
  // rank arrays would send the selection scan past their end, so the load
  // must refuse it like a column-count mismatch.
  StoredTable stored = store_->LoadTable("box").ValueOrDie();
  Rng rng(3);
  const Table shorter =
      stored.table.SampleRows(stored.table.num_rows() - 10, &rng);
  const TableProfile wrong = TableProfile::Compute(shorter).ValueOrDie();
  ASSERT_TRUE(wrong.SaveToFile(store_->ProfilePath("box", 0)).ok());
  Result<StoredTable> loaded = store_->LoadTable("box");
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsParseError()) << loaded.status();
  EXPECT_NE(loaded.status().message().find("rank"), std::string::npos)
      << loaded.status();
}

TEST_F(StoreCorruptionTest, Format3ProfileStillLoads) {
  // A store written before profiles recorded their row count still
  // warm-restarts.
  const StoredTable stored = store_->LoadTable("box").ValueOrDie();
  WriteFileBytes(store_->ProfilePath("box", 0),
                 legacy::ProfileV3(stored.profile));
  Result<StoredTable> loaded = store_->LoadTable("box");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->profile.Equals(stored.profile));
}

// Saves a one-column categorical table as "cats" and then overwrites its
// profile with that of `other`.
Result<StoredTable> LoadWithProfileOf(ZiggyStore* store, const Table& table,
                                      const Table& other) {
  const TableProfile own = TableProfile::Compute(table).ValueOrDie();
  ZIGGY_RETURN_NOT_OK(store->SaveTable("cats", table, 0, own));
  const TableProfile wrong = TableProfile::Compute(other).ValueOrDie();
  ZIGGY_RETURN_NOT_OK(wrong.SaveToFile(store->ProfilePath("cats", 0)));
  return store->LoadTable("cats");
}

Table LabelTable(size_t rows, size_t labels) {
  std::vector<std::string> g(rows);
  for (size_t i = 0; i < rows; ++i) g[i] = "L" + std::to_string(i % labels);
  return Table::FromColumns({Column::FromStrings("g", std::move(g))})
      .ValueOrDie();
}

TEST_F(StoreCorruptionTest, ProfileOfOtherCategoriesRejected) {
  Result<StoredTable> loaded =
      LoadWithProfileOf(store_.get(), LabelTable(60, 3), LabelTable(60, 5));
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsParseError()) << loaded.status();
  EXPECT_NE(loaded.status().message().find("categories"), std::string::npos)
      << loaded.status();
}

TEST_F(StoreCorruptionTest, ProfileOfALongerCategoricalTableRejected) {
  Result<StoredTable> loaded =
      LoadWithProfileOf(store_.get(), LabelTable(100, 2), LabelTable(120, 2));
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsParseError()) << loaded.status();
  EXPECT_NE(loaded.status().message().find("120 rows"), std::string::npos)
      << loaded.status();
  // The table's own profile loads.
  EXPECT_TRUE(
      LoadWithProfileOf(store_.get(), LabelTable(100, 2), LabelTable(100, 2))
          .ok());
}

TEST_F(StoreCorruptionTest, TruncatedTableEveryCutFailsCleanly) {
  const std::string path = store_->TablePath("box", 0);
  const std::string bytes = ReadFileBytes(path);
  for (size_t cut : {size_t{0}, size_t{4}, size_t{11}, bytes.size() / 4,
                     bytes.size() / 2, bytes.size() - 2}) {
    WriteFileBytes(path, bytes.substr(0, cut));
    EXPECT_FALSE(store_->LoadTable("box").ok()) << "cut=" << cut;
  }
  WriteFileBytes(path, bytes);
  EXPECT_TRUE(store_->LoadTable("box").ok());
}

// ------------------------------------------------------- delta chains ----

std::string TableImage(const Table& table) {
  std::ostringstream out(std::ios::binary);
  EXPECT_TRUE(WriteTable(table, &out).ok());
  return out.str();
}

class StoreDeltaTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kLineage = 42;

  void SetUp() override {
    dir_ = UniqueDir("delta");
    ds_ = MakeBoxOfficeDataset(7).ValueOrDie();
    tail_ = MakeBoxOfficeDataset(19).ValueOrDie();
    profile_ = TableProfile::Compute(ds_.table).ValueOrDie();
  }

  void TearDown() override { ASSERT_TRUE(RemoveDirectory(dir_).ok()); }

  /// Saves `table` at `generation` and returns the store's save stats.
  static Status Save(ZiggyStore* store, const Table& table,
                     uint64_t generation, const TableProfile& profile,
                     uint64_t lineage = kLineage) {
    return store->SaveTable("box", table, generation, profile, lineage);
  }

  std::string dir_;
  SyntheticDataset ds_;
  SyntheticDataset tail_;
  TableProfile profile_;
};

TEST_F(StoreDeltaTest, AppendCheckpointWritesDeltaNotFullTable) {
  auto store = ZiggyStore::Open(dir_).ValueOrDie();
  ASSERT_TRUE(Save(store.get(), ds_.table, 0, profile_).ok());
  const std::string base_bytes = ReadFileBytes(store->TablePath("box", 0));

  // A tail of half the base's rows. (An equal-size tail cannot be held
  // under the base's size on disk: the base keeps its dictionaries in the
  // pool and these full-precision doubles are incompressible, so segment
  // and base carry the same payload.)
  Selection half(tail_.table.num_rows());
  for (size_t r = 0; r < tail_.table.num_rows() / 2; ++r) half.Set(r);
  const Table tail = tail_.table.Filter(half);
  const Table live = ds_.table.WithAppendedRows(tail).ValueOrDie();
  TableProfile live_profile = TableProfile::Compute(live).ValueOrDie();
  ASSERT_TRUE(Save(store.get(), live, 1, live_profile).ok());

  // The append checkpoint produced a delta segment; the base file was not
  // rewritten (byte-identical), and the manifest records the chain.
  EXPECT_TRUE(PathExists(store->DeltaPath("box", 1)));
  EXPECT_FALSE(PathExists(store->TablePath("box", 1)));
  EXPECT_EQ(ReadFileBytes(store->TablePath("box", 0)), base_bytes);
  const std::vector<ManifestEntry> entries = store->List();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].generation, 1u);
  EXPECT_EQ(entries[0].base_generation, 0u);
  EXPECT_EQ(entries[0].delta_generations, (std::vector<uint64_t>{1}));

  const StoreStats stats = store->stats();
  EXPECT_EQ(stats.full_checkpoints, 1u);
  EXPECT_EQ(stats.delta_checkpoints, 1u);
  EXPECT_EQ(stats.compactions, 0u);
  // O(delta): the segment costs what its rows cost, not a base rewrite
  // (the bench pins the small-tail ratio). Checked on disk — about half
  // the base for half the rows — and in the raw v1 encoding, so a codec
  // choice cannot hide a delta that grew.
  EXPECT_LT(stats.last_checkpoint_bytes, base_bytes.size());
  EXPECT_LT(stats.last_checkpoint_bytes * 10, base_bytes.size() * 6);
  EXPECT_LT(stats.last_checkpoint_raw_bytes, UncompressedTableBytes(ds_.table));
  EXPECT_EQ(stats.last_checkpoint_raw_bytes,
            UncompressedDeltaBytes(live, ds_.table.num_rows(),
                                   DictSizesOf(ds_.table)));

  // Warm load replays base+delta to the exact live table.
  StoredTable loaded = store->LoadTable("box").ValueOrDie();
  EXPECT_EQ(loaded.generation, 1u);
  EXPECT_EQ(TableImage(loaded.table), TableImage(live));
  EXPECT_TRUE(loaded.profile.Equals(live_profile));
  EXPECT_FALSE(DirHasTempLitter(dir_));
}

TEST_F(StoreDeltaTest, ChainReplaysAcrossReopenAndStampsLineage) {
  // The synthetic tails are as large as the base, so disable the
  // byte-fraction compaction — this test is about chain replay.
  StoreOptions chain_options;
  chain_options.max_delta_fraction = 1e9;
  Table live = ds_.table;
  {
    auto store = ZiggyStore::Open(dir_, chain_options).ValueOrDie();
    ASSERT_TRUE(Save(store.get(), live, 0, profile_).ok());
    for (uint64_t g = 1; g <= 3; ++g) {
      SyntheticDataset tail = MakeBoxOfficeDataset(100 + g).ValueOrDie();
      live = live.WithAppendedRows(tail.table).ValueOrDie();
      TableProfile p = TableProfile::Compute(live).ValueOrDie();
      ASSERT_TRUE(Save(store.get(), live, g, p).ok());
    }
    EXPECT_EQ(store->stats().delta_checkpoints, 3u);
  }
  // A fresh store process parses the v2 manifest and replays the chain.
  auto reopened = ZiggyStore::Open(dir_, chain_options).ValueOrDie();
  StoredTable loaded = reopened->LoadTable("box", kLineage).ValueOrDie();
  EXPECT_EQ(loaded.generation, 3u);
  EXPECT_EQ(TableImage(loaded.table), TableImage(live));

  // The load stamped the persisted shape with our lineage: the next
  // append checkpoint extends the chain instead of rewriting the base.
  SyntheticDataset tail = MakeBoxOfficeDataset(200).ValueOrDie();
  live = live.WithAppendedRows(tail.table).ValueOrDie();
  TableProfile p = TableProfile::Compute(live).ValueOrDie();
  ASSERT_TRUE(Save(reopened.get(), live, 4, p).ok());
  EXPECT_EQ(reopened->stats().delta_checkpoints, 1u);
  EXPECT_EQ(reopened->stats().full_checkpoints, 0u);
}

TEST_F(StoreDeltaTest, ChainLengthTriggersCompaction) {
  StoreOptions options;
  options.max_delta_chain = 2;
  options.max_delta_fraction = 100.0;  // only the length limit fires
  auto store = ZiggyStore::Open(dir_, options).ValueOrDie();
  Table live = ds_.table;
  ASSERT_TRUE(Save(store.get(), live, 0, profile_).ok());
  for (uint64_t g = 1; g <= 3; ++g) {
    SyntheticDataset tail = MakeBoxOfficeDataset(100 + g).ValueOrDie();
    live = live.WithAppendedRows(tail.table).ValueOrDie();
    TableProfile p = TableProfile::Compute(live).ValueOrDie();
    ASSERT_TRUE(Save(store.get(), live, g, p).ok());
  }
  // Saves 1 and 2 were deltas; save 3 hit the chain limit and compacted.
  const StoreStats stats = store->stats();
  EXPECT_EQ(stats.delta_checkpoints, 2u);
  EXPECT_EQ(stats.full_checkpoints, 2u);  // initial base + compaction
  EXPECT_EQ(stats.compactions, 1u);
  const std::vector<ManifestEntry> entries = store->List();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].base_generation, 3u);
  EXPECT_TRUE(entries[0].delta_generations.empty());
  // The compaction swept the old base and the compacted-away segments.
  EXPECT_FALSE(PathExists(store->TablePath("box", 0)));
  EXPECT_FALSE(PathExists(store->DeltaPath("box", 1)));
  EXPECT_FALSE(PathExists(store->DeltaPath("box", 2)));
  StoredTable loaded = store->LoadTable("box").ValueOrDie();
  EXPECT_EQ(TableImage(loaded.table), TableImage(live));
}

TEST_F(StoreDeltaTest, ChainWeightTriggersCompaction) {
  StoreOptions options;
  options.max_delta_chain = 100;   // only the byte-fraction limit fires
  options.max_delta_fraction = 0.5;
  auto store = ZiggyStore::Open(dir_, options).ValueOrDie();
  Table live = ds_.table;
  ASSERT_TRUE(Save(store.get(), live, 0, profile_).ok());
  // Each tail is as large as the base, so one delta already outweighs
  // max_delta_fraction of the base and the next save must compact.
  live = live.WithAppendedRows(tail_.table).ValueOrDie();
  TableProfile p1 = TableProfile::Compute(live).ValueOrDie();
  ASSERT_TRUE(Save(store.get(), live, 1, p1).ok());
  EXPECT_EQ(store->stats().delta_checkpoints, 1u);
  live = live.WithAppendedRows(tail_.table).ValueOrDie();
  TableProfile p2 = TableProfile::Compute(live).ValueOrDie();
  ASSERT_TRUE(Save(store.get(), live, 2, p2).ok());
  EXPECT_EQ(store->stats().compactions, 1u);
  EXPECT_EQ(store->List()[0].base_generation, 2u);
}

TEST_F(StoreDeltaTest, UnknownLineageAlwaysWritesFullSnapshots) {
  auto store = ZiggyStore::Open(dir_).ValueOrDie();
  ASSERT_TRUE(Save(store.get(), ds_.table, 0, profile_, /*lineage=*/0).ok());
  const Table live = ds_.table.WithAppendedRows(tail_.table).ValueOrDie();
  TableProfile p = TableProfile::Compute(live).ValueOrDie();
  // Lineage 0 (unknown provenance) and a lineage mismatch both force a
  // full snapshot — the shape checks alone cannot prove the new table
  // extends the persisted bytes.
  ASSERT_TRUE(Save(store.get(), live, 1, p, /*lineage=*/0).ok());
  EXPECT_EQ(store->stats().delta_checkpoints, 0u);
  ASSERT_TRUE(Save(store.get(), live, 2, p, /*lineage=*/kLineage).ok());
  EXPECT_EQ(store->stats().delta_checkpoints, 0u);
  EXPECT_EQ(store->stats().full_checkpoints, 3u);
}

TEST_F(StoreDeltaTest, CorruptDeltaSegmentFailsCleanlyBaseSurvives) {
  StoreOptions chain_options;
  chain_options.max_delta_fraction = 1e9;  // keep both segments as deltas
  auto store = ZiggyStore::Open(dir_, chain_options).ValueOrDie();
  Table live = ds_.table;
  ASSERT_TRUE(Save(store.get(), live, 0, profile_).ok());
  for (uint64_t g = 1; g <= 2; ++g) {
    SyntheticDataset tail = MakeBoxOfficeDataset(100 + g).ValueOrDie();
    live = live.WithAppendedRows(tail.table).ValueOrDie();
    TableProfile p = TableProfile::Compute(live).ValueOrDie();
    ASSERT_TRUE(Save(store.get(), live, g, p).ok());
  }
  ASSERT_TRUE(store->LoadTable("box").ok());
  const std::string base_image = ReadFileBytes(store->TablePath("box", 0));

  for (uint64_t g = 1; g <= 2; ++g) {
    const std::string path = store->DeltaPath("box", g);
    const std::string bytes = ReadFileBytes(path);
    // Strided bit flips across the segment: every one a clean failure.
    const size_t stride = bytes.size() / 64 + 1;
    for (size_t pos = 0; pos < bytes.size(); pos += stride) {
      std::string mutated = bytes;
      mutated[pos] = static_cast<char>(mutated[pos] ^ 0x08);
      WriteFileBytes(path, mutated);
      Result<StoredTable> loaded = store->LoadTable("box");
      EXPECT_FALSE(loaded.ok()) << "delta g" << g << " pos=" << pos;
    }
    // Truncations, including an empty segment.
    for (size_t cut : {size_t{0}, size_t{4}, bytes.size() / 2,
                       bytes.size() - 1}) {
      WriteFileBytes(path, bytes.substr(0, cut));
      EXPECT_FALSE(store->LoadTable("box").ok())
          << "delta g" << g << " cut=" << cut;
    }
    // The base checkpoint under the damaged chain is byte-untouched on
    // disk (a compressed base is only readable through the store's
    // dictionary resolver, so equality is the right "survives" check) —
    // a full re-save repairs the store.
    EXPECT_EQ(ReadFileBytes(store->TablePath("box", 0)), base_image);
    WriteFileBytes(path, bytes);
  }
  // Restored segments: the chain loads again.
  StoredTable loaded = store->LoadTable("box").ValueOrDie();
  EXPECT_EQ(TableImage(loaded.table), TableImage(live));

  // A deleted segment (chain file missing entirely) also fails cleanly,
  // and a subsequent full save repairs the table.
  ASSERT_TRUE(RemoveFileIfExists(store->DeltaPath("box", 1)).ok());
  EXPECT_FALSE(store->LoadTable("box").ok());
  TableProfile p = TableProfile::Compute(live).ValueOrDie();
  ASSERT_TRUE(store->SaveTable("box", live, 3, p, /*lineage=*/0).ok());
  EXPECT_EQ(TableImage(store->LoadTable("box").ValueOrDie().table),
            TableImage(live));
}

// -------------------------------------------------- catalog integration ----

TEST(CatalogStoreTest, OpenFromStoreServesAndCounts) {
  const std::string dir = UniqueDir("catalog");
  SyntheticDataset ds = MakeBoxOfficeDataset(7).ValueOrDie();

  CatalogOptions options;
  options.serve = GoldenServeOptions();
  ServerCatalog catalog(options);
  EXPECT_FALSE(catalog.HasStore());
  EXPECT_TRUE(catalog.SaveToStore("box").status().IsFailedPrecondition());
  EXPECT_TRUE(catalog.SetPersist("box", true).IsFailedPrecondition());
  ASSERT_TRUE(catalog.AttachStore(dir).ok());
  EXPECT_TRUE(catalog.AttachStore(dir).IsFailedPrecondition());  // once

  ASSERT_TRUE(catalog.Open("box", ds.table).ok());
  EXPECT_TRUE(catalog.SaveToStore("nope").status().IsNotFound());
  EXPECT_EQ(catalog.SaveToStore("box").ValueOrDie(), 0u);
  EXPECT_TRUE(catalog.StoreHas("box"));

  // Close + warm reopen from the checkpoint.
  ASSERT_TRUE(catalog.Close("box").ok());
  auto warm = catalog.OpenFromStore("box");
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ((*warm)->state()->table().num_rows(), 900u);

  EXPECT_EQ(GaugeOf(catalog, "ziggy_store_attached"), 1);
  EXPECT_EQ(GaugeOf(catalog, "ziggy_store_tables"), 1);
  EXPECT_EQ(CounterOf(catalog, "ziggy_store_opens_total"), 1u);
  EXPECT_EQ(CounterOf(catalog, "ziggy_store_saves_total"), 1u);
  ASSERT_TRUE(RemoveDirectory(dir).ok());
}

TEST(CatalogStoreTest, AppendCheckpointsWhenPersistIsOn) {
  const std::string dir = UniqueDir("persist");
  SyntheticDataset ds = MakeBoxOfficeDataset(7).ValueOrDie();
  SyntheticDataset tail = MakeBoxOfficeDataset(19).ValueOrDie();

  CatalogOptions options;
  options.serve = GoldenServeOptions();
  ServerCatalog catalog(options);
  ASSERT_TRUE(catalog.AttachStore(dir).ok());
  ASSERT_TRUE(catalog.Open("box", ds.table).ok());

  // Persist off: append does not checkpoint.
  Status checkpoint = Status::OK();
  ASSERT_TRUE(catalog.Append("box", tail.table, &checkpoint).ok());
  EXPECT_TRUE(checkpoint.ok());
  EXPECT_FALSE(catalog.StoreHas("box"));

  // Persist on: the next append checkpoints generation 2.
  ASSERT_TRUE(catalog.SetPersist("box", true).ok());
  ASSERT_TRUE(catalog.Append("box", tail.table, &checkpoint).ok());
  EXPECT_TRUE(checkpoint.ok());
  ASSERT_TRUE(catalog.StoreHas("box"));
  EXPECT_EQ(catalog.store()->StoredGeneration("box").ValueOrDie(), 2u);

  // only_if_newer: saving the same generation again is a no-op skip.
  EXPECT_EQ(catalog.SaveToStore("box", /*only_if_newer=*/true).ValueOrDie(),
            2u);
  // Still just the append's.
  EXPECT_EQ(CounterOf(catalog, "ziggy_store_saves_total"), 1u);
  ASSERT_TRUE(RemoveDirectory(dir).ok());
}

TEST(CatalogStoreTest, AppendCheckpointsAreDeltasAndWarmBootExtendsChain) {
  const std::string dir = UniqueDir("catalog_delta");
  SyntheticDataset ds = MakeBoxOfficeDataset(7).ValueOrDie();
  SyntheticDataset tail = MakeBoxOfficeDataset(19).ValueOrDie();

  {
    CatalogOptions options;
    options.serve = GoldenServeOptions();
    ServerCatalog catalog(options);
    ASSERT_TRUE(catalog.AttachStore(dir).ok());
    ASSERT_TRUE(catalog.Open("box", ds.table).ok());
    ASSERT_TRUE(catalog.SaveToStore("box").ok());
    ASSERT_TRUE(catalog.SetPersist("box", true).ok());
    Status checkpoint = Status::OK();
    ASSERT_TRUE(catalog.Append("box", tail.table, &checkpoint).ok());
    EXPECT_TRUE(checkpoint.ok());
    // The catalog handed its lineage through: the append's checkpoint is
    // an O(delta) segment, not a base rewrite.
    EXPECT_EQ(GaugeOf(catalog, "ziggy_store_full_checkpoints"), 1);
    EXPECT_EQ(GaugeOf(catalog, "ziggy_store_delta_checkpoints"), 1);
    EXPECT_TRUE(PathExists(catalog.store()->DeltaPath("box", 1)));
  }
  {
    // Warm restart: OpenFromStore replays the chain and stamps a fresh
    // lineage, so the next append checkpoint extends the chain instead of
    // rewriting the base. (The equal-size synthetic tail would trip the
    // byte-fraction compaction, so widen it — compaction has its own
    // tests.)
    CatalogOptions options;
    options.serve = GoldenServeOptions();
    options.store.max_delta_fraction = 1e9;
    ServerCatalog catalog(options);
    ASSERT_TRUE(catalog.AttachStore(dir).ok());
    auto warm = catalog.OpenFromStore("box");
    ASSERT_TRUE(warm.ok()) << warm.status();
    EXPECT_EQ((*warm)->state()->table().num_rows(), 1800u);
    ASSERT_TRUE(catalog.SetPersist("box", true).ok());
    Status checkpoint = Status::OK();
    ASSERT_TRUE(catalog.Append("box", tail.table, &checkpoint).ok());
    EXPECT_TRUE(checkpoint.ok());
    EXPECT_EQ(GaugeOf(catalog, "ziggy_store_full_checkpoints"), 0);
    EXPECT_EQ(GaugeOf(catalog, "ziggy_store_delta_checkpoints"), 1);
    EXPECT_EQ(catalog.store()->StoredGeneration("box").ValueOrDie(), 2u);
  }
  // But a COLD re-open of the name (new lineage, arbitrary data) must
  // never be delta-saved on top of the old chain.
  {
    CatalogOptions options;
    options.serve = GoldenServeOptions();
    ServerCatalog catalog(options);
    ASSERT_TRUE(catalog.AttachStore(dir).ok());
    ASSERT_TRUE(catalog.Open("box", ds.table).ok());
    ASSERT_TRUE(catalog.SetPersist("box", true).ok());
    Status checkpoint = Status::OK();
    // Generations 1..2 are behind the stored generation 2 -> the
    // only_if_newer guard skips; append once more to get past it.
    ASSERT_TRUE(catalog.Append("box", tail.table, &checkpoint).ok());
    ASSERT_TRUE(catalog.Append("box", tail.table, &checkpoint).ok());
    ASSERT_TRUE(catalog.Append("box", tail.table, &checkpoint).ok());
    EXPECT_TRUE(checkpoint.ok());
    EXPECT_EQ(GaugeOf(catalog, "ziggy_store_delta_checkpoints"), 0);
    EXPECT_GE(GaugeOf(catalog, "ziggy_store_full_checkpoints"), 1);
  }
  ASSERT_TRUE(RemoveDirectory(dir).ok());
}

TEST(CatalogStoreTest, StaleCheckpointNeverClobbersNewerStoredGeneration) {
  // Regression for the only_if_newer race: the store already holds a
  // generation PAST the server's (a concurrent append checkpointed ahead
  // of us, or — as staged here — the server was rebuilt from scratch
  // while the store kept serving). With the old `==` comparison the save
  // proceeded and overwrote generation 5 with generation 1.
  const std::string dir = UniqueDir("stale");
  SyntheticDataset ds = MakeBoxOfficeDataset(7).ValueOrDie();
  SyntheticDataset tail = MakeBoxOfficeDataset(19).ValueOrDie();
  {
    auto store = ZiggyStore::Open(dir).ValueOrDie();
    TableProfile profile = TableProfile::Compute(ds.table).ValueOrDie();
    ASSERT_TRUE(store->SaveTable("box", ds.table, 5, profile).ok());
  }

  CatalogOptions options;
  options.serve = GoldenServeOptions();
  ServerCatalog catalog(options);
  ASSERT_TRUE(catalog.AttachStore(dir).ok());
  ASSERT_TRUE(catalog.Open("box", ds.table).ok());  // cold: generation 0
  ASSERT_TRUE(catalog.SetPersist("box", true).ok());
  Status checkpoint = Status::OK();
  ASSERT_TRUE(catalog.Append("box", tail.table, &checkpoint).ok());
  EXPECT_TRUE(checkpoint.ok());  // skipped, not failed
  // The stored (newer) generation survived; nothing was written.
  EXPECT_EQ(catalog.store()->StoredGeneration("box").ValueOrDie(), 5u);
  EXPECT_EQ(CounterOf(catalog, "ziggy_store_saves_total"), 0u);
  // The explicit only_if_newer save reports the durable generation.
  EXPECT_EQ(catalog.SaveToStore("box", /*only_if_newer=*/true).ValueOrDie(),
            5u);
  // A forced save (only_if_newer=false) still overwrites deliberately.
  EXPECT_EQ(catalog.SaveToStore("box").ValueOrDie(), 1u);
  EXPECT_EQ(catalog.store()->StoredGeneration("box").ValueOrDie(), 1u);
  ASSERT_TRUE(RemoveDirectory(dir).ok());
}

TEST(CatalogStoreTest, SaveAllContinuesPastFailuresAndReportsEach) {
  const std::string dir = UniqueDir("saveall");
  SyntheticDataset ds = MakeBoxOfficeDataset(7).ValueOrDie();

  CatalogOptions options;
  options.serve = GoldenServeOptions();
  ServerCatalog catalog(options);
  ASSERT_TRUE(catalog.AttachStore(dir).ok());
  // "a" sorts before "box", and a disk fault fails its save: the first
  // fire only makes the dictionary pool inline a dictionary, the second
  // fails the table file. The old stop-at-first-failure loop would have
  // left "box" unsaved.
  ASSERT_TRUE(catalog.Open("a", ds.table).ok());
  ASSERT_TRUE(catalog.Open("box", ds.table).ok());
  {
    ScopedFault fault("store.write:n1*2#ENOSPC");
    ASSERT_TRUE(fault.status().ok());
    Result<std::vector<TableSaveResult>> results = catalog.SaveAllToStore();
    ASSERT_TRUE(results.ok());
    ASSERT_EQ(results->size(), 2u);
    EXPECT_EQ((*results)[0].name, "a");
    EXPECT_TRUE((*results)[0].status.IsIOError()) << (*results)[0].status;
    EXPECT_EQ((*results)[1].name, "box");
    EXPECT_TRUE((*results)[1].status.ok()) << (*results)[1].status;
    EXPECT_EQ((*results)[1].generation, 0u);
  }
  EXPECT_TRUE(catalog.StoreHas("box"));
  EXPECT_FALSE(catalog.StoreHas("a"));

  // The wire verb surfaces both the success and the per-table error. The
  // dictionary is pooled by now, so one fire fails "a"'s table file.
  DaemonHandler handler(&catalog);
  ScopedFault fault("store.write:n1*1#ENOSPC");
  ASSERT_TRUE(fault.status().ok());
  WireResponse reply = handler.Handle(*LineProtocol::ParseRequest("SAVE"));
  ASSERT_TRUE(reply.ok) << reply.body;
  EXPECT_NE(reply.body.find("\"saved\":[{\"table\":\"box\",\"generation\":0}]"),
            std::string::npos)
      << reply.body;
  EXPECT_NE(reply.body.find("\"errors\":[{\"table\":\"a\""),
            std::string::npos)
      << reply.body;
  ASSERT_TRUE(RemoveDirectory(dir).ok());
}

// ---------------------------------------------------- background flusher ----

TEST(CatalogFlusherTest, FlusherPersistsAppendsOffTheRequestPath) {
  const std::string dir = UniqueDir("flusher");
  SyntheticDataset ds = MakeBoxOfficeDataset(7).ValueOrDie();
  SyntheticDataset tail = MakeBoxOfficeDataset(19).ValueOrDie();

  CatalogOptions options;
  options.serve = GoldenServeOptions();
  options.flush_interval_ms = 20;
  ServerCatalog catalog(options);
  ASSERT_TRUE(catalog.AttachStore(dir).ok());
  EXPECT_EQ(GaugeOf(catalog, "ziggy_flusher_active"), 1);
  ASSERT_TRUE(catalog.Open("box", ds.table).ok());
  ASSERT_TRUE(catalog.SaveToStore("box").ok());
  ASSERT_TRUE(catalog.SetPersist("box", true).ok());

  Status checkpoint = Status::OK();
  ASSERT_TRUE(catalog.Append("box", tail.table, &checkpoint).ok());
  EXPECT_TRUE(checkpoint.ok());  // durability is pending, not failed

  // The flusher checkpoints the dirty table within a few intervals (the
  // poll watches the counter, which is bumped after the save completes).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (CounterOf(catalog, "ziggy_flusher_flushed_tables_total") < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(catalog.store()->StoredGeneration("box").ValueOrDie(), 1u);
  EXPECT_GE(CounterOf(catalog, "ziggy_flusher_flushed_tables_total"), 1u);
  EXPECT_GE(CounterOf(catalog, "ziggy_flusher_cycles_total"), 1u);
  EXPECT_EQ(CounterOf(catalog, "ziggy_flusher_failures_total"), 0u);
  // The background save cut a delta segment, not a base rewrite.
  EXPECT_EQ(GaugeOf(catalog, "ziggy_store_delta_checkpoints"), 1);

  // StopFlusher drains synchronously: a second append marked dirty just
  // before shutdown is checkpointed, not dropped.
  ASSERT_TRUE(catalog.Append("box", tail.table, &checkpoint).ok());
  catalog.StopFlusher();
  EXPECT_EQ(catalog.store()->StoredGeneration("box").ValueOrDie(), 2u);
  EXPECT_EQ(GaugeOf(catalog, "ziggy_flusher_active"), 0);
  ASSERT_TRUE(RemoveDirectory(dir).ok());
}

TEST(CatalogFlusherTest, CloseDrainsThePendingFlushFirst) {
  const std::string dir = UniqueDir("flusher_close");
  SyntheticDataset ds = MakeBoxOfficeDataset(7).ValueOrDie();
  SyntheticDataset tail = MakeBoxOfficeDataset(19).ValueOrDie();

  CatalogOptions options;
  options.serve = GoldenServeOptions();
  // An interval far beyond the test's lifetime: only the drain paths can
  // persist the append.
  options.flush_interval_ms = 600'000;
  ServerCatalog catalog(options);
  ASSERT_TRUE(catalog.AttachStore(dir).ok());
  ASSERT_TRUE(catalog.Open("box", ds.table).ok());
  ASSERT_TRUE(catalog.SetPersist("box", true).ok());
  Status checkpoint = Status::OK();
  ASSERT_TRUE(catalog.Append("box", tail.table, &checkpoint).ok());
  EXPECT_TRUE(checkpoint.ok());
  EXPECT_FALSE(catalog.StoreHas("box"));  // still only dirty
  EXPECT_EQ(GaugeOf(catalog, "ziggy_flusher_queue_depth"), 1);

  ASSERT_TRUE(catalog.Close("box").ok());
  // Close flushed the pending generation before unpublishing the name.
  EXPECT_EQ(catalog.store()->StoredGeneration("box").ValueOrDie(), 1u);
  EXPECT_EQ(GaugeOf(catalog, "ziggy_flusher_queue_depth"), 0);
  ASSERT_TRUE(RemoveDirectory(dir).ok());
}

// ------------------------------------------------- injected store faults ----

/// The sites a checkpoint crosses, each with a first-hit fault: the store's
/// section writer (every table/profile codec funnels through it),
/// the atomic whole-file writer (the manifest), and the commit trio's
/// fsync/rename.
const char* const kSaveFaultSpecs[] = {
    "store.write:n1#ENOSPC",
    "fs.write:n1#EIO",
    "fs.fsync:n1#EIO",
    "fs.rename:n1#ENOSPC",
};

class StoreFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = MakeBoxOfficeDataset(7).ValueOrDie();
    tail_ = MakeBoxOfficeDataset(19).ValueOrDie();
    profile_ = TableProfile::Compute(ds_.table).ValueOrDie();
  }

  SyntheticDataset ds_;
  SyntheticDataset tail_;
  TableProfile profile_;
};

TEST_F(StoreFaultTest, FirstSaveFailsCleanAndInstallsNothing) {
  for (const char* spec : kSaveFaultSpecs) {
    const std::string dir = UniqueDir("fault_first");
    // Arm AFTER Open: initializing the store commits a manifest through
    // the same fs sites, and this test is about the save path.
    auto store = ZiggyStore::Open(dir).ValueOrDie();
    Status st;
    {
      ScopedFault fault(spec);
      ASSERT_TRUE(fault.status().ok()) << spec;
      st = store->SaveTable("box", ds_.table, 0, profile_);
    }
    ASSERT_FALSE(st.ok()) << spec;
    EXPECT_TRUE(st.IsIOError()) << spec << ": " << st;
    EXPECT_NE(st.message().find("injected fault"), std::string::npos) << st;
    // Nothing installed, and the live handle agrees with a fresh process.
    EXPECT_FALSE(store->Has("box")) << spec;
    EXPECT_FALSE(DirHasTempLitter(dir)) << spec;
    auto reopened = ZiggyStore::Open(dir).ValueOrDie();
    EXPECT_TRUE(reopened->List().empty()) << spec;
    // Healed: the identical save lands and loads exactly.
    ASSERT_TRUE(
        reopened->SaveTable("box", ds_.table, 0, profile_).ok())
        << spec;
    StoredTable loaded = reopened->LoadTable("box").ValueOrDie();
    EXPECT_EQ(TableImage(loaded.table), TableImage(ds_.table)) << spec;
    ASSERT_TRUE(RemoveDirectory(dir).ok());
  }
}

TEST_F(StoreFaultTest, FailedResaveKeepsPreviousGenerationByteIdentical) {
  for (const char* spec : kSaveFaultSpecs) {
    const std::string dir = UniqueDir("fault_resave");
    auto store = ZiggyStore::Open(dir).ValueOrDie();
    ASSERT_TRUE(store->SaveTable("box", ds_.table, 0, profile_).ok());
    const std::string base_bytes = ReadFileBytes(store->TablePath("box", 0));
    const Table live = ds_.table.WithAppendedRows(tail_.table).ValueOrDie();
    TableProfile live_profile = TableProfile::Compute(live).ValueOrDie();

    Status st;
    {
      ScopedFault fault(spec);
      ASSERT_TRUE(fault.status().ok()) << spec;
      st = store->SaveTable("box", live, 1, live_profile);
    }
    ASSERT_FALSE(st.ok()) << spec;
    // The previous checkpoint is still what the store serves — manifest,
    // generation, and bytes — on the live handle and after a reopen.
    EXPECT_EQ(store->StoredGeneration("box").ValueOrDie(), 0u) << spec;
    EXPECT_EQ(ReadFileBytes(store->TablePath("box", 0)), base_bytes) << spec;
    StoredTable survived = store->LoadTable("box").ValueOrDie();
    EXPECT_EQ(survived.generation, 0u) << spec;
    EXPECT_EQ(TableImage(survived.table), TableImage(ds_.table)) << spec;
    EXPECT_FALSE(DirHasTempLitter(dir)) << spec;
    auto reopened = ZiggyStore::Open(dir).ValueOrDie();
    EXPECT_EQ(reopened->StoredGeneration("box").ValueOrDie(), 0u) << spec;
    // Healed: the resave lands.
    ASSERT_TRUE(store->SaveTable("box", live, 1, live_profile).ok())
        << spec;
    EXPECT_EQ(TableImage(store->LoadTable("box").ValueOrDie().table),
              TableImage(live))
        << spec;
    ASSERT_TRUE(RemoveDirectory(dir).ok());
  }
}

TEST_F(StoreFaultTest, FailedDeltaSaveLeavesChainReplayable) {
  constexpr uint64_t kLineage = 42;
  for (const char* spec : kSaveFaultSpecs) {
    const std::string dir = UniqueDir("fault_delta");
    StoreOptions options;
    options.max_delta_fraction = 1e9;  // equal-size tails must stay deltas
    auto store = ZiggyStore::Open(dir, options).ValueOrDie();
    ASSERT_TRUE(
        store->SaveTable("box", ds_.table, 0, profile_, kLineage).ok());
    const Table live = ds_.table.WithAppendedRows(tail_.table).ValueOrDie();
    TableProfile p1 = TableProfile::Compute(live).ValueOrDie();
    ASSERT_TRUE(store->SaveTable("box", live, 1, p1, kLineage).ok());
    ASSERT_EQ(store->stats().delta_checkpoints, 1u);
    const Table next = live.WithAppendedRows(tail_.table).ValueOrDie();
    TableProfile p2 = TableProfile::Compute(next).ValueOrDie();

    Status st;
    {
      ScopedFault fault(spec);
      ASSERT_TRUE(fault.status().ok()) << spec;
      st = store->SaveTable("box", next, 2, p2, kLineage);
    }
    ASSERT_FALSE(st.ok()) << spec;
    // The base + delta chain up to generation 1 still replays exactly.
    StoredTable survived = store->LoadTable("box", kLineage).ValueOrDie();
    EXPECT_EQ(survived.generation, 1u) << spec;
    EXPECT_EQ(TableImage(survived.table), TableImage(live)) << spec;
    EXPECT_FALSE(DirHasTempLitter(dir)) << spec;
    // Healed: the chain extends past the failure.
    ASSERT_TRUE(store->SaveTable("box", next, 2, p2, kLineage).ok())
        << spec;
    EXPECT_EQ(TableImage(store->LoadTable("box", kLineage).ValueOrDie().table),
              TableImage(next))
        << spec;
    ASSERT_TRUE(RemoveDirectory(dir).ok());
  }
}

TEST(CatalogFlusherTest, FailingStoreBacksOffInsteadOfHotLooping) {
  const std::string dir = UniqueDir("flusher_backoff");
  SyntheticDataset ds = MakeBoxOfficeDataset(7).ValueOrDie();
  SyntheticDataset tail = MakeBoxOfficeDataset(19).ValueOrDie();

  CatalogOptions options;
  options.serve = GoldenServeOptions();
  options.flush_interval_ms = 5;
  options.flush_backoff_initial_ms = 200;
  options.flush_backoff_max_ms = 400;
  options.degraded_after_failures = 0;  // isolate backoff from degraded mode
  ServerCatalog catalog(options);
  ASSERT_TRUE(catalog.AttachStore(dir).ok());
  ASSERT_TRUE(catalog.Open("box", ds.table).ok());
  ASSERT_TRUE(catalog.SetPersist("box", true).ok());

  // Every store write fails until healed (the ScopedFault window below
  // ends at the heal point).
  std::optional<ScopedFault> fault;
  fault.emplace("store.write:p1.0");
  ASSERT_TRUE(fault->status().ok());
  const auto t0 = std::chrono::steady_clock::now();
  Status checkpoint = Status::OK();
  ASSERT_TRUE(catalog.Append("box", tail.table, &checkpoint).ok());
  EXPECT_TRUE(checkpoint.ok());  // durability is pending, not failed

  // Retries keep coming (the table is requeued, never dropped) ...
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (CounterOf(catalog, "ziggy_flusher_failures_total") < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const uint64_t failures = CounterOf(catalog, "ziggy_flusher_failures_total");
  ASSERT_GE(failures, 2u);
  EXPECT_EQ(GaugeOf(catalog, "ziggy_flusher_backoff_tables"), 1);
  EXPECT_EQ(GaugeOf(catalog, "ziggy_flusher_queue_depth"), 1);
  // ... but at the backoff pace, not the flusher interval: a hot loop at
  // 5ms would have logged ~elapsed/5 failures by now. The bound scales
  // with real elapsed time, so a stalled CI machine cannot trip it.
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LE(failures, 2u + static_cast<uint64_t>(elapsed_ms) / 200u)
      << "elapsed " << elapsed_ms << "ms";

  // Heal: the next backoff retry lands, the entry clears, and the
  // appended generation is durable.
  fault.reset();
  const auto heal_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (CounterOf(catalog, "ziggy_flusher_flushed_tables_total") < 1 &&
         std::chrono::steady_clock::now() < heal_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(catalog.store()->StoredGeneration("box").ValueOrDie(), 1u);
  EXPECT_EQ(GaugeOf(catalog, "ziggy_flusher_backoff_tables"), 0);
  EXPECT_EQ(GaugeOf(catalog, "ziggy_flusher_queue_depth"), 0);
  catalog.StopFlusher();
  ASSERT_TRUE(RemoveDirectory(dir).ok());
}

TEST(CatalogDegradedTest, TripsAfterKFailuresAndAutoClearsOnHeal) {
  const std::string dir = UniqueDir("degraded");
  SyntheticDataset ds = MakeBoxOfficeDataset(7).ValueOrDie();
  SyntheticDataset tail = MakeBoxOfficeDataset(19).ValueOrDie();

  CatalogOptions options;
  options.serve = GoldenServeOptions();
  options.flush_interval_ms = 5;
  options.flush_backoff_initial_ms = 10;
  options.flush_backoff_max_ms = 40;
  options.degraded_after_failures = 3;
  ServerCatalog catalog(options);
  ASSERT_TRUE(catalog.AttachStore(dir).ok());
  ASSERT_TRUE(catalog.Open("box", ds.table).ok());
  ASSERT_TRUE(catalog.SetPersist("box", true).ok());

  std::optional<ScopedFault> fault;
  fault.emplace("store.write:p1.0");
  ASSERT_TRUE(fault->status().ok());
  Status checkpoint = Status::OK();
  ASSERT_TRUE(catalog.Append("box", tail.table, &checkpoint).ok());

  // Three consecutive background failures trip the latch.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!catalog.degraded() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(catalog.degraded());
  EXPECT_EQ(GaugeOf(catalog, "ziggy_flusher_degraded"), 1);
  EXPECT_GE(GaugeOf(catalog, "ziggy_flusher_consecutive_failures"), 3);
  EXPECT_GT(GaugeOf(catalog, "ziggy_flusher_retry_after_ms"), 0);

  // Degraded = read-only: writes are refused up front (nothing lands in
  // memory that the store could then never converge to), reads keep
  // serving.
  EXPECT_TRUE(
      catalog.Append("box", tail.table, &checkpoint).status().IsUnavailable());
  EXPECT_TRUE(catalog.SaveToStore("box").status().IsUnavailable());
  ASSERT_TRUE(catalog.Find("box").ok());
  EXPECT_EQ((*catalog.Find("box"))->state()->generation(), 1u);  // no new gen
  EXPECT_EQ(GaugeOf(catalog, "ziggy_flusher_degraded"), 1);

  // Heal the store: the flusher's retry of the still-dirty table succeeds
  // and auto-clears the mode — no restart, no operator action.
  fault.reset();
  const auto heal_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (catalog.degraded() &&
         std::chrono::steady_clock::now() < heal_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_FALSE(catalog.degraded());
  EXPECT_EQ(GaugeOf(catalog, "ziggy_flusher_degraded"), 0);
  EXPECT_EQ(GaugeOf(catalog, "ziggy_flusher_consecutive_failures"), 0);
  EXPECT_EQ(catalog.store()->StoredGeneration("box").ValueOrDie(), 1u);

  // Writes flow again end to end.
  ASSERT_TRUE(catalog.Append("box", tail.table, &checkpoint).ok());
  catalog.StopFlusher();
  EXPECT_EQ(catalog.store()->StoredGeneration("box").ValueOrDie(), 2u);
  ASSERT_TRUE(RemoveDirectory(dir).ok());
}

}  // namespace
}  // namespace ziggy
