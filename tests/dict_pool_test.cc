// The shared dictionary pool (persist/dict_pool.h), standalone and wired
// into the store:
//
//  * pool mechanics — content addressing, prefix merging (an append
//    generation's longer dictionary absorbs the shorter one), collision
//    verification by labels, corrupt-file skip at Open;
//  * GC safety — a dictionary referenced by any live manifest entry (or
//    pinned by an in-flight save) is never deleted; two tables sharing
//    one dictionary stay independently loadable after either is removed;
//  * store integration — compressed checkpoints round-trip bit for bit
//    across a cold reopen and share pool files across tables.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "persist/dict_pool.h"
#include "persist/fs_util.h"
#include "persist/store.h"
#include "storage/table.h"
#include "zig/profile.h"

namespace ziggy {
namespace {

std::string UniqueDir(const std::string& tag) {
  static int counter = 0;
  return testing::TempDir() + "/ziggy_dict_pool_test_" + tag + "_" +
         std::to_string(++counter);
}

size_t CountPoolFiles(const std::string& store_dir) {
  namespace fs = std::filesystem;
  const fs::path dicts = fs::path(store_dir) / "dicts";
  std::error_code ec;
  size_t n = 0;
  for (fs::directory_iterator it(dicts, ec); !ec && it != fs::directory_iterator();
       ++it) {
    if (it->path().extension() == ".zdic") ++n;
  }
  return n;
}

// ------------------------------------------------------ pool mechanics ----

TEST(DictPoolTest, AcquireResolveRoundTrip) {
  const std::string dir = UniqueDir("roundtrip");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  auto pool = DictPool::Open(dir).ValueOrDie();

  const std::vector<std::string> labels = {"red", "green", "blue"};
  const DictRef ref = pool->Acquire(labels).ValueOrDie();
  EXPECT_EQ(ref.size, labels.size());
  EXPECT_EQ(ref.hash, DictPool::ChainHash(labels));

  auto dict = pool->Resolve(ref).ValueOrDie();
  EXPECT_EQ(dict->labels, labels);
  // Resolve caches: same shared instance for the same ref.
  EXPECT_EQ(pool->Resolve(ref).ValueOrDie().get(), dict.get());

  // A second Acquire is a shared hit, not a second file.
  EXPECT_EQ(pool->Acquire(labels).ValueOrDie().hash, ref.hash);
  EXPECT_EQ(pool->stats().writes, 1u);
  EXPECT_EQ(pool->stats().shared_hits, 1u);
  ASSERT_TRUE(RemoveDirectory(dir).ok());
}

TEST(DictPoolTest, PrefixOfPooledDictionaryIsAHit) {
  const std::string dir = UniqueDir("prefix");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  auto pool = DictPool::Open(dir).ValueOrDie();

  const std::vector<std::string> longer = {"a", "b", "c", "d", "e"};
  const std::vector<std::string> shorter = {"a", "b", "c"};
  const DictRef big = pool->Acquire(longer).ValueOrDie();
  // The shorter dictionary is a prefix of the pooled one: same file,
  // smaller size — the append-workload sharing shape.
  const DictRef small = pool->Acquire(shorter).ValueOrDie();
  EXPECT_EQ(small.hash, big.hash);
  EXPECT_EQ(small.size, 3u);
  EXPECT_EQ(pool->stats().writes, 1u);

  auto dict = pool->Resolve(small).ValueOrDie();
  EXPECT_EQ(dict->labels, shorter);
  ASSERT_TRUE(RemoveDirectory(dir).ok());
}

TEST(DictPoolTest, LongerDictionaryMergesOverShorter) {
  const std::string dir = UniqueDir("merge");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  auto pool = DictPool::Open(dir).ValueOrDie();

  const std::vector<std::string> shorter = {"a", "b", "c"};
  const std::vector<std::string> longer = {"a", "b", "c", "d", "e"};
  const DictRef small = pool->Acquire(shorter).ValueOrDie();
  const DictRef big = pool->Acquire(longer).ValueOrDie();
  EXPECT_NE(small.hash, big.hash);  // written before the merge existed

  // After the longer dictionary lands, the shorter one resolves to a
  // prefix of the MERGED file — the old file can age out via GC.
  const DictRef again = pool->Acquire(shorter).ValueOrDie();
  EXPECT_EQ(again.hash, big.hash);
  EXPECT_EQ(again.size, 3u);

  pool->SweepUnreferenced({big.hash});
  EXPECT_EQ(pool->stats().dict_files, 1u);
  EXPECT_TRUE(pool->Resolve(small).status().IsNotFound());
  EXPECT_TRUE(pool->Resolve(big).ok());
  ASSERT_TRUE(RemoveDirectory(dir).ok());
}

TEST(DictPoolTest, SweepKeepsLiveAndPinned) {
  const std::string dir = UniqueDir("sweep");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  auto pool = DictPool::Open(dir).ValueOrDie();

  const DictRef live = pool->Acquire({"live1", "live2"}).ValueOrDie();
  const DictRef pinned = pool->Acquire({"pinned1"}).ValueOrDie();
  const DictRef orphan = pool->Acquire({"orphan1"}).ValueOrDie();

  {
    ScopedDictPins pins(pool.get());
    pins.Add(pinned.hash);
    pool->SweepUnreferenced({live.hash});
    // Live and pinned survive; the orphan is gone, file included.
    EXPECT_TRUE(pool->Resolve(live).ok());
    EXPECT_TRUE(pool->Resolve(pinned).ok());
    EXPECT_TRUE(pool->Resolve(orphan).status().IsNotFound());
    EXPECT_TRUE(PathExists(pool->DictPath(live.hash)));
    EXPECT_TRUE(PathExists(pool->DictPath(pinned.hash)));
    EXPECT_FALSE(PathExists(pool->DictPath(orphan.hash)));
  }
  // Pins released: the next sweep may collect the formerly pinned dict.
  pool->SweepUnreferenced({live.hash});
  EXPECT_TRUE(pool->Resolve(pinned).status().IsNotFound());
  EXPECT_TRUE(pool->Resolve(live).ok());
  ASSERT_TRUE(RemoveDirectory(dir).ok());
}

TEST(DictPoolTest, ReopenReindexesAndSkipsCorruptFiles) {
  const std::string dir = UniqueDir("reopen");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  DictRef good;
  std::string corrupt_path;
  {
    auto pool = DictPool::Open(dir).ValueOrDie();
    good = pool->Acquire({"alpha", "beta"}).ValueOrDie();
    const DictRef victim = pool->Acquire({"victim"}).ValueOrDie();
    corrupt_path = pool->DictPath(victim.hash);
  }
  {
    // Damage one pool file on disk.
    std::ofstream out(corrupt_path, std::ios::binary | std::ios::trunc);
    out << "ZIGDIC01 but the rest is garbage";
  }
  auto pool = DictPool::Open(dir).ValueOrDie();
  // The intact dictionary is indexed and a shared hit again...
  EXPECT_EQ(pool->Acquire({"alpha", "beta"}).ValueOrDie().hash, good.hash);
  EXPECT_EQ(pool->stats().shared_hits, 1u);
  EXPECT_EQ(pool->stats().dict_files, 1u);  // the corrupt one was skipped
  ASSERT_TRUE(RemoveDirectory(dir).ok());
}

TEST(DictPoolTest, RefusesEmptyDictionariesAndLabels) {
  const std::string dir = UniqueDir("invalid");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  auto pool = DictPool::Open(dir).ValueOrDie();
  EXPECT_FALSE(pool->Acquire({}).ok());
  EXPECT_FALSE(pool->Acquire({"ok", ""}).ok());
  ASSERT_TRUE(RemoveDirectory(dir).ok());
}

// --------------------------------------------------- store integration ----

class CompressedStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = UniqueDir("store");
    store_ = ZiggyStore::Open(dir_).ValueOrDie();
    ds_ = MakeBoxOfficeDataset(7, /*value_decimals=*/3).ValueOrDie();
    profile_ = TableProfile::Compute(ds_.table).ValueOrDie();
  }

  void TearDown() override {
    store_.reset();
    ASSERT_TRUE(RemoveDirectory(dir_).ok());
  }

  void ExpectTablesBitIdentical(const Table& a, const Table& b) {
    ASSERT_EQ(a.schema(), b.schema());
    ASSERT_EQ(a.num_rows(), b.num_rows());
    for (size_t c = 0; c < a.num_columns(); ++c) {
      if (a.column(c).is_numeric()) {
        const auto& va = a.column(c).numeric_data();
        const auto& vb = b.column(c).numeric_data();
        ASSERT_EQ(va.size(), vb.size());
        EXPECT_EQ(std::memcmp(va.data(), vb.data(), va.size() * sizeof(double)),
                  0)
            << "column " << a.column(c).name();
      } else {
        EXPECT_EQ(a.column(c).dictionary(), b.column(c).dictionary());
        EXPECT_EQ(a.column(c).codes(), b.column(c).codes());
      }
    }
  }

  std::string dir_;
  std::unique_ptr<ZiggyStore> store_;
  SyntheticDataset ds_;
  TableProfile profile_;
};

TEST_F(CompressedStoreTest, CompressedCheckpointRoundTripsAcrossReopen) {
  ASSERT_TRUE(store_->SaveTable("box", ds_.table, 0, profile_).ok());
  const StoreStats stats = store_->stats();
  EXPECT_GT(stats.checkpoint_raw_bytes, 0u);
  EXPECT_LT(stats.checkpoint_bytes, stats.checkpoint_raw_bytes);
  EXPECT_GT(stats.dict_pool_files, 0u);

  // Cold reopen: a fresh process must reindex the pool and resolve the
  // manifest's dictionary refs.
  store_.reset();
  store_ = ZiggyStore::Open(dir_).ValueOrDie();
  StoredTable loaded = store_->LoadTable("box").ValueOrDie();
  ExpectTablesBitIdentical(ds_.table, loaded.table);
}

TEST_F(CompressedStoreTest, TwoTablesShareOnePoolFile) {
  ASSERT_TRUE(store_->SaveTable("one", ds_.table, 0, profile_).ok());
  const size_t files_after_first = CountPoolFiles(dir_);
  ASSERT_GT(files_after_first, 0u);
  ASSERT_TRUE(store_->SaveTable("two", ds_.table, 0, profile_).ok());
  // Identical dictionaries: the second save reuses every pool file.
  EXPECT_EQ(CountPoolFiles(dir_), files_after_first);
  EXPECT_GT(store_->stats().dict_pool_shared_hits, 0u);

  // Removing ONE table must not strand the other: the dictionary is
  // still referenced by a live manifest entry.
  ASSERT_TRUE(store_->RemoveTable("one").ok());
  EXPECT_EQ(CountPoolFiles(dir_), files_after_first);
  StoredTable survivor = store_->LoadTable("two").ValueOrDie();
  ExpectTablesBitIdentical(ds_.table, survivor.table);

  // ... including across a cold reopen.
  store_.reset();
  store_ = ZiggyStore::Open(dir_).ValueOrDie();
  ExpectTablesBitIdentical(ds_.table,
                           store_->LoadTable("two").ValueOrDie().table);

  // Removing the LAST referencing table sweeps the pool files.
  ASSERT_TRUE(store_->RemoveTable("two").ok());
  EXPECT_EQ(CountPoolFiles(dir_), 0u);
}

TEST_F(CompressedStoreTest, MissingPoolFileFailsLoadCleanly) {
  ASSERT_TRUE(store_->SaveTable("box", ds_.table, 0, profile_).ok());
  // Destroy the dicts directory behind the store's back, then cold-open.
  store_.reset();
  ASSERT_TRUE(RemoveDirectory(JoinPath(dir_, "dicts")).ok());
  store_ = ZiggyStore::Open(dir_).ValueOrDie();
  Result<StoredTable> loaded = store_->LoadTable("box");
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsNotFound()) << loaded.status();
}

TEST_F(CompressedStoreTest, DeltaChainOnCompressedBaseReplays) {
  ASSERT_TRUE(
      store_->SaveTable("box", ds_.table, 0, profile_, /*lineage=*/77)
          .ok());
  SyntheticDataset tail = MakeBoxOfficeDataset(19, /*value_decimals=*/3)
                              .ValueOrDie();
  const Table live = ds_.table.WithAppendedRows(tail.table).ValueOrDie();
  TableProfile live_profile = TableProfile::Compute(live).ValueOrDie();
  ASSERT_TRUE(
      store_->SaveTable("box", live, 1, live_profile, /*lineage=*/77)
          .ok());
  EXPECT_EQ(store_->stats().delta_checkpoints, 1u);

  store_.reset();
  store_ = ZiggyStore::Open(dir_).ValueOrDie();
  StoredTable loaded = store_->LoadTable("box").ValueOrDie();
  ExpectTablesBitIdentical(live, loaded.table);
}

}  // namespace
}  // namespace ziggy
