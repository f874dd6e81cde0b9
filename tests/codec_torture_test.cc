// Torture-tests every on-disk format through the shared harness
// (tests/codec_torture.h): ZIGTBL01/ZIGTBL02 tables (the v2 both with
// inline and pooled dictionaries), ZIGDLT01/ZIGDLT02 delta segments,
// ZIGPROF3/ZIGPROF4 profiles, and ZIGDIC01 pooled dictionary files. The
// v1 and ZIGPROF3 images come from the reference encoders in
// legacy_formats.h (those formats are read-only in the shipping code). Each format first proves the unmutated image
// round-trips (so a codec that rejects everything cannot pass), then
// survives every-offset truncation, exhaustive bit flips, and random
// splices with a clean rejection each time.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "codec_torture.h"
#include "data/synthetic.h"
#include "legacy_formats.h"
#include "persist/dict_pool.h"
#include "persist/fs_util.h"
#include "storage/table_io.h"
#include "zig/profile.h"

namespace ziggy {
namespace {

Table MakeMixedTable() {
  std::vector<Column> columns;
  columns.push_back(Column::FromNumeric(
      "num", {1.5, -2.25, NullNumeric(), 0.0, 1e300, -0.0}));
  columns.push_back(
      Column::FromStrings("cat", {"red", "", "blue", "red", "green", "blue"}));
  columns.push_back(Column::FromNumeric(
      "num2", {0.1, 0.2, 0.3, 0.4, 0.5, std::nextafter(1.0, 2.0)}));
  return Table::FromColumns(std::move(columns)).ValueOrDie();
}

std::string SerializeTable(const Table& table, const TableWriteOptions& opts) {
  std::ostringstream out(std::ios::binary);
  EXPECT_TRUE(WriteTable(table, &out, opts).ok());
  return out.str();
}

Result<Table> ParseTable(const std::string& bytes,
                         const TableReadOptions& opts = {}) {
  std::istringstream in(bytes, std::ios::binary);
  return ReadTable(&in, opts);
}

// ------------------------------------------------------------ tables ----

TEST(CodecTortureTest, TableV1) {
  const Table table = MakeMixedTable();
  const std::string image = legacy::TableV1(table);
  ASSERT_TRUE(ParseTable(image).ok());
  torture::TortureImage("ZIGTBL01", image, [](const std::string& bytes) {
    return !ParseTable(bytes).ok();
  });
}

TEST(CodecTortureTest, TableV2Inline) {
  const Table table = MakeMixedTable();
  const std::string image = SerializeTable(table, {});
  ASSERT_TRUE(ParseTable(image).ok());
  torture::TortureImage("ZIGTBL02/inline", image, [](const std::string& bytes) {
    return !ParseTable(bytes).ok();
  });
}

TEST(CodecTortureTest, TableV2ExternalDict) {
  const std::string dir =
      testing::TempDir() + "/ziggy_codec_torture_extdict";
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  auto pool = DictPool::Open(dir).ValueOrDie();

  const Table table = MakeMixedTable();
  TableWriteOptions write;
  const DictRef ref = pool->Acquire(table.column(1).dictionary()).ValueOrDie();
  write.external_dicts[1] = ref;
  const std::string image = SerializeTable(table, write);

  TableReadOptions read;
  DictPool* raw_pool = pool.get();
  read.resolve_dict = [raw_pool](const DictRef& r) {
    return raw_pool->Resolve(r);
  };
  ASSERT_TRUE(ParseTable(image, read).ok());
  // Without a resolver the external reference must fail cleanly, not
  // crash or fall back to a wrong dictionary.
  EXPECT_FALSE(ParseTable(image).ok());

  torture::TortureImage(
      "ZIGTBL02/external-dict", image,
      [&read](const std::string& bytes) { return !ParseTable(bytes, read).ok(); });
  ASSERT_TRUE(RemoveDirectory(dir).ok());
}

TEST(CodecTortureTest, TableV2LargeSampled) {
  // A synthetic fixture exercises wide numeric payloads and a real
  // dictionary through the compressed codecs; the harness strides.
  SyntheticDataset ds = MakeBoxOfficeDataset(7, /*value_decimals=*/3)
                            .ValueOrDie();
  const std::string image = SerializeTable(ds.table, {});
  ASSERT_TRUE(ParseTable(image).ok());
  torture::TortureImage("ZIGTBL02/large", image, [](const std::string& bytes) {
    return !ParseTable(bytes).ok();
  });
}

// ----------------------------------------------------- delta segments ----

Table MakeAppendTail() {
  std::vector<Column> columns;
  columns.push_back(Column::FromNumeric("num", {9.75, NullNumeric(), -3.5}));
  columns.push_back(Column::FromStrings("cat", {"violet", "red", ""}));
  columns.push_back(Column::FromNumeric("num2", {0.6, -0.0, 7e-200}));
  return Table::FromColumns(std::move(columns)).ValueOrDie();
}

std::vector<size_t> DictSizesOf(const Table& table) {
  std::vector<size_t> sizes(table.num_columns(), 0);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (table.column(c).is_categorical()) {
      sizes[c] = table.column(c).dictionary().size();
    }
  }
  return sizes;
}

void TortureDelta(const char* label, bool legacy_v1) {
  const Table base = MakeMixedTable();
  const Table live = base.WithAppendedRows(MakeAppendTail()).ValueOrDie();
  std::string image;
  if (legacy_v1) {
    image = legacy::DeltaV1(live, base.num_rows(), DictSizesOf(base));
  } else {
    std::ostringstream out(std::ios::binary);
    ASSERT_TRUE(
        WriteTableDelta(live, base.num_rows(), DictSizesOf(base), &out).ok());
    image = out.str();
  }

  auto apply = [&base](const std::string& bytes) {
    std::istringstream in(bytes, std::ios::binary);
    return ApplyTableDelta(base, &in);
  };
  ASSERT_TRUE(apply(image).ok());
  torture::TortureImage(label, image, [&apply](const std::string& bytes) {
    return !apply(bytes).ok();
  });
}

TEST(CodecTortureTest, DeltaV1) { TortureDelta("ZIGDLT01", true); }
TEST(CodecTortureTest, DeltaV2) { TortureDelta("ZIGDLT02", false); }

// ------------------------------------------------- pooled dictionaries ----

TEST(CodecTortureTest, PooledDictionary) {
  const std::vector<std::string> labels = {"alpha", "beta", "gamma", "delta",
                                           "epsilon"};
  const uint64_t hash = DictPool::ChainHash(labels);
  const std::string image = DictPool::SerializeDict(labels).ValueOrDie();
  ASSERT_TRUE(DictPool::ParseDict(image, hash).ok());
  torture::TortureImage("ZIGDIC01", image, [hash](const std::string& bytes) {
    return !DictPool::ParseDict(bytes, hash).ok();
  });
}

// ----------------------------------------------------------- profiles ----

Result<TableProfile> ParseProfile(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  return TableProfile::Deserialize(&in);
}

// The format-3 image (legacy_formats.h), which has no row count.
TEST(CodecTortureTest, ProfileV3) {
  const TableProfile profile =
      TableProfile::Compute(MakeMixedTable()).ValueOrDie();
  const std::string image = legacy::ProfileV3(profile);
  {
    Result<TableProfile> ok = ParseProfile(image);
    ASSERT_TRUE(ok.ok()) << ok.status();
    ASSERT_TRUE(ok->Equals(profile));
  }
  torture::TortureImage("ZIGPROF3", image, [](const std::string& bytes) {
    return !ParseProfile(bytes).ok();
  });
}

TEST(CodecTortureTest, ProfileV4) {
  const TableProfile profile =
      TableProfile::Compute(MakeMixedTable()).ValueOrDie();
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(profile.Serialize(&out).ok());
  const std::string image = out.str();
  {
    Result<TableProfile> ok = ParseProfile(image);
    ASSERT_TRUE(ok.ok()) << ok.status();
    ASSERT_TRUE(ok->Equals(profile));
  }
  torture::TortureImage("ZIGPROF4", image, [](const std::string& bytes) {
    return !ParseProfile(bytes).ok();
  });
}

}  // namespace
}  // namespace ziggy
