// The binary columnar table codec (storage/table_io.h): exact round
// trips — including NaN NULLs bit-for-bit and dictionary order verbatim —
// and the corruption guarantees the store's durability rests on: any
// truncation, bit flip, or wrong magic yields a clean Status, never a
// crash or a silently different table. The shipped writer emits v2; the
// read-only v1 decoders are checked against the reference encoders in
// legacy_formats.h.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>

#include "common/binary_io.h"
#include "common/checksum.h"
#include "common/random.h"
#include "data/synthetic.h"
#include "legacy_formats.h"
#include "storage/csv.h"
#include "storage/table_io.h"

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

std::string SerializeToString(const Table& table) {
  std::ostringstream out(std::ios::binary);
  EXPECT_TRUE(WriteTable(table, &out).ok());
  return out.str();
}

Result<Table> DeserializeFromString(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  return ReadTable(&in);
}

/// Bitwise equality: schema, numeric payloads (NaN included), dictionary
/// order, and codes must all survive verbatim.
void ExpectTablesBitIdentical(const Table& a, const Table& b) {
  ASSERT_EQ(a.schema(), b.schema());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const Column& ca = a.column(c);
    const Column& cb = b.column(c);
    if (ca.is_numeric()) {
      const auto& va = ca.numeric_data();
      const auto& vb = cb.numeric_data();
      ASSERT_EQ(va.size(), vb.size());
      if (!va.empty()) {
        EXPECT_EQ(std::memcmp(va.data(), vb.data(), sizeof(double) * va.size()),
                  0)
            << "numeric payload of column " << ca.name() << " differs";
      }
    } else {
      EXPECT_EQ(ca.dictionary(), cb.dictionary());
      EXPECT_EQ(ca.codes(), cb.codes());
    }
  }
}

// ------------------------------------------------ v1 (read-only) ----

TEST(TableIoTest, MixedTableRoundTripsBitIdentical) {
  const Table original = MakeMixedTable();
  const std::string bytes = legacy::TableV1(original);
  Result<Table> restored = DeserializeFromString(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ExpectTablesBitIdentical(original, *restored);
}

TEST(TableIoTest, SyntheticDatasetRoundTripsBitIdentical) {
  SyntheticDataset ds = MakeBoxOfficeDataset(7).ValueOrDie();
  const std::string bytes = legacy::TableV1(ds.table);
  Result<Table> restored = DeserializeFromString(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ExpectTablesBitIdentical(ds.table, *restored);
}

TEST(TableIoTest, ReserializingRestoredTableIsByteIdentical) {
  SyntheticDataset ds = MakeBoxOfficeDataset(7).ValueOrDie();
  const std::string bytes = legacy::TableV1(ds.table);
  Table restored = DeserializeFromString(bytes).ValueOrDie();
  EXPECT_EQ(legacy::TableV1(restored), bytes);
  // The shipped (v2) writer is deterministic too.
  const std::string v2 = SerializeToString(ds.table);
  EXPECT_EQ(SerializeToString(DeserializeFromString(v2).ValueOrDie()), v2);
}

TEST(TableIoTest, FilteredTableKeepsFullDictionary) {
  // Filter drops rows but keeps the dictionary: the codec must accept
  // dictionaries larger than the row count.
  SyntheticDataset ds = MakeBoxOfficeDataset(7).ValueOrDie();
  Selection few(ds.table.num_rows());
  few.Set(0);
  few.Set(1);
  const Table filtered = ds.table.Filter(few);
  for (const std::string& bytes :
       {legacy::TableV1(filtered), SerializeToString(filtered)}) {
    Result<Table> restored = DeserializeFromString(bytes);
    ASSERT_TRUE(restored.ok()) << restored.status();
    ExpectTablesBitIdentical(filtered, *restored);
  }
}

TEST(TableIoTest, FileRoundTrip) {
  const Table original = MakeMixedTable();
  const std::string path = testing::TempDir() + "/ziggy_table_io_test.ztbl";
  ASSERT_TRUE(WriteTableFile(original, path).ok());
  Result<Table> restored = ReadTableFile(path);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ExpectTablesBitIdentical(original, *restored);
  std::remove(path.c_str());
}

TEST(TableIoTest, MissingFileIsIOError) {
  EXPECT_TRUE(ReadTableFile("/nonexistent/dir/t.ztbl").status().IsIOError());
}

// ---------------------------------------------------------- corruption ----

TEST(TableIoTest, WrongMagicRejected) {
  std::string bytes = legacy::TableV1(MakeMixedTable());
  bytes[0] = 'X';
  EXPECT_TRUE(DeserializeFromString(bytes).status().IsParseError());
  EXPECT_FALSE(DeserializeFromString("short").ok());
  EXPECT_FALSE(DeserializeFromString("ZIGPROF2-not-a-table").ok());
}

// Truncation / bit-flip / splice corruption of full images and deltas is
// covered exhaustively — for BOTH format versions — by the shared
// torture harness in codec_torture_test.cc.

TEST(TableIoTest, TrailingGarbageAfterValidImageIsIgnored) {
  // The codec reads exactly its own sections; bytes past the last column
  // are another file's business (concatenated store streams).
  const Table original = MakeMixedTable();
  std::string bytes = legacy::TableV1(original);
  bytes += "trailing-garbage";
  Result<Table> restored = DeserializeFromString(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ExpectTablesBitIdentical(original, *restored);
}

// --------------------------------------------------- compressed (v2) ----

TEST(TableIoV2Test, CompressedRoundTripsBitIdentical) {
  const Table original = MakeMixedTable();
  const std::string bytes = SerializeToString(original);
  EXPECT_EQ(bytes.compare(0, 8, kTableMagicV2, 8), 0);
  Result<Table> restored = DeserializeFromString(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ExpectTablesBitIdentical(original, *restored);
}

TEST(TableIoV2Test, SyntheticDatasetRoundTripsBitIdentical) {
  // Full-precision draws (the worst case for every codec: raw/lz only).
  SyntheticDataset ds = MakeBoxOfficeDataset(7).ValueOrDie();
  Result<Table> restored = DeserializeFromString(SerializeToString(ds.table));
  ASSERT_TRUE(restored.ok()) << restored.status();
  ExpectTablesBitIdentical(ds.table, *restored);
}

TEST(TableIoV2Test, QuantizedDatasetCompressesAndRoundTrips) {
  // Fixed-precision values (real data's shape) must engage the integer
  // codecs: a measurable win over v1, and still bit-for-bit on restore.
  SyntheticDataset ds =
      MakeCrimeDataset(11, /*value_decimals=*/3).ValueOrDie();
  const std::string v1 = legacy::TableV1(ds.table);
  const std::string v2 = SerializeToString(ds.table);
  EXPECT_LT(v2.size() * 2, v1.size())
      << "compressed image is not at least 2x smaller: " << v2.size()
      << " vs " << v1.size();
  Result<Table> restored = DeserializeFromString(v2);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ExpectTablesBitIdentical(ds.table, *restored);
  // And the uncompressed re-serialization of the restored table matches
  // the original's exactly — compression is invisible downstream.
  EXPECT_EQ(legacy::TableV1(*restored), v1);
}

TEST(TableIoV2Test, UncompressedByteSizeFormulaIsExact) {
  for (const Table& table :
       {MakeMixedTable(), MakeBoxOfficeDataset(7).ValueOrDie().table}) {
    EXPECT_EQ(UncompressedTableBytes(table), legacy::TableV1(table).size());
  }
}

// ------------------------------------------------------ delta segments ----

/// The live append the delta codec snapshots: base + tail through
/// WithAppendedRows (the serving layer's generation builder).
Table MakeAppendTail() {
  std::vector<Column> columns;
  columns.push_back(Column::FromNumeric(
      "num", {9.75, NullNumeric(), -3.5}));
  // Mix of base-dictionary labels, NEW labels, and a NULL.
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

std::string SerializeDeltaToString(const Table& table, size_t base_rows,
                                   const std::vector<size_t>& dict_sizes) {
  std::ostringstream out(std::ios::binary);
  EXPECT_TRUE(WriteTableDelta(table, base_rows, dict_sizes, &out).ok());
  return out.str();
}

Result<Table> ApplyDeltaFromString(const Table& base,
                                   const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  return ApplyTableDelta(base, &in);
}

TEST(TableDeltaTest, ReplayReproducesLiveAppendBitIdentical) {
  // A v1 segment, as older releases wrote it.
  const Table base = MakeMixedTable();
  const Table live =
      base.WithAppendedRows(MakeAppendTail()).ValueOrDie();
  const std::string delta =
      legacy::DeltaV1(live, base.num_rows(), DictSizesOf(base));
  Result<Table> replayed = ApplyDeltaFromString(base, delta);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  ExpectTablesBitIdentical(live, *replayed);
  // The strongest form: the replayed table re-serializes (full codec)
  // byte-identically to the live one — dictionary order, codes, NaNs.
  EXPECT_EQ(SerializeToString(*replayed), SerializeToString(live));
}

TEST(TableDeltaTest, DeltaBytesScaleWithTailNotTable) {
  SyntheticDataset ds = MakeBoxOfficeDataset(7).ValueOrDie();
  SyntheticDataset tail = MakeBoxOfficeDataset(19).ValueOrDie();
  const Table live = ds.table.WithAppendedRows(tail.table).ValueOrDie();
  const std::string full = SerializeToString(live);
  const std::string delta = SerializeDeltaToString(
      live, ds.table.num_rows(), DictSizesOf(ds.table));
  // 900 base + 900 tail rows: the delta must be roughly half the full
  // image, and a small-tail delta must be far smaller still.
  EXPECT_LT(delta.size(), full.size());
  Selection two(tail.table.num_rows());
  two.Set(0);
  two.Set(1);
  const Table small_live =
      ds.table.WithAppendedRows(tail.table.Filter(two)).ValueOrDie();
  const std::string small_delta = SerializeDeltaToString(
      small_live, ds.table.num_rows(), DictSizesOf(ds.table));
  EXPECT_LT(small_delta.size() * 10, full.size());
  Result<Table> replayed = ApplyDeltaFromString(ds.table, small_delta);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  ExpectTablesBitIdentical(small_live, *replayed);
}

TEST(TableDeltaTest, ChainOfSegmentsReplaysExactly) {
  SyntheticDataset ds = MakeBoxOfficeDataset(7).ValueOrDie();
  Table live = ds.table;
  Table replayed = ds.table;
  for (uint64_t seed : {19u, 23u, 29u}) {
    const Table base = live;
    SyntheticDataset tail = MakeBoxOfficeDataset(seed).ValueOrDie();
    live = base.WithAppendedRows(tail.table).ValueOrDie();
    const std::string delta =
        SerializeDeltaToString(live, base.num_rows(), DictSizesOf(base));
    Result<Table> next = ApplyDeltaFromString(replayed, delta);
    ASSERT_TRUE(next.ok()) << next.status();
    replayed = std::move(*next);
  }
  ExpectTablesBitIdentical(live, replayed);
  EXPECT_EQ(SerializeToString(replayed), SerializeToString(live));
}

TEST(TableDeltaTest, EmptyTailRoundTrips) {
  const Table base = MakeMixedTable();
  const std::string delta =
      SerializeDeltaToString(base, base.num_rows(), DictSizesOf(base));
  Result<Table> replayed = ApplyDeltaFromString(base, delta);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  ExpectTablesBitIdentical(base, *replayed);
}

TEST(TableDeltaTest, RejectsMismatchedBase) {
  const Table base = MakeMixedTable();
  const Table live = base.WithAppendedRows(MakeAppendTail()).ValueOrDie();
  const std::string delta =
      SerializeDeltaToString(live, base.num_rows(), DictSizesOf(base));

  // Wrong base row count: applying to the live table instead of the base.
  EXPECT_TRUE(ApplyDeltaFromString(live, delta).status().IsParseError());

  // Wrong schema: a base with a renamed column.
  std::vector<Column> renamed;
  renamed.push_back(Column::FromNumeric(
      "other", base.column(0).numeric_data()));
  renamed.push_back(base.column(1));
  renamed.push_back(base.column(2));
  const Table wrong_schema =
      Table::FromColumns(std::move(renamed)).ValueOrDie();
  EXPECT_TRUE(
      ApplyDeltaFromString(wrong_schema, delta).status().IsParseError());

  // Wrong dictionary prefix size: a base whose categorical column grew.
  Column grown = base.column(1);
  (void)grown.InternLabel("violet");
  std::vector<Column> grown_columns;
  grown_columns.push_back(base.column(0));
  grown_columns.push_back(std::move(grown));
  grown_columns.push_back(base.column(2));
  const Table wrong_dict =
      Table::FromColumns(std::move(grown_columns)).ValueOrDie();
  EXPECT_TRUE(
      ApplyDeltaFromString(wrong_dict, delta).status().IsParseError());
}

TEST(TableDeltaTest, WrongMagicRejected) {
  const Table base = MakeMixedTable();
  const Table live = base.WithAppendedRows(MakeAppendTail()).ValueOrDie();
  std::string delta =
      SerializeDeltaToString(live, base.num_rows(), DictSizesOf(base));
  delta[3] = 'X';
  EXPECT_TRUE(ApplyDeltaFromString(base, delta).status().IsParseError());
  // A full-table image is not a delta.
  EXPECT_FALSE(ApplyDeltaFromString(base, SerializeToString(live)).ok());
}

TEST(TableDeltaTest, CompressedDeltaReplaysBitIdentical) {
  const Table base = MakeMixedTable();
  const Table live = base.WithAppendedRows(MakeAppendTail()).ValueOrDie();
  const std::string delta =
      SerializeDeltaToString(live, base.num_rows(), DictSizesOf(base));
  EXPECT_EQ(delta.compare(0, 8, kTableDeltaMagicV2, 8), 0);
  Result<Table> replayed = ApplyDeltaFromString(base, delta);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  ExpectTablesBitIdentical(live, *replayed);
  EXPECT_EQ(SerializeToString(*replayed), SerializeToString(live));
}

TEST(TableDeltaTest, UncompressedDeltaByteSizeFormulaIsExact) {
  const Table base = MakeMixedTable();
  const Table live = base.WithAppendedRows(MakeAppendTail()).ValueOrDie();
  const std::string delta =
      legacy::DeltaV1(live, base.num_rows(), DictSizesOf(base));
  EXPECT_EQ(UncompressedDeltaBytes(live, base.num_rows(), DictSizesOf(base)),
            delta.size());
}

TEST(TableDeltaTest, FileRoundTripAndMissingFile) {
  const Table base = MakeMixedTable();
  const Table live = base.WithAppendedRows(MakeAppendTail()).ValueOrDie();
  const std::string path = testing::TempDir() + "/ziggy_table_io_test.zdlt";
  ASSERT_TRUE(
      WriteTableDeltaFile(live, base.num_rows(), DictSizesOf(base), path)
          .ok());
  Result<Table> replayed = ApplyTableDeltaFile(base, path);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  ExpectTablesBitIdentical(live, *replayed);
  std::remove(path.c_str());
  EXPECT_TRUE(ApplyTableDeltaFile(base, path).status().IsIOError());
}

// ------------------------------------------------------- binary_io unit ----

TEST(BinaryIoTest, SectionRoundTripAndCorruption) {
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(WriteSection(&out, "hello world").ok());
  ASSERT_TRUE(WriteSection(&out, "").ok());
  const std::string image = out.str();

  std::istringstream in(image, std::ios::binary);
  Result<std::string> first = ReadSection(&in, kMaxSectionBytes);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, "hello world");
  Result<std::string> second = ReadSection(&in, kMaxSectionBytes);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, "");

  // A payload flip fails the CRC.
  std::string corrupt = image;
  corrupt[sizeof(uint64_t) + 1] ^= 0x01;
  std::istringstream bad(corrupt, std::ios::binary);
  EXPECT_TRUE(ReadSection(&bad, kMaxSectionBytes).status().IsParseError());

  // An over-limit length prefix is rejected before allocation.
  std::string huge;
  PutU64(&huge, uint64_t{1} << 40);
  huge += "payload";
  std::istringstream oversized(huge, std::ios::binary);
  EXPECT_FALSE(ReadSection(&oversized, kMaxSectionBytes).ok());
}

TEST(BinaryIoTest, ByteReaderNeverReadsPastEnd) {
  std::string payload;
  PutU64(&payload, 42);
  ByteReader reader(payload);
  EXPECT_TRUE(reader.ReadU64().ok());
  EXPECT_FALSE(reader.ReadU8().ok());
  EXPECT_FALSE(reader.ReadBytes(1).ok());

  ByteReader lying(payload);
  // A length prefix larger than the remaining bytes must fail cleanly.
  EXPECT_FALSE(lying.ReadLengthPrefixed(1u << 20).ok());
}

TEST(ChecksumTest, KnownVectorsAndChaining) {
  // The zlib/PNG CRC-32 of "123456789".
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  // Chaining discontiguous spans equals one contiguous pass.
  const uint32_t chained = Crc32("6789", Crc32("12345"));
  EXPECT_EQ(chained, Crc32("123456789"));
}

// Byte-at-a-time reference CRC-32 (reflected 0xEDB88320), bit by bit, so
// it shares nothing with the table-driven implementation.
uint32_t ReferenceCrc32(const unsigned char* data, size_t size, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return ~crc;
}

std::string RandomBytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::string bytes(size, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.UniformInt(0, 255));
  return bytes;
}

TEST(ChecksumTest, MatchesBytewiseReferenceAtEveryLength) {
  const std::string bytes = RandomBytes(64, 101);
  const auto* raw = reinterpret_cast<const unsigned char*>(bytes.data());
  // Every length 0..17 covers the empty input, tails alone, one 8-byte
  // step with every tail, and two steps; offsets shift the alignment.
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 17; ++len) {
      EXPECT_EQ(Crc32Bytes(raw + offset, len),
                ReferenceCrc32(raw + offset, len, 0))
          << "offset " << offset << " length " << len;
    }
  }
  const std::string mib = RandomBytes(1 << 20, 202);
  EXPECT_EQ(Crc32(mib),
            ReferenceCrc32(reinterpret_cast<const unsigned char*>(mib.data()),
                           mib.size(), 0));
}

TEST(ChecksumTest, ChainingSplitAtEveryOffset) {
  const std::string bytes = RandomBytes(17, 303);
  const uint32_t whole = Crc32(bytes);
  const std::string_view view(bytes);
  for (size_t split = 0; split <= bytes.size(); ++split) {
    EXPECT_EQ(Crc32(view.substr(split), Crc32(view.substr(0, split))), whole)
        << "split at " << split;
  }
  // A non-zero seed chains onto the reference the same way.
  const auto* raw = reinterpret_cast<const unsigned char*>(bytes.data());
  EXPECT_EQ(Crc32(bytes, 0x12345678u),
            ReferenceCrc32(raw, bytes.size(), 0x12345678u));
}

}  // namespace
}  // namespace ziggy
