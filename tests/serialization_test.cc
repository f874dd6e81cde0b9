// Tests for TableProfile serialization (zig/profile_io.cc) and the JSON
// rendering of characterizations (engine/json.h).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/checksum.h"
#include "data/synthetic.h"
#include "engine/json.h"
#include "engine/ziggy_engine.h"
#include "legacy_formats.h"
#include "zig/component_builder.h"
#include "zig/profile.h"

namespace ziggy {
namespace {

// ------------------------------------------------------- profile round trip --

TEST(ProfileSerializationTest, StreamRoundTripIsExact) {
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  TableProfile original = TableProfile::Compute(ds.table).ValueOrDie();
  std::stringstream buf;
  ASSERT_TRUE(original.Serialize(&buf).ok());
  TableProfile restored = TableProfile::Deserialize(&buf).ValueOrDie();
  EXPECT_TRUE(original.Equals(restored));
  EXPECT_EQ(restored.num_columns(), original.num_columns());
  EXPECT_EQ(restored.tracked_numeric_pairs(), original.tracked_numeric_pairs());
}

TEST(ProfileSerializationTest, RoundTripPreservesRanks) {
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  TableProfile original = TableProfile::Compute(ds.table).ValueOrDie();
  std::stringstream buf;
  ASSERT_TRUE(original.Serialize(&buf).ok());
  EXPECT_EQ(buf.str().substr(0, 8), "ZIGPROF4");
  TableProfile restored = TableProfile::Deserialize(&buf).ValueOrDie();
  size_t ranked = 0;
  for (size_t c = 0; c < original.num_columns(); ++c) {
    EXPECT_EQ(restored.Rank2(c), original.Rank2(c)) << "column " << c;
    if (!original.Rank2(c).empty()) {
      EXPECT_EQ(original.Rank2(c).size(), ds.table.num_rows());
      ++ranked;
    }
  }
  EXPECT_GT(ranked, 0u);
}

TEST(ProfileSerializationTest, ChecksumCatchesFlippedBit) {
  // A flipped bit in a statistics payload still parses structurally;
  // only the CRC trailer tells it apart from the real profile.
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  TableProfile original = TableProfile::Compute(ds.table).ValueOrDie();
  std::stringstream buf;
  ASSERT_TRUE(original.Serialize(&buf).ok());
  std::string bytes = buf.str();
  bytes[bytes.size() / 2] ^= 0x10;
  std::stringstream flipped(bytes);
  Status st = TableProfile::Deserialize(&flipped).status();
  EXPECT_TRUE(st.IsParseError()) << st;
}

TEST(ProfileSerializationTest, RestoredProfileProducesIdenticalComponents) {
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  TableProfile original = TableProfile::Compute(ds.table).ValueOrDie();
  std::stringstream buf;
  ASSERT_TRUE(original.Serialize(&buf).ok());
  TableProfile restored = TableProfile::Deserialize(&buf).ValueOrDie();

  ComponentTable a = BuildComponents(ds.table, original, ds.planted).ValueOrDie();
  ComponentTable b = BuildComponents(ds.table, restored, ds.planted).ValueOrDie();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.components()[i].effect.value, b.components()[i].effect.value);
    EXPECT_DOUBLE_EQ(a.components()[i].p_value(), b.components()[i].p_value());
  }
}

TEST(ProfileSerializationTest, FileRoundTrip) {
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  TableProfile original = TableProfile::Compute(ds.table).ValueOrDie();
  const std::string path = testing::TempDir() + "/ziggy_profile_test.bin";
  ASSERT_TRUE(original.SaveToFile(path).ok());
  TableProfile restored = TableProfile::LoadFromFile(path).ValueOrDie();
  EXPECT_TRUE(original.Equals(restored));
  std::remove(path.c_str());
}

TEST(ProfileSerializationTest, Format3StreamStillReads) {
  // Format 3 did not record the row count. A profile with a numeric column
  // takes it from the rank arrays; one without cannot know it.
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  const TableProfile original = TableProfile::Compute(ds.table).ValueOrDie();
  EXPECT_EQ(original.num_rows(), ds.table.num_rows());
  std::stringstream v3(legacy::ProfileV3(original));
  const TableProfile restored = TableProfile::Deserialize(&v3).ValueOrDie();
  EXPECT_TRUE(restored.Equals(original));
  EXPECT_TRUE(restored.CheckShape(ds.table).ok());

  const Table labels =
      Table::FromColumns({Column::FromStrings("g", {"a", "b", "a", "c"})})
          .ValueOrDie();
  const TableProfile categorical = TableProfile::Compute(labels).ValueOrDie();
  std::stringstream v3_categorical(legacy::ProfileV3(categorical));
  const TableProfile rowless =
      TableProfile::Deserialize(&v3_categorical).ValueOrDie();
  EXPECT_EQ(rowless.num_rows(), TableProfile::kUnknownRows);
  EXPECT_TRUE(rowless.CheckShape(labels).ok());
  // The category counts are still checked.
  const Table more_labels =
      Table::FromColumns({Column::FromStrings("g", {"a", "b", "d", "c"})})
          .ValueOrDie();
  EXPECT_TRUE(rowless.CheckShape(more_labels).IsInvalidArgument());
}

TEST(ProfileSerializationTest, InconsistentCategoryShapesRejected) {
  // A stream whose checksum holds but whose category counts do not match
  // the mixed-pair groups indexed by the same category codes is refused.
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  const TableProfile original = TableProfile::Compute(ds.table).ValueOrDie();
  ASSERT_FALSE(original.tracked_mixed_pairs().empty());
  const size_t cat = original.tracked_mixed_pairs()[0].first;
  const uint64_t k = original.CategoryCountsOf(cat).size();
  ASSERT_GT(k, 1u);
  std::stringstream buf;
  ASSERT_TRUE(original.Serialize(&buf).ok());
  std::string bytes = buf.str();
  bytes.resize(bytes.size() - sizeof(uint32_t));
  // magic | floor | pair cap | ranks flag | bins | columns | rows, then the
  // column sketches (u64 count, 24 bytes each), then the u64 count of
  // category arrays and each array (u64 length, 8 bytes a count).
  const size_t m = original.num_columns();
  size_t at = 8 + 8 + 8 + 1 + 8 + 8 + 8 + 8 + m * 24 + 8;
  for (size_t c = 0; c < cat; ++c) {
    at += 8 + original.CategoryCountsOf(c).size() * 8;
  }
  uint64_t length = 0;
  std::memcpy(&length, bytes.data() + at, sizeof(length));
  ASSERT_EQ(length, k);
  // Drop the last category's count.
  const uint64_t shorter = k - 1;
  std::memcpy(bytes.data() + at, &shorter, sizeof(shorter));
  bytes.erase(at + 8 + shorter * 8, 8);
  const uint32_t crc = Crc32(bytes);
  bytes.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  std::stringstream stream(bytes);
  const Status st = TableProfile::Deserialize(&stream).status();
  EXPECT_TRUE(st.IsParseError()) << st;
  EXPECT_NE(st.message().find("inconsistent"), std::string::npos) << st;
}

TEST(ProfileSerializationTest, BadMagicRejected) {
  std::stringstream buf;
  buf << "NOTAPROF-and-some-garbage-bytes-here";
  EXPECT_TRUE(TableProfile::Deserialize(&buf).status().IsParseError());
}

TEST(ProfileSerializationTest, LegacyVersionGetsExplicitMismatchError) {
  // ZIGPROF1 streams binned histogram boundaries differently and ZIGPROF2
  // streams carry sort orders instead of ranks (see the kMagic comment in
  // profile_io.cc). Both must be rejected with an actionable version error
  // telling the user to recompute, not the generic bad-magic ParseError an
  // unrelated file gets.
  for (const char* legacy : {"ZIGPROF1", "ZIGPROF2"}) {
    std::stringstream old_stream;
    old_stream << legacy << std::string(64, '\0');
    Status st = TableProfile::Deserialize(&old_stream).status();
    EXPECT_TRUE(st.IsFailedPrecondition()) << legacy << ": " << st;
    EXPECT_NE(st.message().find("version"), std::string::npos) << legacy;
    EXPECT_NE(st.message().find("recompute"), std::string::npos) << legacy;
  }

  // A hypothetical future format is refused the same way (no silent
  // misparse of a newer stream by an older binary).
  std::stringstream v9;
  v9 << "ZIGPROF9" << std::string(64, '\0');
  EXPECT_TRUE(TableProfile::Deserialize(&v9).status().IsFailedPrecondition());
}

TEST(ProfileSerializationTest, TruncatedStreamRejected) {
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  TableProfile original = TableProfile::Compute(ds.table).ValueOrDie();
  std::stringstream buf;
  ASSERT_TRUE(original.Serialize(&buf).ok());
  const std::string full = buf.str();
  for (size_t cut : {size_t{4}, full.size() / 4, full.size() / 2, full.size() - 3}) {
    std::stringstream truncated(full.substr(0, cut));
    EXPECT_FALSE(TableProfile::Deserialize(&truncated).ok()) << "cut=" << cut;
  }
}

TEST(ProfileSerializationTest, MissingFileIsIOError) {
  EXPECT_TRUE(TableProfile::LoadFromFile("/nonexistent/dir/p.bin").status().IsIOError());
}

TEST(ProfileSerializationTest, OptionsSurviveRoundTrip) {
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  ProfileOptions opts;
  opts.pair_dependency_floor = 0.123;
  opts.histogram_bins = 7;
  TableProfile original = TableProfile::Compute(ds.table, opts).ValueOrDie();
  std::stringstream buf;
  ASSERT_TRUE(original.Serialize(&buf).ok());
  TableProfile restored = TableProfile::Deserialize(&buf).ValueOrDie();
  EXPECT_DOUBLE_EQ(restored.options().pair_dependency_floor, 0.123);
  EXPECT_EQ(restored.options().histogram_bins, 7u);
}

TEST(ProfileSerializationTest, ProfileWithoutRanksIsRejected) {
  // The byte after the magic, the dependency floor and the pair cap once
  // flagged whether ranks were cached. Every profile writes 1 there now;
  // a stream holding 0, its checksum intact, must fail with an actionable
  // error instead of handing the selection scan a missing rank array.
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  TableProfile original = TableProfile::Compute(ds.table).ValueOrDie();
  std::stringstream buf;
  ASSERT_TRUE(original.Serialize(&buf).ok());
  std::string bytes = buf.str();
  const size_t flag = 8 + sizeof(double) + sizeof(uint64_t);
  ASSERT_EQ(bytes[flag], 1);
  bytes.resize(bytes.size() - sizeof(uint32_t));
  bytes[flag] = 0;
  const uint32_t crc = Crc32(bytes);
  bytes.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  std::stringstream stream(bytes);
  const Status st = TableProfile::Deserialize(&stream).status();
  EXPECT_TRUE(st.IsFailedPrecondition()) << st;
  EXPECT_NE(st.message().find("recompute"), std::string::npos) << st;
}

// ----------------------------------------------------------------- JSON ------

TEST(JsonEscapeTest, EscapesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonEscapeTest, NonAsciiBecomesUnicodeEscapes) {
  // BMP code points escape to one \uXXXX ...
  EXPECT_EQ(JsonEscape("caf\xc3\xa9"), "caf\\u00e9");
  EXPECT_EQ(JsonEscape("\xe2\x82\xac"), "\\u20ac");  // EURO SIGN
  // ... and non-BMP code points (emoji category labels) to a surrogate
  // pair — a bare \uXXXXX token or raw truncation would be invalid JSON.
  EXPECT_EQ(JsonEscape("\xf0\x9f\x98\x80"), "\\ud83d\\ude00");  // U+1F600
  EXPECT_EQ(JsonEscape("x\xf0\x90\x8d\x88y"), "x\\ud800\\udf48y");  // U+10348
}

TEST(JsonEscapeTest, InvalidUtf8BecomesReplacementCharacter) {
  // Latin-1 bytes, lone continuation bytes, truncated sequences, and
  // overlong encodings must never leak through raw: the reply would not
  // be valid JSON (or valid UTF-8).
  EXPECT_EQ(JsonEscape("\xe9"), "\\ufffd");              // Latin-1 e-acute
  EXPECT_EQ(JsonEscape("a\x80z"), "a\\ufffdz");          // bare continuation
  EXPECT_EQ(JsonEscape("\xf0\x9f\x98"), "\\ufffd\\ufffd\\ufffd");  // cut
  EXPECT_EQ(JsonEscape("\xc0\xaf"), "\\ufffd\\ufffd");   // overlong '/'
  EXPECT_EQ(JsonEscape("\xed\xa0\x80"),                  // encoded surrogate
            "\\ufffd\\ufffd\\ufffd");
}

TEST(JsonWriterTest, NestsAndPlacesCommas) {
  JsonWriter w;
  w.BeginObject();
  w.Key("a").Uint(1);
  w.Key("b").BeginArray().Int(-2).Bool(true).Bool(false).EndArray();
  w.Key("c").BeginObject();
  w.Key("d").BeginArray().BeginObject().Key("e").String("f").EndObject();
  w.BeginArray().EndArray().EndArray();
  w.EndObject();
  w.Key("g").String("");
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"a\":1,\"b\":[-2,true,false],"
            "\"c\":{\"d\":[{\"e\":\"f\"},[]]},\"g\":\"\"}");
}

TEST(JsonWriterTest, EmptyContainersAndBareValues) {
  EXPECT_EQ(JsonWriter().BeginObject().EndObject().str(), "{}");
  EXPECT_EQ(JsonWriter().BeginArray().EndArray().str(), "[]");
  JsonWriter nested;
  nested.BeginObject();
  nested.Key("o").BeginObject().EndObject();
  nested.Key("a").BeginArray().EndArray();
  nested.EndObject();
  EXPECT_EQ(nested.str(), "{\"o\":{},\"a\":[]}");
  EXPECT_EQ(JsonWriter().String("x").str(), "\"x\"");
  EXPECT_EQ(JsonWriter().Uint(UINT64_MAX).str(), "18446744073709551615");
  EXPECT_EQ(JsonWriter().Int(INT64_MIN).str(), "-9223372036854775808");
  JsonWriter taken;
  taken.BeginArray().Uint(7).EndArray();
  EXPECT_EQ(taken.Take(), "[7]");
}

TEST(JsonWriterTest, EscapesKeysAndStrings) {
  JsonWriter w;
  w.BeginObject();
  w.Key("k\"\n").String("caf\xc3\xa9 \xf0\x9f\x98\x80\t\\");
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"k\\\"\\n\":\"caf\\u00e9 \\ud83d\\ude00\\t\\\\\"}");
}

TEST(JsonWriterTest, DoublesKeepTheirDigitsAndNonFiniteIsNull) {
  JsonWriter w;
  w.BeginArray();
  w.Double(1.0 / 3.0, 12).Double(1.0 / 3.0, 17).Double(0.1, 17);
  w.Double(2.0, 12).Double(1e-20, 12).Double(-0.0, 12);
  w.Double(std::nan(""), 12).Double(HUGE_VAL, 12).Double(-HUGE_VAL, 17);
  w.Uint(3);
  w.EndArray();
  EXPECT_EQ(w.str(),
            "[0.333333333333,0.33333333333333331,0.10000000000000001,2,1e-20,"
            "-0,null,null,null,3]");
}

// Splices an already-rendered value in place, with its comma.
TEST(JsonWriterTest, RawSplicesARenderedValue) {
  JsonWriter w;
  w.BeginObject();
  w.Key("t").String("box");
  w.Key("result").Raw("{\"n\":[1,2]}");
  w.Key("after").Bool(true);
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"t\":\"box\",\"result\":{\"n\":[1,2]},\"after\":true}");
}

TEST(JsonRenderTest, ContainsAllSections) {
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  const std::string query = ds.selection_predicate;
  ZiggyEngine engine = ZiggyEngine::Create(std::move(ds.table)).ValueOrDie();
  Characterization r = engine.CharacterizeQuery(query).ValueOrDie();
  const std::string json = CharacterizationToJson(r, engine.table().schema());
  EXPECT_NE(json.find("\"inside_count\":"), std::string::npos);
  EXPECT_NE(json.find("\"timings_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"views\":["), std::string::npos);
  EXPECT_NE(json.find("\"headline\":"), std::string::npos);
  EXPECT_NE(json.find("\"score_breakdown\":"), std::string::npos);
  // Balanced braces and brackets (cheap structural check).
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
      continue;
    }
    if (c == '"') in_string = !in_string;
    if (in_string) continue;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(JsonRenderTest, ViewCountMatches) {
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  const std::string query = ds.selection_predicate;
  ZiggyEngine engine = ZiggyEngine::Create(std::move(ds.table)).ValueOrDie();
  Characterization r = engine.CharacterizeQuery(query).ValueOrDie();
  const std::string json = CharacterizationToJson(r, engine.table().schema());
  size_t count = 0;
  size_t pos = 0;
  while ((pos = json.find("\"rank\":", pos)) != std::string::npos) {
    ++count;
    pos += 7;
  }
  EXPECT_EQ(count, r.views.size());
}

TEST(JsonRenderTest, NoNaNLiterals) {
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  const std::string query = ds.selection_predicate;
  ZiggyEngine engine = ZiggyEngine::Create(std::move(ds.table)).ValueOrDie();
  Characterization r = engine.CharacterizeQuery(query).ValueOrDie();
  const std::string json = CharacterizationToJson(r, engine.table().schema());
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

}  // namespace
}  // namespace ziggy
