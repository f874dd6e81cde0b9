// Property tests for the compression primitives (common/compress.h) and
// the per-column codecs (storage/column_codec.h): every encode/decode
// pair must round-trip bit for bit across the densities real columns
// produce — all-NULL, constant, high-cardinality, fixed-precision
// decimals, sorted runs, NaN/±inf, non-canonical NaN payloads — and the
// decoders must reject malformed payloads cleanly (the torture harness
// covers framed files; these tests attack the inner payloads directly).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/compress.h"
#include "common/random.h"
#include "storage/column_codec.h"
#include "storage/types.h"

namespace ziggy {
namespace {

// ------------------------------------------------------------- block ----

void ExpectLzRoundTrip(const std::string& raw) {
  const std::string block = LzCompress(raw);
  EXPECT_LE(block.size(), LzMaxCompressedSize(raw.size()));
  Result<std::string> back = LzDecompress(block, raw.size());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, raw);
}

TEST(LzBlockTest, RoundTripsAcrossShapes) {
  ExpectLzRoundTrip("");
  ExpectLzRoundTrip("a");
  ExpectLzRoundTrip("abcd");
  ExpectLzRoundTrip(std::string(100000, 'x'));  // long RLE run
  ExpectLzRoundTrip("abcabcabcabcabcabcabcabcabc");
  // Long literal runs exercise the 255-extension encoding on both sides.
  std::string incompressible;
  Rng rng(99);
  for (size_t i = 0; i < 70000; ++i) {
    incompressible.push_back(static_cast<char>(rng.UniformInt(0, 255)));
  }
  ExpectLzRoundTrip(incompressible);
  // Text with scattered repeats — matches at many offsets.
  std::string text;
  for (int i = 0; i < 3000; ++i) {
    text += "the quick brown fox " + std::to_string(i % 37) + "; ";
  }
  ExpectLzRoundTrip(text);
}

TEST(LzBlockTest, RepetitiveInputActuallyCompresses) {
  const std::string raw(100000, 'x');
  EXPECT_LT(LzCompress(raw).size(), raw.size() / 50);
}

TEST(LzBlockTest, GarbageInputNeverCrashes) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage;
    const size_t n = static_cast<size_t>(rng.UniformInt(0, 64));
    for (size_t i = 0; i < n; ++i) {
      garbage.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    // Any result is fine as long as it is a clean Status or a string of
    // exactly the requested size.
    Result<std::string> out = LzDecompress(garbage, 128);
    if (out.ok()) {
      EXPECT_EQ(out->size(), 128u);
    }
  }
}

TEST(LzBlockTest, WrongRawSizeRejected) {
  const std::string raw = "abcabcabcabcabc";
  const std::string block = LzCompress(raw);
  EXPECT_FALSE(LzDecompress(block, raw.size() - 1).ok());
  EXPECT_FALSE(LzDecompress(block, raw.size() + 1).ok());
  EXPECT_FALSE(LzDecompress(std::string(), raw.size()).ok());
}

// -------------------------------------------------------- bit packing ----

TEST(BitPackTest, RoundTripsAllWidths) {
  Rng rng(11);
  for (unsigned width = 0; width <= 64; ++width) {
    std::vector<uint64_t> values(97);
    for (uint64_t& v : values) {
      const uint64_t mask =
          width == 64 ? ~0ull : ((1ull << width) - 1);
      v = (static_cast<uint64_t>(rng.UniformInt(0, 1 << 30)) << 34 ^
           static_cast<uint64_t>(rng.UniformInt(0, 1 << 30))) &
          mask;
    }
    std::string packed;
    PackBits(values.data(), values.size(), width, &packed);
    EXPECT_EQ(packed.size(), PackedBitsSize(values.size(), width));
    Result<std::vector<uint64_t>> back =
        UnpackBits(packed, values.size(), width);
    ASSERT_TRUE(back.ok()) << "width=" << width << ": " << back.status();
    EXPECT_EQ(*back, values) << "width=" << width;
  }
}

TEST(BitPackTest, RejectsMalformedPayloads) {
  std::vector<uint64_t> values = {1, 2, 3};
  std::string packed;
  PackBits(values.data(), values.size(), 2, &packed);
  EXPECT_FALSE(UnpackBits(packed + "x", values.size(), 2).ok());
  // A wrong count that changes the byte length is detectable (one that
  // stays within the same byte is not — the caller's n always comes from
  // a CRC-protected header).
  EXPECT_FALSE(UnpackBits(packed, values.size() + 4, 2).ok());
  EXPECT_FALSE(UnpackBits(packed, values.size(), 65).ok());
  // Nonzero pad bits: the canonical-encoding check. 3 values x 2 bits
  // leaves 2 pad bits in the single byte.
  std::string dirty = packed;
  dirty[dirty.size() - 1] = static_cast<char>(dirty[dirty.size() - 1] | 0x80);
  EXPECT_FALSE(UnpackBits(dirty, values.size(), 2).ok());
}

// ----------------------------------------------------- numeric codec ----

void ExpectNumericRoundTrip(const std::vector<double>& cells) {
  const std::string payload = EncodeNumericCells(cells.data(), cells.size());
  Result<std::vector<double>> back =
      DecodeNumericCells(payload, cells.size());
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->size(), cells.size());
  if (!cells.empty()) {
    EXPECT_EQ(std::memcmp(back->data(), cells.data(),
                          cells.size() * sizeof(double)),
              0)
        << "numeric payload not bit-identical";
  }
}

TEST(NumericCodecTest, RoundTripsAcrossDensities) {
  ExpectNumericRoundTrip({});
  ExpectNumericRoundTrip({0.0});
  ExpectNumericRoundTrip(std::vector<double>(1000, 42.5));      // constant
  ExpectNumericRoundTrip(std::vector<double>(777, NullNumeric()));  // all-NULL
  std::vector<double> sparse(500, NullNumeric());
  sparse[3] = 1.25;
  sparse[499] = -2.5;
  ExpectNumericRoundTrip(sparse);

  // High-cardinality full-entropy doubles (raw/lz territory).
  Rng rng(3);
  std::vector<double> entropy(2000);
  for (double& v : entropy) v = rng.Normal();
  ExpectNumericRoundTrip(entropy);

  // Fixed-precision decimals (dfor territory), negatives included.
  std::vector<double> decimals(2000);
  for (double& v : decimals) {
    v = std::round(rng.Normal() * 1000.0) / 1000.0;
  }
  ExpectNumericRoundTrip(decimals);

  // Sorted low-range run with NULL holes (delta sub-mode).
  std::vector<double> sorted;
  for (int i = 0; i < 3000; ++i) {
    sorted.push_back(static_cast<double>(1700000000 + i));
    if (i % 97 == 0) sorted.push_back(NullNumeric());
  }
  ExpectNumericRoundTrip(sorted);
}

TEST(NumericCodecTest, NonFiniteAndWeirdNaNsSurviveBitForBit) {
  const double inf = std::numeric_limits<double>::infinity();
  // A NaN with a non-canonical payload: must survive verbatim (it is a
  // *value* to the storage layer, only the canonical NaN is NULL).
  uint64_t weird_bits = 0x7FF8DEADBEEF0001ull;
  double weird_nan;
  std::memcpy(&weird_nan, &weird_bits, sizeof(weird_nan));
  ExpectNumericRoundTrip({inf, -inf, weird_nan, NullNumeric(), -0.0, 0.0,
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::max(),
                          -std::numeric_limits<double>::max(), 5e-324});
}

TEST(NumericCodecTest, QuantizedColumnsBeatRawSubstantially) {
  Rng rng(5);
  std::vector<double> decimals(4000);
  for (double& v : decimals) v = std::round(rng.Normal() * 100.0) / 100.0;
  const std::string payload =
      EncodeNumericCells(decimals.data(), decimals.size());
  EXPECT_LT(payload.size() * 2, decimals.size() * sizeof(double))
      << "2-decimal column should pack well below half of raw";
}

TEST(NumericCodecTest, MalformedPayloadsRejected) {
  std::vector<double> cells = {1.0, 2.0, 3.5};
  const std::string payload = EncodeNumericCells(cells.data(), cells.size());
  EXPECT_FALSE(DecodeNumericCells(payload, cells.size() + 1).ok());
  EXPECT_FALSE(DecodeNumericCells(payload, cells.size() - 1).ok());
  EXPECT_FALSE(DecodeNumericCells("", cells.size()).ok());
  EXPECT_FALSE(DecodeNumericCells("\xff", cells.size()).ok());  // bad tag
  // Hostile row count: must fail before allocating n doubles.
  EXPECT_FALSE(DecodeNumericCells(payload, size_t{1} << 60).ok());
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    Result<std::vector<double>> r =
        DecodeNumericCells(payload.substr(0, cut), cells.size());
    if (r.ok()) {
      // A prefix that still decodes must decode to different bytes being
      // impossible: the only acceptable "ok" is the full payload.
      ADD_FAILURE() << "truncated payload (cut=" << cut << ") accepted";
    }
  }
}

// ------------------------------------------------------- codes codec ----

void ExpectCodesRoundTrip(const std::vector<CategoryCode>& codes,
                          size_t dict_size) {
  const std::string payload =
      EncodeCategoryCodes(codes.data(), codes.size(), dict_size);
  Result<std::vector<CategoryCode>> back =
      DecodeCategoryCodes(payload, codes.size(), dict_size);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, codes);
}

TEST(CodesCodecTest, RoundTripsAcrossCardinalities) {
  ExpectCodesRoundTrip({}, 0);
  ExpectCodesRoundTrip(std::vector<CategoryCode>(1000, 0), 1);  // constant
  ExpectCodesRoundTrip(std::vector<CategoryCode>(1000, kNullCategory), 4);
  Rng rng(13);
  for (const size_t dict_size : {size_t{2}, size_t{9}, size_t{200},
                                 size_t{70000}}) {
    std::vector<CategoryCode> codes(1500);
    for (CategoryCode& c : codes) {
      const int64_t draw =
          rng.UniformInt(-1, static_cast<int64_t>(dict_size) - 1);
      c = static_cast<CategoryCode>(draw);
    }
    ExpectCodesRoundTrip(codes, dict_size);
  }
}

TEST(CodesCodecTest, LowCardinalityPacksWellBelowRaw) {
  Rng rng(17);
  std::vector<CategoryCode> codes(4000);
  for (CategoryCode& c : codes) {
    c = static_cast<CategoryCode>(rng.UniformInt(0, 8));
  }
  const std::string payload =
      EncodeCategoryCodes(codes.data(), codes.size(), 9);
  // 9 categories -> 4 bits/code vs 32 raw: expect way under a quarter.
  EXPECT_LT(payload.size() * 4, codes.size() * sizeof(CategoryCode));
}

TEST(CodesCodecTest, OutOfRangeCodesRejected) {
  std::vector<CategoryCode> codes = {0, 1, 2};
  const std::string payload =
      EncodeCategoryCodes(codes.data(), codes.size(), 3);
  // Same payload claimed against a SMALLER dictionary: code 2 is now out
  // of range and must be rejected, whatever inner encoding was chosen.
  EXPECT_FALSE(DecodeCategoryCodes(payload, codes.size(), 2).ok());
  EXPECT_FALSE(DecodeCategoryCodes(payload, codes.size() + 4, 3).ok());
  EXPECT_FALSE(DecodeCategoryCodes(payload, size_t{1} << 60, 3).ok());
}

// --------------------------------------------------------- byte blobs ----

TEST(ByteBlobTest, RoundTripsIncludingNonBmpLabels) {
  for (const std::string& raw :
       {std::string(), std::string("plain ascii"),
        std::string("\xF0\x9F\x8E\xB8 guitar \xF0\x9F\x94\xA5 "
                    "\xE4\xB8\xAD\xE6\x96\x87 \x00 embedded", 34),
        std::string(50000, 'z')}) {
    const std::string payload = EncodeByteBlob(raw);
    Result<std::string> back = DecodeByteBlob(payload, 1 << 20);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(*back, raw);
  }
}

TEST(ByteBlobTest, OversizeAndMalformedRejected) {
  const std::string payload = EncodeByteBlob(std::string(1000, 'q'));
  EXPECT_FALSE(DecodeByteBlob(payload, 999).ok());  // over the cap
  EXPECT_TRUE(DecodeByteBlob(payload, 1000).ok());
  EXPECT_FALSE(DecodeByteBlob("", 100).ok());
  EXPECT_FALSE(DecodeByteBlob("\x07garbage", 100).ok());
}

}  // namespace
}  // namespace ziggy
