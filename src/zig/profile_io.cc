// Binary serialization of TableProfile (see profile.h). Format:
//   magic "ZIGPROF4" | options | column count | row count |
//   per-field arrays | crc32,
// all little-endian, every array length-prefixed with a u64. The trailing
// CRC-32 covers every byte before it. Format 3, the same without the row
// count, is still read.

#include <cstddef>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/binary_io.h"
#include "common/checksum.h"
#include "zig/profile.h"

namespace ziggy {

namespace {

// Format 2: histogram binning switched to the precomputed-reciprocal
// formula (HistogramBinner), which can place boundary values in a
// different bin than format 1. Format 3: the per-column sort orders became
// doubled midranks (TableProfile::Rank2) and the stream gained a CRC-32
// trailer. Format 4: the profiled row count follows the column count.
// Profiles persisted in a format before 3 must be recomputed, not
// silently subtracted against.
constexpr char kMagic[8] = {'Z', 'I', 'G', 'P', 'R', 'O', 'F', '4'};
constexpr char kRowlessVersion = '3';

// Sketch arrays are copied whole: the in-memory layout is the stream's,
// the count and then the sums, 8 bytes each.
static_assert(sizeof(MomentSketch) == 3 * 8 &&
              offsetof(MomentSketch, sum) == 8 &&
              offsetof(MomentSketch, sum_sq) == 16);
static_assert(sizeof(PairMomentSketch) == 6 * 8 &&
              offsetof(PairMomentSketch, sum_x) == 8 &&
              offsetof(PairMomentSketch, sum_y) == 16 &&
              offsetof(PairMomentSketch, sum_xx) == 24 &&
              offsetof(PairMomentSketch, sum_yy) == 32 &&
              offsetof(PairMomentSketch, sum_xy) == 40);

// Bound on every array's length: far above any real profile, low enough
// that a damaged length cannot ask for a huge allocation.
constexpr size_t kMaxElements = size_t{1} << 30;

void PutPairList(std::string* out,
                 const std::vector<std::pair<size_t, size_t>>& v) {
  PutU64(out, v.size());
  for (const auto& [a, b] : v) {
    PutU64(out, a);
    PutU64(out, b);
  }
}

Result<std::vector<std::pair<size_t, size_t>>> ReadPairList(ByteReader* in) {
  ZIGGY_ASSIGN_OR_RETURN(uint64_t n, in->ReadU64());
  if (n > kMaxElements) return Status::ParseError("implausible pair count");
  ZIGGY_ASSIGN_OR_RETURN(std::string_view bytes,
                         in->ReadBytes(static_cast<size_t>(n) * 16));
  std::vector<std::pair<size_t, size_t>> v(static_cast<size_t>(n));
  for (size_t i = 0; i < v.size(); ++i) {
    uint64_t ab[2];
    std::memcpy(ab, bytes.data() + i * 16, sizeof(ab));
    v[i] = {static_cast<size_t>(ab[0]), static_cast<size_t>(ab[1])};
  }
  return v;
}

// `count` length-prefixed arrays of T.
template <typename T>
Result<std::vector<std::vector<T>>> ReadPodVectors(ByteReader* in) {
  ZIGGY_ASSIGN_OR_RETURN(uint64_t count, in->ReadU64());
  if (count > kMaxElements) {
    return Status::ParseError("implausible array length");
  }
  std::vector<std::vector<T>> out;
  out.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    ZIGGY_ASSIGN_OR_RETURN(std::vector<T> v,
                           in->ReadPodVector<T>(kMaxElements));
    out.push_back(std::move(v));
  }
  return out;
}

}  // namespace

Status TableProfile::Serialize(std::ostream* sink) const {
  if (sink == nullptr) return Status::InvalidArgument("null output stream");
  std::string out(kMagic, sizeof(kMagic));
  PutF64(&out, options_.pair_dependency_floor);
  PutU64(&out, options_.max_tracked_pairs);
  // The layout's ranks flag: every profile holds its midranks, and a
  // reader refuses a stream whose flag is 0.
  PutU8(&out, 1);
  PutU64(&out, options_.histogram_bins);
  PutU64(&out, num_columns_);
  PutU64(&out, num_rows_);

  PutPodVector(&out, column_sketches_);
  PutU64(&out, category_counts_.size());
  for (const auto& v : category_counts_) PutPodVector(&out, v);
  PutU64(&out, ranges_.size());
  for (const auto& [lo, hi] : ranges_) {
    PutF64(&out, lo);
    PutF64(&out, hi);
  }
  PutU64(&out, rank2_.size());
  for (const auto& v : rank2_) PutPodVector(&out, v);
  PutU64(&out, histograms_.size());
  for (const auto& v : histograms_) PutPodVector(&out, v);

  PutPodVector(&out, dependency_);
  PutPairList(&out, tracked_numeric_pairs_);
  PutPodVector(&out, numeric_pair_sketches_);
  PutPodVector(&out, numeric_pair_index_);

  PutPairList(&out, tracked_mixed_pairs_);
  PutU64(&out, mixed_pair_groups_.size());
  for (const auto& g : mixed_pair_groups_) PutPodVector(&out, g.groups);

  PutPairList(&out, tracked_categorical_pairs_);
  PutU64(&out, categorical_pair_tables_.size());
  for (const auto& t : categorical_pair_tables_) PutPodVector(&out, t);

  PutU32(&out, Crc32(out));
  sink->write(out.data(), static_cast<std::streamsize>(out.size()));
  if (!*sink) return Status::IOError("profile write failed");
  return Status::OK();
}

Result<TableProfile> TableProfile::Deserialize(std::istream* source) {
  if (source == nullptr) return Status::InvalidArgument("null input stream");
  char magic[8];
  source->read(magic, sizeof(magic));
  if (!*source) return Status::IOError("truncated profile stream");
  const bool has_rows = std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
  if (!has_rows) {
    // A recognized-but-older version gets an explicit mismatch error:
    // format 1 profiles binned histograms with a different boundary
    // formula (see kMagic comment), so silently accepting one would
    // corrupt complement subtraction. They must be recomputed.
    if (std::memcmp(magic, kMagic, sizeof(kMagic) - 1) != 0) {
      return Status::ParseError("not a Ziggy profile (bad magic)");
    }
    if (magic[7] != kRowlessVersion) {
      return Status::FailedPrecondition(
          std::string("unsupported profile format version '") + magic[7] +
          "' (expected '" + kMagic[7] +
          "'); recompute the profile from the source table");
    }
  }
  // Verify the trailer before parsing anything, so a damaged stream never
  // yields a profile with plausible-looking but wrong statistics.
  std::ostringstream rest(std::ios::binary);
  rest << source->rdbuf();
  const std::string bytes = std::move(rest).str();
  uint32_t stored_crc = 0;
  if (bytes.size() < sizeof(stored_crc)) {
    return Status::IOError("truncated profile stream");
  }
  const std::string_view body(bytes.data(), bytes.size() - sizeof(stored_crc));
  std::memcpy(&stored_crc, body.data() + body.size(), sizeof(stored_crc));
  const uint32_t magic_crc = Crc32(std::string_view(magic, sizeof(magic)));
  if (Crc32(body, magic_crc) != stored_crc) {
    return Status::ParseError("profile checksum mismatch");
  }
  ByteReader in(body);

  TableProfile p;
  ZIGGY_ASSIGN_OR_RETURN(p.options_.pair_dependency_floor, in.ReadF64());
  ZIGGY_ASSIGN_OR_RETURN(uint64_t max_pairs, in.ReadU64());
  p.options_.max_tracked_pairs = static_cast<size_t>(max_pairs);
  ZIGGY_ASSIGN_OR_RETURN(uint8_t has_ranks, in.ReadU8());
  if (has_ranks == 0) {
    // Written without midranks, which the selection scan needs.
    return Status::FailedPrecondition(
        "profile has no cached ranks; recompute the profile from the source "
        "table");
  }
  ZIGGY_ASSIGN_OR_RETURN(uint64_t hist_bins, in.ReadU64());
  p.options_.histogram_bins = static_cast<size_t>(hist_bins);
  ZIGGY_ASSIGN_OR_RETURN(uint64_t m, in.ReadU64());
  if (m > kMaxElements) return Status::ParseError("implausible column count");
  p.num_columns_ = static_cast<size_t>(m);
  if (has_rows) {
    ZIGGY_ASSIGN_OR_RETURN(uint64_t rows, in.ReadU64());
    p.num_rows_ = static_cast<size_t>(rows);
  }

  ZIGGY_ASSIGN_OR_RETURN(p.column_sketches_,
                         in.ReadPodVector<MomentSketch>(kMaxElements));
  ZIGGY_ASSIGN_OR_RETURN(p.category_counts_, ReadPodVectors<int64_t>(&in));
  ZIGGY_ASSIGN_OR_RETURN(uint64_t n_ranges, in.ReadU64());
  if (n_ranges > kMaxElements) {
    return Status::ParseError("implausible array length");
  }
  ZIGGY_ASSIGN_OR_RETURN(std::string_view range_bytes,
                         in.ReadBytes(static_cast<size_t>(n_ranges) * 16));
  p.ranges_.resize(static_cast<size_t>(n_ranges));
  for (size_t i = 0; i < p.ranges_.size(); ++i) {
    std::memcpy(&p.ranges_[i].first, range_bytes.data() + i * 16, 8);
    std::memcpy(&p.ranges_[i].second, range_bytes.data() + i * 16 + 8, 8);
  }
  ZIGGY_ASSIGN_OR_RETURN(p.rank2_, ReadPodVectors<uint32_t>(&in));
  ZIGGY_ASSIGN_OR_RETURN(p.histograms_, ReadPodVectors<int64_t>(&in));

  ZIGGY_ASSIGN_OR_RETURN(p.dependency_, in.ReadPodVector<double>(kMaxElements));
  ZIGGY_ASSIGN_OR_RETURN(p.tracked_numeric_pairs_, ReadPairList(&in));
  ZIGGY_ASSIGN_OR_RETURN(p.numeric_pair_sketches_,
                         in.ReadPodVector<PairMomentSketch>(kMaxElements));
  ZIGGY_ASSIGN_OR_RETURN(p.numeric_pair_index_,
                         in.ReadPodVector<int64_t>(kMaxElements));

  ZIGGY_ASSIGN_OR_RETURN(p.tracked_mixed_pairs_, ReadPairList(&in));
  ZIGGY_ASSIGN_OR_RETURN(std::vector<std::vector<MomentSketch>> groups,
                         ReadPodVectors<MomentSketch>(&in));
  p.mixed_pair_groups_.resize(groups.size());
  for (size_t i = 0; i < groups.size(); ++i) {
    p.mixed_pair_groups_[i].groups = std::move(groups[i]);
  }

  ZIGGY_ASSIGN_OR_RETURN(p.tracked_categorical_pairs_, ReadPairList(&in));
  ZIGGY_ASSIGN_OR_RETURN(p.categorical_pair_tables_,
                         ReadPodVectors<int64_t>(&in));

  if (!in.exhausted()) return Status::ParseError("inconsistent profile stream");
  if (!has_rows) {
    // A format-3 profile's row count is its rank arrays' length; one with
    // no numeric column does not know it.
    p.num_rows_ = kUnknownRows;
    for (const auto& ranks : p.rank2_) {
      if (!ranks.empty()) p.num_rows_ = ranks.size();
    }
  }
  // Structural consistency: every array the scans index by column, pair,
  // row or category code has the length they index it with.
  const size_t mm = p.num_columns_;
  const auto consistent = [&] {
    if (p.column_sketches_.size() != mm || p.category_counts_.size() != mm ||
        p.ranges_.size() != mm || p.rank2_.size() != mm ||
        p.histograms_.size() != mm || p.dependency_.size() != mm * mm ||
        p.numeric_pair_index_.size() != mm * mm ||
        p.numeric_pair_sketches_.size() != p.tracked_numeric_pairs_.size() ||
        p.mixed_pair_groups_.size() != p.tracked_mixed_pairs_.size() ||
        p.categorical_pair_tables_.size() !=
            p.tracked_categorical_pairs_.size()) {
      return false;
    }
    for (size_t c = 0; c < mm; ++c) {
      if (!p.rank2_[c].empty() && p.rank2_[c].size() != p.num_rows_) {
        return false;
      }
      if (!p.histograms_[c].empty() &&
          p.histograms_[c].size() != p.options_.histogram_bins) {
        return false;
      }
    }
    const auto n_pairs = static_cast<int64_t>(p.tracked_numeric_pairs_.size());
    for (const int64_t idx : p.numeric_pair_index_) {
      if (idx < -1 || idx >= n_pairs) return false;
    }
    for (const auto& [a, b] : p.tracked_numeric_pairs_) {
      if (a >= mm || b >= mm) return false;
    }
    for (size_t i = 0; i < p.tracked_mixed_pairs_.size(); ++i) {
      const auto [cat, num] = p.tracked_mixed_pairs_[i];
      if (cat >= mm || num >= mm ||
          p.mixed_pair_groups_[i].groups.size() !=
              p.category_counts_[cat].size()) {
        return false;
      }
    }
    for (size_t i = 0; i < p.tracked_categorical_pairs_.size(); ++i) {
      const auto [a, b] = p.tracked_categorical_pairs_[i];
      if (a >= mm || b >= mm ||
          p.categorical_pair_tables_[i].size() !=
              p.category_counts_[a].size() * p.category_counts_[b].size()) {
        return false;
      }
    }
    return true;
  };
  if (!consistent()) return Status::ParseError("inconsistent profile stream");
  return p;
}

Status TableProfile::SaveToFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  return Serialize(&out);
}

Result<TableProfile> TableProfile::LoadFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  return Deserialize(&in);
}

bool TableProfile::Equals(const TableProfile& other) const {
  auto sketch_eq = [](const MomentSketch& a, const MomentSketch& b) {
    return a.count == b.count && a.sum == b.sum && a.sum_sq == b.sum_sq;
  };
  if (num_columns_ != other.num_columns_ || num_rows_ != other.num_rows_) {
    return false;
  }
  if (column_sketches_.size() != other.column_sketches_.size()) return false;
  for (size_t i = 0; i < column_sketches_.size(); ++i) {
    if (!sketch_eq(column_sketches_[i], other.column_sketches_[i])) return false;
  }
  if (category_counts_ != other.category_counts_) return false;
  if (ranges_ != other.ranges_) return false;
  if (rank2_ != other.rank2_) return false;
  if (histograms_ != other.histograms_) return false;
  if (dependency_ != other.dependency_) return false;
  if (tracked_numeric_pairs_ != other.tracked_numeric_pairs_) return false;
  if (numeric_pair_index_ != other.numeric_pair_index_) return false;
  if (numeric_pair_sketches_.size() != other.numeric_pair_sketches_.size()) {
    return false;
  }
  for (size_t i = 0; i < numeric_pair_sketches_.size(); ++i) {
    const auto& a = numeric_pair_sketches_[i];
    const auto& b = other.numeric_pair_sketches_[i];
    if (a.count != b.count || a.sum_x != b.sum_x || a.sum_y != b.sum_y ||
        a.sum_xx != b.sum_xx || a.sum_yy != b.sum_yy || a.sum_xy != b.sum_xy) {
      return false;
    }
  }
  if (tracked_mixed_pairs_ != other.tracked_mixed_pairs_) return false;
  if (mixed_pair_groups_.size() != other.mixed_pair_groups_.size()) return false;
  for (size_t i = 0; i < mixed_pair_groups_.size(); ++i) {
    const auto& ga = mixed_pair_groups_[i].groups;
    const auto& gb = other.mixed_pair_groups_[i].groups;
    if (ga.size() != gb.size()) return false;
    for (size_t g = 0; g < ga.size(); ++g) {
      if (!sketch_eq(ga[g], gb[g])) return false;
    }
  }
  if (tracked_categorical_pairs_ != other.tracked_categorical_pairs_) return false;
  if (categorical_pair_tables_ != other.categorical_pair_tables_) return false;
  return true;
}

}  // namespace ziggy
