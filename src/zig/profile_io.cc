// Binary serialization of TableProfile (see profile.h). Format:
//   magic "ZIGPROF3" | options | column count | per-field arrays | crc32,
// all little-endian, every array length-prefixed with a u64. The trailing
// CRC-32 covers every byte before it.

#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>

#include "common/checksum.h"
#include "zig/profile.h"

namespace ziggy {

namespace {

// Format 2: histogram binning switched to the precomputed-reciprocal
// formula (HistogramBinner), which can place boundary values in a
// different bin than format 1. Format 3: the per-column sort orders became
// doubled midranks (TableProfile::Rank2) and the stream gained a CRC-32
// trailer. Profiles persisted in an older format must be recomputed, not
// silently subtracted against.
constexpr char kMagic[8] = {'Z', 'I', 'G', 'P', 'R', 'O', 'F', '3'};

// ---- primitive writers -----------------------------------------------------

void WriteU64(std::ostream* out, uint64_t v) {
  out->write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void WriteI64(std::ostream* out, int64_t v) {
  out->write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void WriteF64(std::ostream* out, double v) {
  out->write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void WriteU8(std::ostream* out, uint8_t v) {
  out->write(reinterpret_cast<const char*>(&v), sizeof(v));
}

// ---- primitive readers (Status-checked) -------------------------------------

Status ReadRaw(std::istream* in, void* dst, size_t bytes) {
  in->read(reinterpret_cast<char*>(dst), static_cast<std::streamsize>(bytes));
  if (!*in) return Status::IOError("truncated profile stream");
  return Status::OK();
}

Result<uint64_t> ReadU64(std::istream* in) {
  uint64_t v = 0;
  ZIGGY_RETURN_NOT_OK(ReadRaw(in, &v, sizeof(v)));
  return v;
}
Result<int64_t> ReadI64(std::istream* in) {
  int64_t v = 0;
  ZIGGY_RETURN_NOT_OK(ReadRaw(in, &v, sizeof(v)));
  return v;
}
Result<double> ReadF64(std::istream* in) {
  double v = 0;
  ZIGGY_RETURN_NOT_OK(ReadRaw(in, &v, sizeof(v)));
  return v;
}
Result<uint8_t> ReadU8(std::istream* in) {
  uint8_t v = 0;
  ZIGGY_RETURN_NOT_OK(ReadRaw(in, &v, sizeof(v)));
  return v;
}

// ---- vector helpers ----------------------------------------------------------

template <typename T>
void WritePodVector(std::ostream* out, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  WriteU64(out, v.size());
  if (!v.empty()) {
    out->write(reinterpret_cast<const char*>(v.data()), sizeof(T) * v.size());
  }
}

template <typename T>
Result<std::vector<T>> ReadPodVector(std::istream* in) {
  static_assert(std::is_trivially_copyable_v<T>);
  ZIGGY_ASSIGN_OR_RETURN(uint64_t n, ReadU64(in));
  // Basic sanity bound: 1G elements.
  if (n > (uint64_t{1} << 30)) return Status::ParseError("implausible array length");
  std::vector<T> v(n);
  if (n > 0) {
    ZIGGY_RETURN_NOT_OK(ReadRaw(in, v.data(), sizeof(T) * n));
  }
  return v;
}

void WriteSketch(std::ostream* out, const MomentSketch& s) {
  WriteI64(out, s.count);
  WriteF64(out, s.sum);
  WriteF64(out, s.sum_sq);
}

Result<MomentSketch> ReadSketch(std::istream* in) {
  MomentSketch s;
  ZIGGY_ASSIGN_OR_RETURN(s.count, ReadI64(in));
  ZIGGY_ASSIGN_OR_RETURN(s.sum, ReadF64(in));
  ZIGGY_ASSIGN_OR_RETURN(s.sum_sq, ReadF64(in));
  return s;
}

void WritePairSketch(std::ostream* out, const PairMomentSketch& s) {
  WriteI64(out, s.count);
  WriteF64(out, s.sum_x);
  WriteF64(out, s.sum_y);
  WriteF64(out, s.sum_xx);
  WriteF64(out, s.sum_yy);
  WriteF64(out, s.sum_xy);
}

Result<PairMomentSketch> ReadPairSketch(std::istream* in) {
  PairMomentSketch s;
  ZIGGY_ASSIGN_OR_RETURN(s.count, ReadI64(in));
  ZIGGY_ASSIGN_OR_RETURN(s.sum_x, ReadF64(in));
  ZIGGY_ASSIGN_OR_RETURN(s.sum_y, ReadF64(in));
  ZIGGY_ASSIGN_OR_RETURN(s.sum_xx, ReadF64(in));
  ZIGGY_ASSIGN_OR_RETURN(s.sum_yy, ReadF64(in));
  ZIGGY_ASSIGN_OR_RETURN(s.sum_xy, ReadF64(in));
  return s;
}

void WritePairList(std::ostream* out, const std::vector<std::pair<size_t, size_t>>& v) {
  WriteU64(out, v.size());
  for (const auto& [a, b] : v) {
    WriteU64(out, a);
    WriteU64(out, b);
  }
}

Result<std::vector<std::pair<size_t, size_t>>> ReadPairList(std::istream* in) {
  ZIGGY_ASSIGN_OR_RETURN(uint64_t n, ReadU64(in));
  if (n > (uint64_t{1} << 30)) return Status::ParseError("implausible pair count");
  std::vector<std::pair<size_t, size_t>> v;
  v.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    ZIGGY_ASSIGN_OR_RETURN(uint64_t a, ReadU64(in));
    ZIGGY_ASSIGN_OR_RETURN(uint64_t b, ReadU64(in));
    v.emplace_back(static_cast<size_t>(a), static_cast<size_t>(b));
  }
  return v;
}

}  // namespace

Status TableProfile::Serialize(std::ostream* sink) const {
  if (sink == nullptr) return Status::InvalidArgument("null output stream");
  std::ostringstream buffer(std::ios::binary);
  std::ostream* out = &buffer;
  out->write(kMagic, sizeof(kMagic));
  WriteF64(out, options_.pair_dependency_floor);
  WriteU64(out, options_.max_tracked_pairs);
  // The layout's ranks flag: every profile holds its midranks, and a
  // reader refuses a stream whose flag is 0.
  WriteU8(out, 1);
  WriteU64(out, options_.histogram_bins);
  WriteU64(out, num_columns_);

  WriteU64(out, column_sketches_.size());
  for (const auto& s : column_sketches_) WriteSketch(out, s);

  WriteU64(out, category_counts_.size());
  for (const auto& v : category_counts_) WritePodVector(out, v);

  WriteU64(out, ranges_.size());
  for (const auto& [lo, hi] : ranges_) {
    WriteF64(out, lo);
    WriteF64(out, hi);
  }

  WriteU64(out, rank2_.size());
  for (const auto& v : rank2_) WritePodVector(out, v);

  WriteU64(out, histograms_.size());
  for (const auto& v : histograms_) WritePodVector(out, v);

  WritePodVector(out, dependency_);
  WritePairList(out, tracked_numeric_pairs_);
  WriteU64(out, numeric_pair_sketches_.size());
  for (const auto& s : numeric_pair_sketches_) WritePairSketch(out, s);
  WritePodVector(out, numeric_pair_index_);

  WritePairList(out, tracked_mixed_pairs_);
  WriteU64(out, mixed_pair_groups_.size());
  for (const auto& g : mixed_pair_groups_) {
    WriteU64(out, g.groups.size());
    for (const auto& s : g.groups) WriteSketch(out, s);
  }

  WritePairList(out, tracked_categorical_pairs_);
  WriteU64(out, categorical_pair_tables_.size());
  for (const auto& t : categorical_pair_tables_) WritePodVector(out, t);

  const std::string bytes = std::move(buffer).str();
  const uint32_t crc = Crc32(bytes);
  sink->write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  sink->write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  if (!*sink) return Status::IOError("profile write failed");
  return Status::OK();
}

Result<TableProfile> TableProfile::Deserialize(std::istream* source) {
  if (source == nullptr) return Status::InvalidArgument("null input stream");
  char magic[8];
  ZIGGY_RETURN_NOT_OK(ReadRaw(source, magic, sizeof(magic)));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    // A recognized-but-older version gets an explicit mismatch error:
    // format 1 profiles binned histograms with a different boundary
    // formula (see kMagic comment), so silently accepting one would
    // corrupt complement subtraction. They must be recomputed.
    if (std::memcmp(magic, kMagic, sizeof(kMagic) - 1) == 0) {
      return Status::FailedPrecondition(
          std::string("unsupported profile format version '") + magic[7] +
          "' (expected '" + kMagic[7] +
          "'); recompute the profile from the source table");
    }
    return Status::ParseError("not a Ziggy profile (bad magic)");
  }
  // Verify the trailer before parsing anything, so a damaged stream never
  // yields a profile with plausible-looking but wrong statistics.
  std::ostringstream rest(std::ios::binary);
  rest << source->rdbuf();
  std::string body = std::move(rest).str();
  uint32_t stored_crc = 0;
  if (body.size() < sizeof(stored_crc)) {
    return Status::IOError("truncated profile stream");
  }
  std::memcpy(&stored_crc, body.data() + body.size() - sizeof(stored_crc),
              sizeof(stored_crc));
  body.resize(body.size() - sizeof(stored_crc));
  const uint32_t magic_crc = Crc32(std::string_view(magic, sizeof(magic)));
  if (Crc32(body, magic_crc) != stored_crc) {
    return Status::ParseError("profile checksum mismatch");
  }
  std::istringstream body_stream(std::move(body), std::ios::binary);
  std::istream* in = &body_stream;

  TableProfile p;
  ZIGGY_ASSIGN_OR_RETURN(p.options_.pair_dependency_floor, ReadF64(in));
  ZIGGY_ASSIGN_OR_RETURN(uint64_t max_pairs, ReadU64(in));
  p.options_.max_tracked_pairs = static_cast<size_t>(max_pairs);
  ZIGGY_ASSIGN_OR_RETURN(uint8_t has_ranks, ReadU8(in));
  if (has_ranks == 0) {
    // Written without midranks, which the selection scan needs.
    return Status::FailedPrecondition(
        "profile has no cached ranks; recompute the profile from the source "
        "table");
  }
  ZIGGY_ASSIGN_OR_RETURN(uint64_t hist_bins, ReadU64(in));
  p.options_.histogram_bins = static_cast<size_t>(hist_bins);
  ZIGGY_ASSIGN_OR_RETURN(uint64_t m, ReadU64(in));
  p.num_columns_ = static_cast<size_t>(m);

  ZIGGY_ASSIGN_OR_RETURN(uint64_t n_sketches, ReadU64(in));
  p.column_sketches_.reserve(n_sketches);
  for (uint64_t i = 0; i < n_sketches; ++i) {
    ZIGGY_ASSIGN_OR_RETURN(MomentSketch s, ReadSketch(in));
    p.column_sketches_.push_back(s);
  }

  ZIGGY_ASSIGN_OR_RETURN(uint64_t n_cat, ReadU64(in));
  p.category_counts_.reserve(n_cat);
  for (uint64_t i = 0; i < n_cat; ++i) {
    ZIGGY_ASSIGN_OR_RETURN(std::vector<int64_t> v, ReadPodVector<int64_t>(in));
    p.category_counts_.push_back(std::move(v));
  }

  ZIGGY_ASSIGN_OR_RETURN(uint64_t n_ranges, ReadU64(in));
  p.ranges_.reserve(n_ranges);
  for (uint64_t i = 0; i < n_ranges; ++i) {
    ZIGGY_ASSIGN_OR_RETURN(double lo, ReadF64(in));
    ZIGGY_ASSIGN_OR_RETURN(double hi, ReadF64(in));
    p.ranges_.emplace_back(lo, hi);
  }

  ZIGGY_ASSIGN_OR_RETURN(uint64_t n_ranks, ReadU64(in));
  for (uint64_t i = 0; i < n_ranks; ++i) {
    ZIGGY_ASSIGN_OR_RETURN(std::vector<uint32_t> v, ReadPodVector<uint32_t>(in));
    p.rank2_.push_back(std::move(v));
  }

  ZIGGY_ASSIGN_OR_RETURN(uint64_t n_hists, ReadU64(in));
  p.histograms_.reserve(n_hists);
  for (uint64_t i = 0; i < n_hists; ++i) {
    ZIGGY_ASSIGN_OR_RETURN(std::vector<int64_t> v, ReadPodVector<int64_t>(in));
    p.histograms_.push_back(std::move(v));
  }

  ZIGGY_ASSIGN_OR_RETURN(p.dependency_, ReadPodVector<double>(in));
  ZIGGY_ASSIGN_OR_RETURN(p.tracked_numeric_pairs_, ReadPairList(in));
  ZIGGY_ASSIGN_OR_RETURN(uint64_t n_pair_sketches, ReadU64(in));
  p.numeric_pair_sketches_.reserve(n_pair_sketches);
  for (uint64_t i = 0; i < n_pair_sketches; ++i) {
    ZIGGY_ASSIGN_OR_RETURN(PairMomentSketch s, ReadPairSketch(in));
    p.numeric_pair_sketches_.push_back(s);
  }
  ZIGGY_ASSIGN_OR_RETURN(p.numeric_pair_index_, ReadPodVector<int64_t>(in));

  ZIGGY_ASSIGN_OR_RETURN(p.tracked_mixed_pairs_, ReadPairList(in));
  ZIGGY_ASSIGN_OR_RETURN(uint64_t n_groups, ReadU64(in));
  p.mixed_pair_groups_.reserve(n_groups);
  for (uint64_t i = 0; i < n_groups; ++i) {
    ZIGGY_ASSIGN_OR_RETURN(uint64_t k, ReadU64(in));
    GroupedMoments gm;
    gm.groups.reserve(k);
    for (uint64_t g = 0; g < k; ++g) {
      ZIGGY_ASSIGN_OR_RETURN(MomentSketch s, ReadSketch(in));
      gm.groups.push_back(s);
    }
    p.mixed_pair_groups_.push_back(std::move(gm));
  }

  ZIGGY_ASSIGN_OR_RETURN(p.tracked_categorical_pairs_, ReadPairList(in));
  ZIGGY_ASSIGN_OR_RETURN(uint64_t n_tables, ReadU64(in));
  p.categorical_pair_tables_.reserve(n_tables);
  for (uint64_t i = 0; i < n_tables; ++i) {
    ZIGGY_ASSIGN_OR_RETURN(std::vector<int64_t> v, ReadPodVector<int64_t>(in));
    p.categorical_pair_tables_.push_back(std::move(v));
  }

  // Structural consistency checks.
  const size_t mm = p.num_columns_;
  if (p.column_sketches_.size() != mm || p.category_counts_.size() != mm ||
      p.ranges_.size() != mm || p.rank2_.size() != mm ||
      p.dependency_.size() != mm * mm ||
      p.numeric_pair_index_.size() != mm * mm ||
      p.numeric_pair_sketches_.size() != p.tracked_numeric_pairs_.size() ||
      p.mixed_pair_groups_.size() != p.tracked_mixed_pairs_.size() ||
      p.categorical_pair_tables_.size() !=
          p.tracked_categorical_pairs_.size() ||
      in->peek() != std::char_traits<char>::eof()) {
    return Status::ParseError("inconsistent profile stream");
  }
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
  if (num_columns_ != other.num_columns_) return false;
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
