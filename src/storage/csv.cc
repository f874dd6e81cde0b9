#include "storage/csv.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>

#include "common/parallel.h"
#include "common/string_util.h"

namespace ziggy {

namespace {

// Input bytes per chunk of the chunk-parallel reader: an input below two
// chunks is read on the calling thread.
constexpr size_t kCsvChunkBytes = size_t{1} << 18;

// ScanCell's and SplitRecord's result at an unterminated quote.
constexpr size_t kUnterminated = std::string_view::npos;

// The bytes that end or escape a cell outside quotes.
struct Dialect {
  explicit Dialect(char d)
      : delim(d),
        delim_is_quote(d == '"'),
        numbers_stop_at_delim(
            std::isspace(static_cast<unsigned char>(d)) != 0 ||
            std::string_view(",;|").find(d) != std::string_view::npos) {
    special[static_cast<unsigned char>(d)] = true;
    special[static_cast<unsigned char>('"')] = true;
    special[static_cast<unsigned char>('\r')] = true;
  }
  char delim;
  bool delim_is_quote;
  // No number holds the delimiter (see ParseDoublePrefix).
  bool numbers_stop_at_delim;
  std::array<bool, 256> special{};
};

// Reads the cell that starts at line[i] and returns the index just past
// it: the delimiter that ends it, or line.size(). A '"' opens or closes
// quoting ("" inside quotes is a literal quote), the delimiter ends the
// cell outside quotes, and '\r' is dropped outside quotes and kept inside
// them. A cell with neither '"' nor '\r' is a view into `line`
// (*escaped = false); any other is unescaped into *scratch (*escaped =
// true). Returns kUnterminated for an unterminated quote.
inline size_t ScanCell(const Dialect& d, std::string_view line, size_t i,
                       std::string* scratch, std::string_view* cell,
                       bool* escaped) {
  const size_t n = line.size();
  const size_t start = i;
  while (i < n && !d.special[static_cast<unsigned char>(line[i])]) ++i;
  if (i == n || (line[i] == d.delim && !d.delim_is_quote)) {
    *cell = line.substr(start, i - start);
    *escaped = false;
    return i;
  }
  scratch->assign(line.data() + start, i - start);
  bool in_quotes = false;
  for (; i < n; ++i) {
    const char ch = line[i];
    if (in_quotes) {
      if (ch == '"') {
        if (i + 1 < n && line[i + 1] == '"') {
          *scratch += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        *scratch += ch;
      }
    } else if (ch == '"') {
      in_quotes = true;
    } else if (ch == d.delim) {
      break;
    } else if (ch != '\r') {
      *scratch += ch;
    }
  }
  *cell = *scratch;
  *escaped = true;
  return in_quotes ? kUnterminated : i;
}

// Splits one record into cells and calls on_cell(c, cell) for each, in
// order (see ScanCell); returns the cell count, or kUnterminated at the
// first unterminated quote.
template <typename OnCell>
size_t SplitRecord(const Dialect& d, std::string_view line,
                   std::string* scratch, OnCell&& on_cell) {
  for (size_t c = 0, i = 0;; ++c) {
    std::string_view cell;
    bool escaped = false;
    i = ScanCell(d, line, i, scratch, &cell, &escaped);
    if (i == kUnterminated) return kUnterminated;
    on_cell(c, cell);
    if (i == line.size()) return c + 1;
    ++i;  // past the delimiter
  }
}

// Calls on_record(line) for each record of text[begin, end), in order,
// until it returns false; `begin` starts a line and `end` ends one.
// Records are '\n'-terminated lines (without the '\n'); lines that are
// blank after trimming are skipped. A quote never spans lines, so every
// '\n' ends a record and chunks split independently.
template <typename OnRecord>
void ForEachRecord(std::string_view text, size_t begin, size_t end,
                   OnRecord&& on_record) {
  size_t pos = begin;
  while (pos < end) {
    const void* nl = std::memchr(text.data() + pos, '\n', end - pos);
    const size_t line_end =
        nl == nullptr ? end : static_cast<size_t>(
                                  static_cast<const char*>(nl) - text.data());
    const std::string_view line = text.substr(pos, line_end - pos);
    pos = line_end + 1;
    const bool blank = std::all_of(line.begin(), line.end(), [](char c) {
      return std::isspace(static_cast<unsigned char>(c)) != 0;
    });
    if (!blank && !on_record(line)) return;
  }
}

// Chunk boundaries [bounds[k], bounds[k + 1]) for `num_chunks` chunks of
// about equal size, each cut just after a '\n'. Chunks may be empty.
std::vector<size_t> ChunkBounds(std::string_view text, size_t num_chunks) {
  const size_t n = text.size();
  std::vector<size_t> bounds{0};
  for (size_t k = 1; k < num_chunks; ++k) {
    const size_t target = std::max(bounds.back(), n / num_chunks * k);
    const size_t nl = text.find('\n', target);
    bounds.push_back(nl == std::string_view::npos ? n : nl + 1);
  }
  bounds.push_back(n);
  return bounds;
}

Status UnterminatedQuoteError(std::string_view line) {
  return Status::ParseError("unterminated quote in CSV record: '" +
                            std::string(line) + "'");
}

Status RaggedRecordError(size_t record, size_t fields, size_t num_cols) {
  return Status::ParseError("CSV record " + std::to_string(record) + " has " +
                            std::to_string(fields) + " fields, expected " +
                            std::to_string(num_cols));
}

// NULL cells: the empty string and CsvOptions::null_tokens. A cell is
// compared with the tokens only when its first byte starts one of them.
class NullTokens {
 public:
  explicit NullTokens(const std::vector<std::string>& tokens)
      : tokens_(tokens) {
    for (const std::string& t : tokens_) {
      if (!t.empty()) first_[static_cast<unsigned char>(t[0])] = true;
    }
  }

  bool Matches(std::string_view cell) const {
    if (cell.empty()) return true;
    if (!first_[static_cast<unsigned char>(cell[0])]) return false;
    return std::find(tokens_.begin(), tokens_.end(), cell) != tokens_.end();
  }

 private:
  const std::vector<std::string>& tokens_;
  std::array<bool, 256> first_{};
};

// What the chunk pass does with a column's cells.
enum class Role : uint8_t { kSkip, kNumber, kLabel };

struct ColumnPlan {
  std::vector<Role> roles;  // one per column
  // A kNumber column's values, indexed by data row.
  std::vector<double*> values;
};

// One cell of a kLabel column: `length` bytes at `offset` in the combined
// address space [text | arena]. Cells that needed no unescaping point
// straight into the text; the others were unescaped into the arena.
struct CellSpan {
  size_t offset;
  size_t length;
};

// One chunk's output of the chunk pass.
struct ChunkResult {
  std::string arena;
  // The kLabel columns' cells, row-major: one per kLabel column and data
  // record.
  std::vector<CellSpan> labels;
  // failed[c]: a cell of kNumber column c does not parse as a number.
  std::vector<uint8_t> failed;
  // The chunk's first record (chunk-local index) whose cell count is not
  // the first record's. Nothing of it or any later record is kept.
  bool ragged = false;
  size_t ragged_record = 0;
  size_t ragged_fields = 0;
  Status status;  // the chunk's first unterminated quote

  std::string_view Label(std::string_view text, size_t at) const {
    const CellSpan& span = labels[at];
    return span.offset < text.size()
               ? text.substr(span.offset, span.length)
               : std::string_view(arena).substr(span.offset - text.size(),
                                                span.length);
  }
};

// Splits and parses the records of text[begin, end) in one pass: the
// first `skip` (the header) are passed over and the next is data row
// `first_row`. A kNumber cell is parsed straight into its column (a NULL
// token before a number); the column's first cell that does not parse
// marks it failed, and its later cells in the chunk are skipped. kLabel
// cells are kept as spans. Stops at the first unterminated quote.
void ParseChunk(const Dialect& dialect, const NullTokens& nulls,
                std::string_view text, size_t begin, size_t end, size_t skip,
                size_t first_row, const ColumnPlan& plan, ChunkResult* out) {
  const size_t num_cols = plan.roles.size();
  std::vector<Role> roles = plan.roles;
  out->failed.assign(num_cols, 0);
  std::string scratch;
  size_t record = 0;
  ForEachRecord(text, begin, end, [&](std::string_view line) {
    const size_t r = record++;
    if (r < skip) return true;
    const size_t row = first_row + (r - skip);
    const size_t first_label = out->labels.size();
    const char* const line_end = line.data() + line.size();
    size_t c = 0;
    for (size_t i = 0;; ++c) {
      const Role role = c < num_cols ? roles[c] : Role::kSkip;
      if (role == Role::kNumber && dialect.numbers_stop_at_delim) {
        // Most numeric cells are a number up to the delimiter, which
        // ParseDoublePrefix reads without first finding the cell's end.
        double value = 0.0;
        const char* number_end =
            ParseDoublePrefix(line.data() + i, line_end, &value);
        if (number_end != nullptr &&
            (number_end == line_end || *number_end == dialect.delim)) {
          const size_t cell_end = static_cast<size_t>(number_end - line.data());
          plan.values[c][row] = nulls.Matches(line.substr(i, cell_end - i))
                                    ? NullNumeric()
                                    : value;
          if (cell_end == line.size()) break;
          i = cell_end + 1;
          continue;
        }
      }
      std::string_view cell;
      bool escaped = false;
      const size_t cell_end =
          ScanCell(dialect, line, i, &scratch, &cell, &escaped);
      if (cell_end == kUnterminated) {
        out->status = UnterminatedQuoteError(line);
        return false;
      }
      if (role == Role::kNumber) {
        double& value = plan.values[c][row];
        if (nulls.Matches(cell)) {
          value = NullNumeric();
        } else if (Result<double> v = ParseDouble(cell); v.ok()) {
          value = *v;
        } else {
          out->failed[c] = 1;
          roles[c] = Role::kSkip;
        }
      } else if (role == Role::kLabel) {
        if (escaped) {
          out->labels.push_back({text.size() + out->arena.size(), cell.size()});
          out->arena += cell;
        } else {
          out->labels.push_back(
              {static_cast<size_t>(cell.data() - text.data()), cell.size()});
        }
      }
      if (cell_end == line.size()) break;
      i = cell_end + 1;  // past the delimiter
    }
    const size_t fields = c + 1;
    if (fields != num_cols && !out->ragged) {
      // The load fails; keep splitting only to report an unterminated
      // quote further down, which takes precedence.
      out->ragged = true;
      out->ragged_record = r;
      out->ragged_fields = fields;
      out->labels.resize(first_label);
      roles.assign(num_cols, Role::kSkip);
    }
    return true;
  });
}

}  // namespace

Result<Table> ReadCsvString(std::string_view text, const CsvOptions& options) {
  const size_t num_chunks =
      std::clamp<size_t>(text.size() / kCsvChunkBytes, 1, EffectiveThreads(0));
  return internal::ReadCsvStringChunked(text, options, num_chunks);
}

namespace internal {

// Count each chunk's records in parallel, which fixes every chunk's first
// row. Split the first record (the column count, and the names under a
// header) and the type-inference sample (the first inference_rows data
// records) on the calling thread and infer each column's type. Then one
// parallel pass per chunk parses the numeric columns' cells straight into
// their columns and keeps spans of the categorical columns' cells. A
// numeric column with a cell that does not parse in any chunk is
// categorical, and a second pass keeps its cells too. Errors are reported
// in the precedence of a split-everything-then-validate reader: the first
// unterminated quote, then an empty input, then the first record (by
// global record number) whose cell count differs from the first record's.
// Categorical columns are filled one per task, in row order, so each
// dictionary lists labels by first appearance.
Result<Table> ReadCsvStringChunked(std::string_view text,
                                   const CsvOptions& options,
                                   size_t num_chunks) {
  // Arena offsets are biased by the input size; keep them from wrapping.
  if (text.size() > std::numeric_limits<size_t>::max() / 2) {
    return Status::ParseError("CSV input too large");
  }
  num_chunks = std::max<size_t>(num_chunks, 1);
  const std::vector<size_t> bounds = ChunkBounds(text, num_chunks);
  // record_base[k]: global number of chunk k's first record.
  std::vector<size_t> record_base(num_chunks + 1, 0);
  ParallelForEach(num_chunks, num_chunks, [&](size_t k) {
    ForEachRecord(text, bounds[k], bounds[k + 1], [&](std::string_view) {
      ++record_base[k + 1];
      return true;
    });
  });
  for (size_t k = 0; k < num_chunks; ++k) record_base[k + 1] += record_base[k];
  const size_t num_records = record_base.back();
  // A line holding a quote is not blank, so an input without records has
  // no unterminated quote to report first.
  if (num_records == 0) {
    return Status::ParseError("CSV input contains no records");
  }

  // The first record and the sample, a prefix of the input: an
  // unterminated quote in it is the input's first.
  const Dialect dialect(options.delimiter);
  const NullTokens nulls(options.null_tokens);
  const size_t first_data = options.has_header ? 1 : 0;
  const size_t num_rows = num_records - first_data;
  const size_t sample_end =
      first_data + std::min(num_rows, options.inference_rows);
  std::vector<std::string> first_cells;
  // numeric[c]: every sampled cell of column c is NULL or a number;
  // has_value[c]: at least one is a number.
  std::vector<uint8_t> numeric;
  std::vector<uint8_t> has_value;
  const auto infer = [&](size_t c, std::string_view cell) {
    if (c >= numeric.size() || numeric[c] == 0 || nulls.Matches(cell)) return;
    has_value[c] = 1;
    numeric[c] = ParseDouble(cell).ok() ? 1 : 0;
  };
  Status sample_status;
  size_t record = 0;
  std::string scratch;
  ForEachRecord(text, 0, text.size(), [&](std::string_view line) {
    const size_t r = record++;
    size_t fields = 0;
    if (r == 0) {
      fields = SplitRecord(dialect, line, &scratch,
                           [&](size_t, std::string_view cell) {
                             first_cells.emplace_back(cell);
                           });
      if (fields != kUnterminated) {
        numeric.assign(fields, 1);
        has_value.assign(fields, 0);
        if (first_data == 0 && sample_end > 0) {
          for (size_t c = 0; c < fields; ++c) infer(c, first_cells[c]);
        }
      }
    } else {
      fields = SplitRecord(dialect, line, &scratch,
                           [&](size_t c, std::string_view cell) {
                             infer(c, cell);
                           });
    }
    if (fields == kUnterminated) {
      sample_status = UnterminatedQuoteError(line);
      return false;
    }
    return record < sample_end;
  });
  ZIGGY_RETURN_NOT_OK(sample_status);
  const size_t num_cols = first_cells.size();
  std::vector<std::string> names;
  names.reserve(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    names.push_back(options.has_header ? std::move(first_cells[c])
                                       : "col" + std::to_string(c));
  }

  // skip[k]: chunk k's records before the first data record.
  std::vector<size_t> skip(num_chunks, 0);
  for (size_t k = 0; k < num_chunks; ++k) {
    if (record_base[k] < first_data) {
      skip[k] = std::min(record_base[k + 1], first_data) - record_base[k];
    }
  }
  const auto first_row = [&](size_t k) {
    return record_base[k] + skip[k] - first_data;
  };
  ColumnPlan plan;
  plan.roles.assign(num_cols, Role::kLabel);
  plan.values.assign(num_cols, nullptr);
  std::vector<size_t> numeric_cols;
  for (size_t c = 0; c < num_cols; ++c) {
    if (numeric[c] != 0 && has_value[c] != 0) {
      plan.roles[c] = Role::kNumber;
      numeric_cols.push_back(c);
    }
  }
  std::vector<std::vector<double>> values(num_cols);
  ParallelForEach(num_chunks, numeric_cols.size(), [&](size_t i) {
    values[numeric_cols[i]].resize(num_rows);
  });
  for (size_t c : numeric_cols) plan.values[c] = values[c].data();
  // A numeric column with a cell that does not parse in some chunk is
  // categorical: pass again, keeping its cells. The columns still numeric
  // parse as they did, so the second pass is the last.
  std::vector<ChunkResult> chunks;
  for (bool demoted = true; demoted;) {
    chunks = std::vector<ChunkResult>(num_chunks);
    ParallelForEach(num_chunks, num_chunks, [&](size_t k) {
      ParseChunk(dialect, nulls, text, bounds[k], bounds[k + 1], skip[k],
                 first_row(k), plan, &chunks[k]);
    });
    for (const ChunkResult& chunk : chunks) ZIGGY_RETURN_NOT_OK(chunk.status);
    for (size_t k = 0; k < num_chunks; ++k) {
      if (chunks[k].ragged) {
        return RaggedRecordError(record_base[k] + chunks[k].ragged_record,
                                 chunks[k].ragged_fields, num_cols);
      }
    }
    demoted = false;
    for (size_t c : numeric_cols) {
      if (std::any_of(chunks.begin(), chunks.end(), [c](const auto& chunk) {
            return chunk.failed[c] != 0;
          })) {
        plan.roles[c] = Role::kLabel;
        plan.values[c] = nullptr;
        values[c] = {};
        demoted = true;
      }
    }
  }

  std::vector<Column> columns;
  columns.reserve(num_cols);
  // label_cols[j]: the column whose cells are the chunks' j-th label slot.
  std::vector<size_t> label_cols;
  for (size_t c = 0; c < num_cols; ++c) {
    if (plan.roles[c] == Role::kNumber) {
      columns.push_back(
          Column::FromNumeric(std::move(names[c]), std::move(values[c])));
    } else {
      columns.push_back(Column::Categorical(std::move(names[c])));
      label_cols.push_back(c);
    }
  }
  ParallelForEach(num_chunks, label_cols.size(), [&](size_t j) {
    Column& column = columns[label_cols[j]];
    std::string label;
    for (const ChunkResult& chunk : chunks) {
      for (size_t at = j; at < chunk.labels.size(); at += label_cols.size()) {
        const std::string_view cell = chunk.Label(text, at);
        if (nulls.Matches(cell)) {
          label.clear();
        } else {
          label.assign(cell);
        }
        column.AppendLabel(label);
      }
    }
  });
  return Table::FromColumns(std::move(columns));
}

}  // namespace internal

namespace {

// Closes the descriptor it holds.
class ScopedFd {
 public:
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() {
    if (fd_ >= 0) close(fd_);
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  int get() const { return fd_; }

 private:
  int fd_;
};

// A file's bytes, read to its end.
struct FileBytes {
  std::unique_ptr<char[]> data;
  size_t size = 0;
};

// Reads `path` into an uninitialised buffer: a regular file in reads of
// its size, and whatever else it holds (a file that grew meanwhile, or a
// pipe) into a buffer that doubles.
Result<FileBytes> ReadFileBytes(const std::string& path) {
  const ScopedFd fd(open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (fd.get() < 0) return Status::IOError("cannot open file: '" + path + "'");
  struct stat st {};
  if (fstat(fd.get(), &st) != 0) {
    return Status::IOError("cannot stat file: '" + path + "': " +
                           std::strerror(errno));
  }
  // One byte past a regular file's size, so its last read sees the end
  // without growing the buffer.
  size_t capacity = S_ISREG(st.st_mode) && st.st_size > 0
                        ? static_cast<size_t>(st.st_size) + 1
                        : size_t{1} << 16;
  FileBytes bytes;
  bytes.data = std::make_unique_for_overwrite<char[]>(capacity);
  for (;;) {
    if (bytes.size == capacity) {
      capacity *= 2;
      auto grown = std::make_unique_for_overwrite<char[]>(capacity);
      std::memcpy(grown.get(), bytes.data.get(), bytes.size);
      bytes.data = std::move(grown);
    }
    const ssize_t got =
        read(fd.get(), bytes.data.get() + bytes.size, capacity - bytes.size);
    if (got == 0) return bytes;
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("cannot read file: '" + path + "': " +
                             std::strerror(errno));
    }
    bytes.size += static_cast<size_t>(got);
  }
}

}  // namespace

Result<Table> ReadCsvFile(const std::string& path, const CsvOptions& options) {
  ZIGGY_ASSIGN_OR_RETURN(const FileBytes bytes, ReadFileBytes(path));
  return ReadCsvString(std::string_view(bytes.data.get(), bytes.size),
                       options);
}

namespace {
// Quotes a field the reader would not give back verbatim unquoted: one
// holding the delimiter, a quote, '\n' or '\r' (dropped outside quotes),
// or leading or trailing whitespace (a whitespace-only field alone on a
// line would make the line blank, and blank lines are skipped).
std::string QuoteCsvField(const std::string& field, char delim) {
  const char specials[] = {delim, '"', '\n', '\r'};
  const bool needs_quote =
      field.find_first_of(std::string_view(specials, sizeof(specials))) !=
          std::string::npos ||
      (!field.empty() && TrimWhitespace(field).size() != field.size());
  if (!needs_quote) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}
}  // namespace

std::string WriteCsvString(const Table& table, char delimiter) {
  std::ostringstream os;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c > 0) os << delimiter;
    os << QuoteCsvField(table.column(c).name(), delimiter);
  }
  os << "\n";
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) os << delimiter;
      const Column& col = table.column(c);
      if (col.IsNull(r)) continue;  // empty field encodes NULL
      if (col.is_numeric()) {
        os << FormatDouble(col.numeric_data()[r], 17);
      } else {
        os << QuoteCsvField(col.dictionary()[static_cast<size_t>(col.codes()[r])],
                            delimiter);
      }
    }
    os << "\n";
  }
  return os.str();
}

Status WriteCsvFile(const Table& table, const std::string& path, char delimiter) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open file for writing: '" + path + "'");
  out << WriteCsvString(table, delimiter);
  if (!out) return Status::IOError("write failed: '" + path + "'");
  return Status::OK();
}

}  // namespace ziggy
