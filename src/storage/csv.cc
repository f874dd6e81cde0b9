#include "storage/csv.h"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/parallel.h"
#include "common/string_util.h"

namespace ziggy {

namespace {

// Input bytes per chunk of the chunk-parallel reader: an input below two
// chunks is read on the calling thread.
constexpr size_t kCsvChunkBytes = size_t{1} << 18;

// One cell of the split input: `length` bytes at `offset` in the combined
// address space [text | arena]. Cells that needed no unescaping point
// straight into the text; quoted cells and cells with a dropped '\r' were
// unescaped into the chunk's arena.
struct CellSpan {
  size_t offset;
  size_t length;
};

// One chunk of the input split into records of cells, row-major.
struct SplitText {
  std::string_view text;  // the whole input; cell offsets are into it
  std::string arena;
  std::vector<CellSpan> cells;
  size_t num_cols = 0;  // cell count of the chunk's first record
  size_t num_records = 0;
  // The chunk's first record (chunk-local index) whose cell count differs
  // from its first record's. Its cells and those of every later record
  // are dropped.
  bool ragged = false;
  size_t ragged_record = 0;
  size_t ragged_fields = 0;
  Status status;  // the chunk's first unterminated quote

  std::string_view Cell(size_t record, size_t col) const {
    const CellSpan& span = cells[record * num_cols + col];
    const char* data = span.offset < text.size()
                           ? text.data() + span.offset
                           : arena.data() + (span.offset - text.size());
    return {data, span.length};
  }
};

// Splits text[begin, end) in one pass over its bytes; `begin` starts a
// line and `end` ends one. Records are '\n'-terminated lines; lines that
// are blank after trimming are skipped. In a record, a '"' opens or closes
// quoting ("" inside quotes is a literal quote), the delimiter ends a cell
// outside quotes, and '\r' is dropped outside quotes and kept inside them.
// A quote never spans lines, so every '\n' ends a record and chunks split
// independently. Stops at the first unterminated quote (out->status).
void SplitCsvText(std::string_view text, size_t begin, size_t end_of_chunk,
                  char delim, SplitText* out) {
  const size_t n = text.size();
  std::array<bool, 256> special{};
  special[static_cast<unsigned char>(delim)] = true;
  special[static_cast<unsigned char>('"')] = true;
  special[static_cast<unsigned char>('\r')] = true;
  const bool delim_is_quote = delim == '"';

  out->text = text;
  std::vector<CellSpan>& cells = out->cells;
  std::string& arena = out->arena;
  size_t pos = begin;
  while (pos < end_of_chunk) {
    const size_t nl = text.find('\n', pos);
    const size_t end = nl == std::string_view::npos ? n : nl;
    const size_t next = nl == std::string_view::npos ? n : nl + 1;
    const std::string_view line = text.substr(pos, end - pos);
    if (TrimWhitespace(line).empty()) {
      pos = next;
      continue;
    }
    const size_t first_cell = cells.size();
    size_t i = pos;
    for (;;) {
      const size_t start = i;
      while (i < end && !special[static_cast<unsigned char>(text[i])]) ++i;
      if (i == end || (text[i] == delim && !delim_is_quote)) {
        cells.push_back({start, i - start});
      } else {
        const size_t arena_start = arena.size();
        arena.append(text.data() + start, i - start);
        bool in_quotes = false;
        for (; i < end; ++i) {
          const char c = text[i];
          if (in_quotes) {
            if (c == '"') {
              if (i + 1 < end && text[i + 1] == '"') {
                arena += '"';
                ++i;
              } else {
                in_quotes = false;
              }
            } else {
              arena += c;
            }
          } else if (c == '"') {
            in_quotes = true;
          } else if (c == delim) {
            break;
          } else if (c != '\r') {
            arena += c;
          }
        }
        if (in_quotes) {
          out->status = Status::ParseError(
              "unterminated quote in CSV record: '" + std::string(line) + "'");
          return;
        }
        cells.push_back({n + arena_start, arena.size() - arena_start});
      }
      if (i == end) break;
      ++i;  // past the delimiter
    }
    const size_t fields = cells.size() - first_cell;
    if (out->num_records == 0) {
      out->num_cols = fields;
    } else if (out->ragged || fields != out->num_cols) {
      // The load fails; keep splitting only to report an unterminated
      // quote further down, which takes precedence.
      if (!out->ragged) {
        out->ragged = true;
        out->ragged_record = out->num_records;
        out->ragged_fields = fields;
      }
      cells.resize(first_cell);
    }
    ++out->num_records;
    pos = next;
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

Status RaggedRecordError(size_t record, size_t fields, size_t num_cols) {
  return Status::ParseError("CSV record " + std::to_string(record) + " has " +
                            std::to_string(fields) + " fields, expected " +
                            std::to_string(num_cols));
}

bool IsNullToken(std::string_view token, const CsvOptions& options) {
  if (token.empty()) return true;
  for (const auto& t : options.null_tokens) {
    if (token == t) return true;
  }
  return false;
}

}  // namespace

Result<Table> ReadCsvString(std::string_view text, const CsvOptions& options) {
  const size_t num_chunks =
      std::clamp<size_t>(text.size() / kCsvChunkBytes, 1, EffectiveThreads(0));
  return internal::ReadCsvStringChunked(text, options, num_chunks);
}

namespace internal {

// Split the chunks in parallel, then report errors in the precedence of a
// split-everything-then-validate reader: the first unterminated quote,
// then an empty input, then the first record (by global record number)
// whose cell count differs from the first record's. Infer each column's
// type from the first inference_rows data records, parse the numeric
// columns chunk by chunk in parallel (each chunk row by row, the order the
// cells lie in memory), and fill the categorical columns one per task. A
// numeric column whose cell fails to parse in any chunk is categorical.
Result<Table> ReadCsvStringChunked(std::string_view text,
                                   const CsvOptions& options,
                                   size_t num_chunks) {
  // Arena offsets are biased by the input size; keep them from wrapping.
  if (text.size() > std::numeric_limits<size_t>::max() / 2) {
    return Status::ParseError("CSV input too large");
  }
  num_chunks = std::max<size_t>(num_chunks, 1);
  const std::vector<size_t> bounds = ChunkBounds(text, num_chunks);
  std::vector<SplitText> chunks(num_chunks);
  ParallelForEach(num_chunks, num_chunks, [&](size_t k) {
    SplitCsvText(text, bounds[k], bounds[k + 1], options.delimiter,
                 &chunks[k]);
  });
  for (const SplitText& chunk : chunks) ZIGGY_RETURN_NOT_OK(chunk.status);
  // record_base[k]: global number of chunk k's first record.
  std::vector<size_t> record_base(num_chunks + 1, 0);
  for (size_t k = 0; k < num_chunks; ++k) {
    record_base[k + 1] = record_base[k] + chunks[k].num_records;
  }
  const size_t num_records = record_base.back();
  if (num_records == 0) {
    return Status::ParseError("CSV input contains no records");
  }
  const auto chunk_of = [&record_base](size_t record) {
    return static_cast<size_t>(std::upper_bound(record_base.begin(),
                                                record_base.end(), record) -
                               record_base.begin()) -
           1;
  };
  const auto cell = [&](size_t record, size_t col) {
    const size_t k = chunk_of(record);
    return chunks[k].Cell(record - record_base[k], col);
  };
  const size_t num_cols = chunks[chunk_of(0)].num_cols;
  for (size_t k = 0; k < num_chunks; ++k) {
    const SplitText& chunk = chunks[k];
    if (chunk.num_records == 0) continue;
    if (chunk.num_cols != num_cols) {
      return RaggedRecordError(record_base[k], chunk.num_cols, num_cols);
    }
    if (chunk.ragged) {
      return RaggedRecordError(record_base[k] + chunk.ragged_record,
                               chunk.ragged_fields, num_cols);
    }
  }

  std::vector<std::string> names;
  names.reserve(num_cols);
  size_t first_data = 0;
  if (options.has_header) {
    for (size_t c = 0; c < num_cols; ++c) names.emplace_back(cell(0, c));
    first_data = 1;
  } else {
    for (size_t c = 0; c < num_cols; ++c) {
      names.push_back("col" + std::to_string(c));
    }
  }
  const size_t num_rows = num_records - first_data;
  // Chunk-local index of chunk k's first data record.
  const auto first_data_record = [&](size_t k) {
    return record_base[k] < first_data
               ? std::min(chunks[k].num_records, first_data - record_base[k])
               : 0;
  };

  // Type inference over a sample prefix. `active` lists the columns still
  // parsing as numeric.
  std::vector<size_t> active;
  const size_t sample_end =
      first_data + std::min(num_rows, options.inference_rows);
  for (size_t c = 0; c < num_cols; ++c) {
    bool all_numeric = true;
    bool any_value = false;
    for (size_t r = first_data; r < sample_end; ++r) {
      const std::string_view tok = cell(r, c);
      if (IsNullToken(tok, options)) continue;
      any_value = true;
      if (!ParseDouble(tok).ok()) {
        all_numeric = false;
        break;
      }
    }
    if (any_value && all_numeric) active.push_back(c);
  }

  // failed[k * num_cols + c]: column c has a cell in chunk k that does not
  // parse as a number.
  std::vector<std::vector<double>> values(num_cols);
  for (size_t c : active) values[c].resize(num_rows);
  std::vector<uint8_t> failed(num_chunks * num_cols, 0);
  ParallelForEach(num_chunks, num_chunks, [&](size_t k) {
    const SplitText& chunk = chunks[k];
    uint8_t* chunk_failed = failed.data() + k * num_cols;
    std::vector<size_t> cols = active;
    for (size_t r = first_data_record(k); r < chunk.num_records && !cols.empty();
         ++r) {
      const size_t row = record_base[k] + r - first_data;
      bool fell_back = false;
      for (size_t c : cols) {
        const std::string_view tok = chunk.Cell(r, c);
        if (IsNullToken(tok, options)) {
          values[c][row] = NullNumeric();
          continue;
        }
        Result<double> v = ParseDouble(tok);
        if (!v.ok()) {
          chunk_failed[c] = 1;
          fell_back = true;
          continue;
        }
        values[c][row] = *v;
      }
      if (fell_back) {
        std::erase_if(cols, [&](size_t c) { return chunk_failed[c] != 0; });
      }
    }
  });
  std::vector<bool> is_numeric(num_cols, false);
  for (size_t c : active) {
    is_numeric[c] = true;
    for (size_t k = 0; k < num_chunks; ++k) {
      if (failed[k * num_cols + c] != 0) is_numeric[c] = false;
    }
  }

  std::vector<Column> columns;
  columns.reserve(num_cols);
  std::vector<size_t> categorical;
  for (size_t c = 0; c < num_cols; ++c) {
    if (is_numeric[c]) {
      columns.push_back(
          Column::FromNumeric(std::move(names[c]), std::move(values[c])));
    } else {
      columns.push_back(Column::Categorical(std::move(names[c])));
      categorical.push_back(c);
    }
  }
  // Labels in row order, so each dictionary lists labels by first
  // appearance.
  ParallelForEach(num_chunks, categorical.size(), [&](size_t i) {
    const size_t c = categorical[i];
    std::string label;
    for (size_t k = 0; k < num_chunks; ++k) {
      for (size_t r = first_data_record(k); r < chunks[k].num_records; ++r) {
        const std::string_view tok = chunks[k].Cell(r, c);
        if (IsNullToken(tok, options)) {
          label.clear();
        } else {
          label.assign(tok);
        }
        columns[c].AppendLabel(label);
      }
    }
  });
  return Table::FromColumns(std::move(columns));
}

}  // namespace internal

Result<Table> ReadCsvFile(const std::string& path, const CsvOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open file: '" + path + "'");
  // One sized read for a regular file; whatever else the stream holds (a
  // file that grew meanwhile, or a non-regular file) is appended after.
  std::string text;
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (!ec) {
    text.resize(static_cast<size_t>(size));
    in.read(text.data(), static_cast<std::streamsize>(size));
    text.resize(static_cast<size_t>(in.gcount()));
  }
  if (in) {
    std::ostringstream rest;
    rest << in.rdbuf();
    text += rest.str();
  }
  return ReadCsvString(text, options);
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
