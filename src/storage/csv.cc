#include "storage/csv.h"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/string_util.h"

namespace ziggy {

namespace {

// One cell of the split input: `length` bytes at `offset` in the combined
// address space [text | arena]. Cells that needed no unescaping point
// straight into the text; quoted cells and cells with a dropped '\r' were
// unescaped into the arena.
struct CellSpan {
  size_t offset;
  size_t length;
};

// The input split into records of cells, row-major.
struct SplitText {
  std::string_view text;
  std::string arena;
  std::vector<CellSpan> cells;
  size_t num_cols = 0;
  size_t num_records = 0;

  std::string_view Cell(size_t record, size_t col) const {
    const CellSpan& span = cells[record * num_cols + col];
    const char* data = span.offset < text.size()
                           ? text.data() + span.offset
                           : arena.data() + (span.offset - text.size());
    return {data, span.length};
  }
};

// Splits `text` in one pass over its bytes. Records are '\n'-terminated
// lines; lines that are blank after trimming are skipped. In a record, a
// '"' opens or closes quoting ("" inside quotes is a literal quote), the
// delimiter ends a cell outside quotes, and '\r' is dropped outside quotes
// and kept inside them. A quote never spans lines.
//
// Errors keep the precedence of a split-everything-then-validate reader:
// the first unterminated quote anywhere wins, then an empty input, then
// the first record whose cell count differs from the first record's.
Status SplitCsvText(std::string_view text, char delim, SplitText* out) {
  const size_t n = text.size();
  // Arena offsets are biased by n; keep the biased space from wrapping.
  if (n > std::numeric_limits<size_t>::max() / 2) {
    return Status::ParseError("CSV input too large");
  }
  std::array<bool, 256> special{};
  special[static_cast<unsigned char>(delim)] = true;
  special[static_cast<unsigned char>('"')] = true;
  special[static_cast<unsigned char>('\r')] = true;
  const bool delim_is_quote = delim == '"';

  out->text = text;
  std::vector<CellSpan>& cells = out->cells;
  std::string& arena = out->arena;
  size_t ragged_record = 0;
  size_t ragged_fields = 0;
  bool ragged = false;
  size_t pos = 0;
  while (pos < n) {
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
          return Status::ParseError("unterminated quote in CSV record: '" +
                                    std::string(line) + "'");
        }
        cells.push_back({n + arena_start, arena.size() - arena_start});
      }
      if (i == end) break;
      ++i;  // past the delimiter
    }
    const size_t fields = cells.size() - first_cell;
    if (out->num_records == 0) {
      out->num_cols = fields;
    } else if (ragged || fields != out->num_cols) {
      // The load fails; keep splitting only to report an unterminated
      // quote further down, which takes precedence.
      if (!ragged) {
        ragged = true;
        ragged_record = out->num_records;
        ragged_fields = fields;
      }
      cells.resize(first_cell);
    }
    ++out->num_records;
    pos = next;
  }
  if (out->num_records == 0) {
    return Status::ParseError("CSV input contains no records");
  }
  if (ragged) {
    return Status::ParseError(
        "CSV record " + std::to_string(ragged_record) + " has " +
        std::to_string(ragged_fields) + " fields, expected " +
        std::to_string(out->num_cols));
  }
  return Status::OK();
}

bool IsNullToken(std::string_view token, const CsvOptions& options) {
  if (token.empty()) return true;
  for (const auto& t : options.null_tokens) {
    if (token == t) return true;
  }
  return false;
}

Column CategoricalColumn(const SplitText& split, size_t first_data, size_t col,
                         std::string name, const CsvOptions& options) {
  Column column = Column::Categorical(std::move(name));
  std::string label;
  for (size_t r = first_data; r < split.num_records; ++r) {
    const std::string_view tok = split.Cell(r, col);
    if (IsNullToken(tok, options)) {
      label.clear();
    } else {
      label.assign(tok);
    }
    column.AppendLabel(label);
  }
  return column;
}

}  // namespace

// Split once, infer each column's type from the first inference_rows data
// records, then parse the numeric columns row by row (the order the cells
// lie in memory). A numeric column whose later cell fails to parse falls
// back to categorical.
Result<Table> ReadCsvString(std::string_view text, const CsvOptions& options) {
  SplitText split;
  ZIGGY_RETURN_NOT_OK(SplitCsvText(text, options.delimiter, &split));
  const size_t num_cols = split.num_cols;
  std::vector<std::string> names;
  names.reserve(num_cols);
  size_t first_data = 0;
  if (options.has_header) {
    for (size_t c = 0; c < num_cols; ++c) {
      names.emplace_back(split.Cell(0, c));
    }
    first_data = 1;
  } else {
    for (size_t c = 0; c < num_cols; ++c) {
      names.push_back("col" + std::to_string(c));
    }
  }
  const size_t num_rows = split.num_records - first_data;

  // Type inference over a sample prefix. `active` lists the columns still
  // parsing as numeric.
  std::vector<size_t> active;
  std::vector<bool> is_numeric(num_cols, false);
  const size_t sample_end =
      first_data + std::min(num_rows, options.inference_rows);
  for (size_t c = 0; c < num_cols; ++c) {
    bool all_numeric = true;
    bool any_value = false;
    for (size_t r = first_data; r < sample_end; ++r) {
      const std::string_view tok = split.Cell(r, c);
      if (IsNullToken(tok, options)) continue;
      any_value = true;
      if (!ParseDouble(tok).ok()) {
        all_numeric = false;
        break;
      }
    }
    if (any_value && all_numeric) {
      active.push_back(c);
      is_numeric[c] = true;
    }
  }

  std::vector<std::vector<double>> values(num_cols);
  for (size_t c : active) values[c].reserve(num_rows);
  for (size_t r = first_data; r < split.num_records && !active.empty(); ++r) {
    bool fell_back = false;
    for (size_t c : active) {
      const std::string_view tok = split.Cell(r, c);
      if (IsNullToken(tok, options)) {
        values[c].push_back(NullNumeric());
        continue;
      }
      Result<double> v = ParseDouble(tok);
      if (!v.ok()) {
        is_numeric[c] = false;
        fell_back = true;
        continue;
      }
      values[c].push_back(*v);
    }
    if (fell_back) {
      std::erase_if(active, [&](size_t c) { return !is_numeric[c]; });
    }
  }

  std::vector<Column> columns;
  columns.reserve(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    if (is_numeric[c]) {
      columns.push_back(
          Column::FromNumeric(std::move(names[c]), std::move(values[c])));
    } else {
      columns.push_back(CategoricalColumn(split, first_data, c,
                                          std::move(names[c]), options));
    }
  }
  return Table::FromColumns(std::move(columns));
}

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
