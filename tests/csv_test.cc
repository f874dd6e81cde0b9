// Unit tests for CSV import/export (storage/csv.h).

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/random.h"
#include "common/string_util.h"
#include "data/synthetic.h"
#include "storage/csv.h"

namespace ziggy {
namespace {

// ---------------------------------------------------------------------------
// Reference implementation: the line-at-a-time reader (getline, one
// std::string per cell, strtod on every token) and the writer it shipped
// with, kept verbatim as the oracle of the differential tests below.
namespace reference {

Result<double> ParseDouble(std::string_view s) {
  s = TrimWhitespace(s);
  if (s.empty()) return Status::ParseError("empty numeric token");
  std::string buf(s);
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) {
    return Status::ParseError("invalid numeric token: '" + buf + "'");
  }
  return v;
}

bool SplitCsvRecord(std::string_view line, char delim,
                    std::vector<std::string>* out) {
  out->clear();
  std::string cur;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == delim) {
      out->push_back(std::move(cur));
      cur.clear();
    } else if (c != '\r') {
      cur += c;
    }
  }
  out->push_back(std::move(cur));
  return !in_quotes;
}

bool IsNullToken(const std::string& token, const CsvOptions& options) {
  if (token.empty()) return true;
  for (const auto& t : options.null_tokens) {
    if (token == t) return true;
  }
  return false;
}

Result<Table> ReadCsvString(const std::string& text,
                            const CsvOptions& options) {
  std::vector<std::vector<std::string>> records;
  {
    std::istringstream is(text);
    std::string line;
    std::vector<std::string> fields;
    while (std::getline(is, line)) {
      if (TrimWhitespace(line).empty()) continue;
      if (!SplitCsvRecord(line, options.delimiter, &fields)) {
        return Status::ParseError("unterminated quote in CSV record: '" +
                                  line + "'");
      }
      records.push_back(fields);
    }
  }
  if (records.empty()) {
    return Status::ParseError("CSV input contains no records");
  }

  std::vector<std::string> names;
  size_t first_data = 0;
  if (options.has_header) {
    names = records[0];
    first_data = 1;
  } else {
    for (size_t i = 0; i < records[0].size(); ++i) {
      names.push_back("col" + std::to_string(i));
    }
  }
  const size_t num_cols = names.size();
  for (size_t r = first_data; r < records.size(); ++r) {
    if (records[r].size() != num_cols) {
      return Status::ParseError("CSV record " + std::to_string(r) + " has " +
                                std::to_string(records[r].size()) +
                                " fields, expected " +
                                std::to_string(num_cols));
    }
  }
  const size_t num_rows = records.size() - first_data;

  // Type inference over a sample prefix.
  std::vector<ColumnType> types(num_cols, ColumnType::kNumeric);
  for (size_t c = 0; c < num_cols; ++c) {
    size_t seen = 0;
    bool all_numeric = true;
    bool any_value = false;
    for (size_t r = first_data;
         r < records.size() && seen < options.inference_rows; ++r, ++seen) {
      const std::string& tok = records[r][c];
      if (IsNullToken(tok, options)) continue;
      any_value = true;
      if (!ParseDouble(tok).ok()) {
        all_numeric = false;
        break;
      }
    }
    types[c] = (any_value && all_numeric) ? ColumnType::kNumeric
                                          : ColumnType::kCategorical;
  }

  std::vector<Column> columns;
  columns.reserve(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    if (types[c] == ColumnType::kNumeric) {
      std::vector<double> vals;
      vals.reserve(num_rows);
      for (size_t r = first_data; r < records.size(); ++r) {
        const std::string& tok = records[r][c];
        if (IsNullToken(tok, options)) {
          vals.push_back(NullNumeric());
          continue;
        }
        Result<double> v = ParseDouble(tok);
        if (!v.ok()) {
          // Inference sampled a numeric prefix but a later row disagrees:
          // fall back to categorical for this column.
          Column cc = Column::Categorical(names[c]);
          for (size_t rr = first_data; rr < records.size(); ++rr) {
            const std::string& t2 = records[rr][c];
            cc.AppendLabel(IsNullToken(t2, options) ? std::string() : t2);
          }
          columns.push_back(std::move(cc));
          vals.clear();
          break;
        }
        vals.push_back(*v);
      }
      if (!vals.empty() || num_rows == 0) {
        columns.push_back(Column::FromNumeric(names[c], std::move(vals)));
      }
    } else {
      Column cc = Column::Categorical(names[c]);
      for (size_t r = first_data; r < records.size(); ++r) {
        const std::string& tok = records[r][c];
        cc.AppendLabel(IsNullToken(tok, options) ? std::string() : tok);
      }
      columns.push_back(std::move(cc));
    }
  }
  return Table::FromColumns(std::move(columns));
}

std::string QuoteCsvField(const std::string& field, char delim) {
  bool needs_quote = field.find(delim) != std::string::npos ||
                     field.find('"') != std::string::npos ||
                     field.find('\n') != std::string::npos;
  if (!needs_quote) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

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
        os << QuoteCsvField(
            col.dictionary()[static_cast<size_t>(col.codes()[r])], delimiter);
      }
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace reference

TEST(CsvTest, BasicParseWithHeader) {
  auto t = ReadCsvString("a,b,s\n1,2.5,x\n3,4.5,y\n").ValueOrDie();
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.num_columns(), 3u);
  EXPECT_EQ(t.schema().field(0).type, ColumnType::kNumeric);
  EXPECT_EQ(t.schema().field(2).type, ColumnType::kCategorical);
  EXPECT_DOUBLE_EQ(t.column(1).numeric_data()[1], 4.5);
  EXPECT_EQ(t.column(2).ValueAsString(0), "x");
}

TEST(CsvTest, NoHeaderGeneratesNames) {
  CsvOptions opts;
  opts.has_header = false;
  auto t = ReadCsvString("1,foo\n2,bar\n", opts).ValueOrDie();
  EXPECT_EQ(t.schema().field(0).name, "col0");
  EXPECT_EQ(t.schema().field(1).name, "col1");
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(CsvTest, NullTokens) {
  auto t = ReadCsvString("a,s\nNA,x\n2,?\n,NULL\n").ValueOrDie();
  EXPECT_EQ(t.column(0).null_count(), 2u);
  EXPECT_EQ(t.column(1).null_count(), 2u);
}

TEST(CsvTest, QuotedFieldsWithDelimitersAndEscapes) {
  auto t = ReadCsvString("s\n\"a,b\"\n\"he said \"\"hi\"\"\"\n").ValueOrDie();
  EXPECT_EQ(t.column(0).ValueAsString(0), "a,b");
  EXPECT_EQ(t.column(0).ValueAsString(1), "he said \"hi\"");
}

TEST(CsvTest, UnterminatedQuoteIsParseError) {
  auto r = ReadCsvString("s\n\"unclosed\n");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
}

TEST(CsvTest, RaggedRecordIsParseError) {
  auto r = ReadCsvString("a,b\n1,2\n3\n");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
}

TEST(CsvTest, EmptyInputIsParseError) {
  EXPECT_TRUE(ReadCsvString("").status().IsParseError());
  EXPECT_TRUE(ReadCsvString("\n\n").status().IsParseError());
}

TEST(CsvTest, TypeInferenceFallsBackWhenLaterRowsDisagree) {
  // Inference sample says numeric, a later row is textual: column must
  // gracefully become categorical.
  CsvOptions opts;
  opts.inference_rows = 2;
  std::string text = "a\n1\n2\n";
  for (int i = 0; i < 50; ++i) text += std::to_string(i) + "\n";
  text += "oops\n";
  auto t = ReadCsvString(text, opts).ValueOrDie();
  EXPECT_EQ(t.schema().field(0).type, ColumnType::kCategorical);
  EXPECT_EQ(t.column(0).ValueAsString(0), "1");
}

TEST(CsvTest, AllNullColumnIsCategorical) {
  auto t = ReadCsvString("a,b\nNA,1\nNA,2\n").ValueOrDie();
  EXPECT_EQ(t.schema().field(0).type, ColumnType::kCategorical);
  EXPECT_EQ(t.column(0).null_count(), 2u);
}

TEST(CsvTest, CustomDelimiter) {
  CsvOptions opts;
  opts.delimiter = ';';
  auto t = ReadCsvString("a;b\n1;2\n", opts).ValueOrDie();
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_DOUBLE_EQ(t.column(1).numeric_data()[0], 2.0);
}

TEST(CsvTest, CrLfLineEndings) {
  auto t = ReadCsvString("a,b\r\n1,2\r\n3,4\r\n").ValueOrDie();
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(t.column(0).numeric_data()[1], 3.0);
}

TEST(CsvTest, WriteReadRoundTrip) {
  auto t = ReadCsvString("num,txt\n1.5,alpha\n-2,\"with,comma\"\n,beta\n").ValueOrDie();
  const std::string serialized = WriteCsvString(t);
  auto t2 = ReadCsvString(serialized).ValueOrDie();
  ASSERT_EQ(t2.num_rows(), t.num_rows());
  ASSERT_EQ(t2.num_columns(), t.num_columns());
  EXPECT_DOUBLE_EQ(t2.column(0).numeric_data()[0], 1.5);
  EXPECT_TRUE(t2.column(0).IsNull(2));
  EXPECT_EQ(t2.column(1).ValueAsString(1), "with,comma");
}

TEST(CsvTest, FileRoundTrip) {
  auto t = ReadCsvString("x\n1\n2\n").ValueOrDie();
  const std::string path = testing::TempDir() + "/ziggy_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(t, path).ok());
  auto t2 = ReadCsvFile(path).ValueOrDie();
  EXPECT_EQ(t2.num_rows(), 2u);
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileIsIOError) {
  EXPECT_TRUE(ReadCsvFile("/nonexistent/path/data.csv").status().IsIOError());
}

TEST(CsvTest, NumericPrecisionSurvivesRoundTrip) {
  auto t = Table::FromColumns({Column::FromNumeric("v", {0.1, 1e-17, 12345678.9012345})})
               .ValueOrDie();
  auto t2 = ReadCsvString(WriteCsvString(t)).ValueOrDie();
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(t2.column(0).numeric_data()[i], t.column(0).numeric_data()[i]);
  }
}

// Byte-identical tables: names, types, numeric bit patterns (NaN
// payloads included), dictionaries in order, and codes.
void ExpectSameTable(const Table& got, const Table& want) {
  ASSERT_EQ(got.num_columns(), want.num_columns());
  ASSERT_EQ(got.num_rows(), want.num_rows());
  for (size_t c = 0; c < want.num_columns(); ++c) {
    const Column& g = got.column(c);
    const Column& w = want.column(c);
    EXPECT_EQ(g.name(), w.name()) << "column " << c;
    ASSERT_EQ(g.type(), w.type()) << "column " << c;
    if (w.is_numeric()) {
      ASSERT_EQ(g.numeric_data().size(), w.numeric_data().size());
      EXPECT_EQ(std::memcmp(g.numeric_data().data(), w.numeric_data().data(),
                            w.numeric_data().size() * sizeof(double)),
                0)
          << "column " << c;
    } else {
      EXPECT_EQ(g.dictionary(), w.dictionary()) << "column " << c;
      EXPECT_EQ(g.codes(), w.codes()) << "column " << c;
    }
  }
}

void ExpectSameResult(const Result<Table>& got, const Result<Table>& want) {
  ASSERT_EQ(got.ok(), want.ok())
      << (got.ok() ? want.status() : got.status()).ToString();
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().ToString(), want.status().ToString());
    return;
  }
  ExpectSameTable(*got, *want);
}

// The reader under test and the reference agree: the same error code and
// text, or byte-identical tables. So does the reader with the input cut
// into 1 to 8 chunks.
void ExpectMatchesReference(const std::string& text,
                            const CsvOptions& options = {}) {
  const Result<Table> want = reference::ReadCsvString(text, options);
  ExpectSameResult(ReadCsvString(text, options), want);
  for (size_t chunks = 1; chunks <= 8; ++chunks) {
    SCOPED_TRACE(std::to_string(chunks) + " chunks");
    ExpectSameResult(internal::ReadCsvStringChunked(text, options, chunks),
                     want);
  }
}

TEST(CsvDifferentialTest, ParseDoubleTokensMatchStrtod) {
  const char* const tokens[] = {
      "+2", " 1.5 ", "0x10", ".5", "5.", "1e", "--1", "inf", "-inf", "Infinity",
      "-nan", "nan", "nan(0x5)", "NAN", "1e-310", "1e-400", "1e400", "-0", "0",
      "0.0", "0e999999", "4.9e-324", "2.2250738585072014e-308",
      "2.2250738585072012e-308", "2.2250738585072011e-308",
      "-2.2250738585072012e-308", "1.7976931348623157e308",
      "1.7976931348623159e308", "12345678.9012345", "0.1", "-3.25e-7", "1E5",
      "\t7\n", "", " ", "1 2", "1,5", "1e+", "e5", ".", "-", "+", "0x1p-3",
      "00012", "1_000", "0.30000000000000004",
      "123456789012345678901234567890"};
  for (const char* token : tokens) {
    const Result<double> got = ParseDouble(token);
    const Result<double> want = reference::ParseDouble(token);
    ASSERT_EQ(got.ok(), want.ok()) << "token '" << token << "'";
    if (!want.ok()) {
      EXPECT_EQ(got.status().ToString(), want.status().ToString());
      continue;
    }
    const double g = *got;
    const double w = *want;
    EXPECT_EQ(std::memcmp(&g, &w, sizeof(double)), 0)
        << "token '" << token << "'";
  }
}

TEST(CsvDifferentialTest, DemoDatasetsMatchReference) {
  // The demo datasets' CSV bytes are unchanged by the writer's quoting
  // rule, and read back exactly as the reference reads them.
  for (const auto& dataset :
       {MakeBoxOfficeDataset(), MakeCrimeDataset(), MakeOecdDataset()}) {
    const Table& table = dataset.ValueOrDie().table;
    const std::string text = WriteCsvString(table);
    ASSERT_EQ(text, reference::WriteCsvString(table, ','));
    ExpectMatchesReference(text);
  }
}

size_t Pick(Rng* rng, size_t n) {
  return static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n) - 1));
}

// A random CSV document over the corners of the grammar: quoted
// delimiters, "" escapes, \r inside and outside quotes, CRLF, blank and
// whitespace-only lines, NULL tokens, odd number spellings, mid-cell
// quotes, a missing final newline, and now and then a ragged record or an
// unterminated quote.
std::string RandomCsv(Rng* rng, char delim) {
  const std::string d(1, delim);
  const std::vector<std::string> numbers = {
      "1", "-2.5", "+2", " 1.5 ", "0x10", ".5", "5.", "1e-310", "-0", "inf",
      "1e400", "3.0000000000000004", "NA", "?", "", "null"};
  const std::vector<std::string> texts = {
      "alpha", "\"a" + d + "b\"", "\"he said \"\"hi\"\"\"", "a\rb", "\"a\rb\"",
      "  ", "\" x \"", "ab\"c" + d + "d\"e", "N/A", "NULL", "", "\"\"", "x y"};
  const size_t cols = static_cast<size_t>(rng->UniformInt(1, 5));
  const size_t rows = static_cast<size_t>(rng->UniformInt(0, 30));
  std::vector<bool> numeric(cols);
  for (size_t c = 0; c < cols; ++c) numeric[c] = rng->Bernoulli(0.6);
  const auto line_end = [&] {
    return rng->Bernoulli(0.3) ? std::string("\r\n") : "\n";
  };
  std::string out;
  for (size_t c = 0; c < cols; ++c) {
    if (c > 0) out += d;
    const std::string name = "h" + std::to_string(c);
    out += rng->Bernoulli(0.2) ? "\"" + name + d + "\"" : name;
  }
  out += line_end();
  for (size_t r = 0; r < rows; ++r) {
    if (rng->Bernoulli(0.1)) {
      const char* blanks[] = {"", "   ", "\t", " \r", "\f"};
      out += blanks[rng->UniformInt(0, 4)];
      out += line_end();
    }
    size_t cells = cols;
    if (rng->Bernoulli(0.01)) cells += rng->Bernoulli(0.5) ? 1 : cols - 1;
    for (size_t c = 0; c < cells; ++c) {
      if (c > 0) out += d;
      const bool num = c < cols && numeric[c];
      if (num && rng->Bernoulli(0.8)) {
        out += rng->Bernoulli(0.5) ? FormatDouble(rng->Normal(0.0, 1e3), 17)
                                   : numbers[Pick(rng, numbers.size())];
      } else {
        out += texts[Pick(rng, texts.size())];
      }
    }
    if (rng->Bernoulli(0.01)) out += "\"oops";
    if (r + 1 < rows || rng->Bernoulli(0.7)) out += line_end();
  }
  return out;
}

TEST(CsvDifferentialTest, RandomDocumentsMatchReference) {
  const char delims[] = {',', ';', '\t', '|'};
  size_t parsed = 0;
  for (uint64_t seed = 0; seed < 600; ++seed) {
    Rng rng(seed);
    CsvOptions options;
    options.delimiter = delims[seed % 4];
    options.has_header = seed % 5 != 0;
    const size_t inference[] = {1, 3, 100};
    options.inference_rows = inference[seed % 3];
    const std::string text = RandomCsv(&rng, options.delimiter);
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectMatchesReference(text, options);
    parsed += reference::ReadCsvString(text, options).ok() ? 1 : 0;
  }
  // Both outcomes are exercised: most documents parse, some are rejected.
  EXPECT_GT(parsed, 300u);
  EXPECT_LT(parsed, 590u);
}

TEST(CsvDifferentialTest, EdgeDocumentsMatchReference) {
  const std::string docs[] = {
      "", "\n", " \r\n\t\n", "a", "a\n1", "a,b\n1,2", "a,b\r\n1,\"2\r\"\r\n",
      "a\n\"x\n", "a,b\n1\n\"open\n", "a,b\n1,2,3\n4,5\n", "a,\n1,\n", ",\n,\n",
      "\"a\"\"b\",c\n\"\"\"\",1\n", "a\n \n\t\n1\n", "a\n  1  \n2\n",
      "a;b\n1;2\n", "a\n\"\"\n\"\"\n", "a\r\n\r\n1\r\n"};
  for (const std::string& doc : docs) {
    SCOPED_TRACE("document '" + doc + "'");
    ExpectMatchesReference(doc);
    CsvOptions no_header;
    no_header.has_header = false;
    ExpectMatchesReference(doc, no_header);
  }
}

TEST(CsvDifferentialTest, ColumnTurnsCategoricalAfterInferencePrefix) {
  std::string text = "a,b\n";
  for (int i = 0; i < 150; ++i) {
    text += std::to_string(i) + "," + std::to_string(i * 0.5) + "\n";
  }
  text += "oops,7\n";
  for (int i = 0; i < 10; ++i) text += std::to_string(i) + ",NA\n";
  ExpectMatchesReference(text);
  const Table t = ReadCsvString(text).ValueOrDie();
  EXPECT_EQ(t.schema().field(0).type, ColumnType::kCategorical);
  EXPECT_EQ(t.schema().field(1).type, ColumnType::kNumeric);
}

// Documents whose chunk cuts land on the corners of the chunked reader:
// blank and CRLF lines at every cut, and errors or a type fallback in a
// later chunk than the first.
TEST(CsvDifferentialTest, ChunkCutsMatchReference) {
  const auto rows = [](size_t n, const std::string& line_end) {
    std::string out;
    for (size_t i = 0; i < n; ++i) {
      out += std::to_string(i) + "," + std::to_string(i % 7) + ".5" + line_end;
    }
    return out;
  };
  std::string blanks = "a,b\n";
  for (size_t i = 0; i < 40; ++i) blanks += std::to_string(i) + ",x\n \n\n\t\r\n";
  const std::string docs[] = {
      blanks,
      "a,b\r\n" + rows(60, "\r\n") + "\r\n\r\n",
      "a,b\n" + rows(60, "\n") + "1,2,3\n" + rows(5, "\n"),
      // A ragged record early, an unterminated quote in the last chunk:
      // the quote wins.
      "a,b\n1\n" + rows(60, "\n") + "\"open,1\n",
      // Two ragged records; the first by record number is reported.
      "a,b\n" + rows(30, "\n") + "7\n" + rows(30, "\n") + "1,2,3\n",
      // A column that parses as numbers until the last chunk.
      "a,b\n" + rows(80, "\n") + "oops,1\n",
      // Categorical labels first seen in later chunks.
      "a,b\n" + rows(40, "\n") + "z,1\n" + rows(40, "\n") + "y,2\nz,3\n",
  };
  for (const std::string& doc : docs) {
    SCOPED_TRACE("document '" + doc.substr(0, 40) + "...'");
    ExpectMatchesReference(doc);
    CsvOptions no_header;
    no_header.has_header = false;
    ExpectMatchesReference(doc, no_header);
  }
}

// Numbers in a numeric column spelled so that the reader cannot take them
// straight from the input bytes: quoted, with a '\r' inside, or equal to a
// NULL token. They read as the reference reads them at every chunk count
// and every inference sample size.
TEST(CsvDifferentialTest, EscapedNumbersAndNumericNullTokensMatchReference) {
  // Column a holds numbers only; column b turns categorical at its first
  // "-3""" cell, which is after the sample when inference_rows is small.
  const char* const numbers[] = {"1.5",  "\"2.5\"", "1\r5",    "-999",
                                 "0",    "0.0",     "-999.0",  "\"0\"",
                                 "\"\"", "7\r",     "\"7\r\""};
  std::string text = "a,b,c\n";
  for (size_t i = 0; i < 120; ++i) {
    text += numbers[i % std::size(numbers)];
    text += ",";
    text += i % 17 == 16 ? "\"-3\"\"\"" : numbers[(i * 5 + 3) % std::size(numbers)];
    text += "," + std::to_string(i) + "\n";
  }
  for (const size_t inference_rows : {size_t{0}, size_t{1}, size_t{100}}) {
    SCOPED_TRACE("inference_rows " + std::to_string(inference_rows));
    CsvOptions options;
    options.inference_rows = inference_rows;
    ExpectMatchesReference(text, options);
    options.null_tokens = {"-999", "0"};
    ExpectMatchesReference(text, options);
    options.has_header = false;
    ExpectMatchesReference(text, options);
  }
  const Table mixed = ReadCsvString(text).ValueOrDie();
  EXPECT_TRUE(mixed.column(0).is_numeric());
  EXPECT_EQ(mixed.column(0).numeric_data()[2], 15.0);  // 1\r5
  EXPECT_TRUE(mixed.column(1).is_categorical());
  // The NULL tokens win over the numbers they spell.
  CsvOptions options;
  options.null_tokens = {"-999", "0"};
  const Table t =
      ReadCsvString("v\n-999\n0\n0.0\n-999.0\n\"0\"\n", options).ValueOrDie();
  const Column& v = t.column(0);
  ASSERT_TRUE(v.is_numeric());
  EXPECT_TRUE(v.IsNull(0));
  EXPECT_TRUE(v.IsNull(1));
  EXPECT_EQ(v.numeric_data()[2], 0.0);
  EXPECT_EQ(v.numeric_data()[3], -999.0);
  EXPECT_TRUE(v.IsNull(4));
}

// Delimiters that can stand inside a number ('.', 'e', '-', a digit) split
// the cell before the number does.
TEST(CsvDifferentialTest, DelimitersInsideNumbersMatchReference) {
  for (const char delim : {'.', 'e', '-', '5', 'n', 'x'}) {
    CsvOptions options;
    options.delimiter = delim;
    const std::string d(1, delim);
    std::string text = "a" + d + "b\n";
    for (int i = 0; i < 40; ++i) {
      text += std::to_string(i) + ".25e1" + d + "-1.5e-3" + d + "nan\n";
      text += "inf" + d + std::to_string(i * 7) + "\n";
    }
    SCOPED_TRACE(std::string("delimiter ") + delim);
    ExpectMatchesReference(text, options);
  }
}

// ------------------------------------------------------------ file reader --

// A unique path under the test temp directory.
std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/ziggy_csv_" + std::to_string(getpid()) + "_" +
         name;
}

TEST(CsvFileTest, LargeFileMatchesStringRead) {
  // Above 1 MiB the string reader parses in chunks, and the file reader
  // takes the same path after one sized read.
  Rng rng(17);
  std::string text = "id,x,label,y\n";
  while (text.size() < (size_t{1} << 20) + 12345) {
    text += std::to_string(text.size()) + "," +
            FormatDouble(rng.Normal(0.0, 1e3), 17) + "," +
            (rng.Bernoulli(0.1) ? "\"q,uoted\"" : "l" + std::to_string(Pick(&rng, 50))) +
            "," + (rng.Bernoulli(0.05) ? "NA" : FormatDouble(rng.Normal(), 6)) +
            "\n";
  }
  text += "1,2,last,3";  // no final newline
  const std::string path = TempPath("large.csv");
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  const Result<Table> from_file = ReadCsvFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(from_file.ok()) << from_file.status();
  const Table from_string = ReadCsvString(text).ValueOrDie();
  EXPECT_GT(from_string.num_rows(), 10000u);
  ExpectSameTable(*from_file, from_string);
}

TEST(CsvFileTest, FifoReadsToEnd) {
  // A pipe has no size up front: the reader reads until the writer closes.
  std::string text = "k,v\n";
  for (int i = 0; i < 20000; ++i) {
    text += "key" + std::to_string(i % 97) + "," + std::to_string(i) + "\n";
  }
  ASSERT_GT(text.size(), size_t{1} << 17);  // several pipe buffers
  const std::string path = TempPath("fifo.csv");
  std::remove(path.c_str());
  ASSERT_EQ(mkfifo(path.c_str(), 0600), 0) << std::strerror(errno);
  // A reader that stops early fails the comparison below instead of
  // killing the test with SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  std::thread writer([&] {
    std::ofstream out(path, std::ios::binary);
    out << text;
  });
  const Result<Table> read = ReadCsvFile(path);
  writer.join();
  std::remove(path.c_str());
  ASSERT_TRUE(read.ok()) << read.status();
  ExpectSameTable(*read, ReadCsvString(text).ValueOrDie());
}

TEST(CsvFileTest, DirectoryIsIOError) {
  const Status st = ReadCsvFile(testing::TempDir()).status();
  EXPECT_TRUE(st.IsIOError()) << st;
}

TEST(CsvFileTest, EmptyFileIsParseError) {
  const std::string path = TempPath("empty.csv");
  { std::ofstream out(path, std::ios::binary); }
  const Status st = ReadCsvFile(path).status();
  std::remove(path.c_str());
  EXPECT_TRUE(st.IsParseError()) << st;
}

// ------------------------------------------------------ writer round trip --

TEST(CsvTest, CarriageReturnInLabelRoundTrips) {
  const Table t =
      Table::FromColumns({Column::FromStrings("s", {"a\rb", "c\r"}),
                          Column::FromNumeric("v", {1.0, 2.0})})
          .ValueOrDie();
  const Table back = ReadCsvString(WriteCsvString(t)).ValueOrDie();
  EXPECT_EQ(back.column(0).ValueAsString(0), "a\rb");
  EXPECT_EQ(back.column(0).ValueAsString(1), "c\r");
}

TEST(CsvTest, WhitespaceLabelInSingleColumnTableRoundTrips) {
  const Table t =
      Table::FromColumns(
          {Column::FromStrings("s", {"x", "  ", " lead", "trail\t"})})
          .ValueOrDie();
  const Table back = ReadCsvString(WriteCsvString(t)).ValueOrDie();
  ASSERT_EQ(back.num_rows(), 4u);
  EXPECT_EQ(back.column(0).ValueAsString(1), "  ");
  EXPECT_EQ(back.column(0).ValueAsString(2), " lead");
  EXPECT_EQ(back.column(0).ValueAsString(3), "trail\t");
}

}  // namespace
}  // namespace ziggy
