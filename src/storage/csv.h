// CSV import / export so users can run Ziggy on their own datasets
// (e.g. the UCI Communities & Crime table the paper demos on).

#ifndef ZIGGY_STORAGE_CSV_H_
#define ZIGGY_STORAGE_CSV_H_

#include <iosfwd>
#include <string>
#include <string_view>

#include "common/result.h"
#include "storage/table.h"

namespace ziggy {

/// \brief Options controlling CSV parsing.
struct CsvOptions {
  char delimiter = ',';
  /// First row holds column names; otherwise names are col0, col1, ...
  bool has_header = true;
  /// Tokens treated as NULL in addition to the empty string.
  std::vector<std::string> null_tokens = {"NA", "N/A", "?", "null", "NULL"};
  /// Rows sampled for type inference (all rows are re-validated on load).
  size_t inference_rows = 100;
  /// A column whose sampled non-null values all parse as numbers is NUMERIC;
  /// anything else is CATEGORICAL.
};

/// \brief Parses CSV text into a Table, inferring column types.
///
/// Records are '\n'-terminated lines; lines that are blank after trimming
/// are skipped. A '"' opens or closes quoting ("" inside quotes is a
/// literal quote) and a quote never spans lines; '\r' is dropped outside
/// quotes and kept inside them. Cells are otherwise taken verbatim. A
/// NULL token wins over a number it spells.
///
/// An input of at least 512 KiB is parsed in chunks on the shared worker
/// pool, with the same result. Each chunk is split and parsed in one pass:
/// a numeric column's cells go from the input bytes straight into the
/// column, and only categorical cells are held (as spans into `text`)
/// until their columns are filled. A column whose sampled cells are
/// numbers but a later cell is not is categorical, at the cost of a second
/// pass. Errors come in this order: the first unterminated quote, then an
/// input without records, then the first record whose cell count differs
/// from the first record's.
Result<Table> ReadCsvString(std::string_view text,
                            const CsvOptions& options = {});

namespace internal {
/// ReadCsvString with the input cut into `num_chunks` chunks at line ends.
/// ReadCsvString picks the count from the input size; this entry point
/// lets tests pin it. The result does not depend on the count.
Result<Table> ReadCsvStringChunked(std::string_view text,
                                   const CsvOptions& options,
                                   size_t num_chunks);
}  // namespace internal

/// \brief Loads a CSV file into a Table, inferring column types.
///
/// The file (or a pipe) is read to its end into one uninitialised buffer
/// and parsed by ReadCsvString. It is read, not mapped, so a file that
/// shrinks or grows meanwhile yields the bytes actually read. A path that
/// cannot be opened or read, a directory among them, is an IOError.
Result<Table> ReadCsvFile(const std::string& path, const CsvOptions& options = {});

/// \brief Serializes a table as CSV (RFC-4180 quoting). A field is quoted
/// when it holds the delimiter, '"', '\n' or '\r', or has leading or
/// trailing whitespace, so that ReadCsvString gives every label back
/// verbatim (a whitespace-only label alone on a line would otherwise read
/// as a skipped blank line).
std::string WriteCsvString(const Table& table, char delimiter = ',');

/// \brief Writes a table to a CSV file.
Status WriteCsvFile(const Table& table, const std::string& path, char delimiter = ',');

}  // namespace ziggy

#endif  // ZIGGY_STORAGE_CSV_H_
