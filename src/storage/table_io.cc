#include "storage/table_io.h"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "common/binary_io.h"
#include "storage/column_codec.h"

namespace ziggy {

namespace {

constexpr size_t kMaxColumns = 1u << 20;
constexpr size_t kMaxNameBytes = 1u << 20;
constexpr uint8_t kNumericKind = 0;
constexpr uint8_t kCategoricalKind = 1;
constexpr uint8_t kDictInline = 0;
constexpr uint8_t kDictExternal = 1;
// v2 row bound: compressed column payloads no longer scale with the row
// count, so the per-column "cells fit the payload" checks of v1 cannot
// bound a hostile header. Past this many rows even the raw fallback of a
// single numeric column could not fit a section.
constexpr uint64_t kMaxV2Rows = kMaxSectionBytes / sizeof(double);
constexpr size_t kSectionOverhead = sizeof(uint64_t) + sizeof(uint32_t);

std::string HeaderPayload(const Table& table) {
  std::string payload;
  PutU64(&payload, table.num_rows());
  PutU64(&payload, table.num_columns());
  return payload;
}

std::string SchemaPayload(const Table& table) {
  std::string payload;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Field& field = table.schema().field(c);
    PutLengthPrefixed(&payload, field.name);
    PutU8(&payload, static_cast<uint8_t>(field.type));
  }
  return payload;
}

std::string ColumnPayloadV2(const Column& column, const DictRef* external) {
  std::string payload;
  if (column.is_numeric()) {
    PutU8(&payload, kNumericKind);
    payload += EncodeNumericCells(column.numeric_data().data(),
                                  column.numeric_data().size());
    return payload;
  }
  PutU8(&payload, kCategoricalKind);
  if (external != nullptr) {
    PutU8(&payload, kDictExternal);
    PutU64(&payload, external->hash);
    PutU64(&payload, external->size);
  } else {
    PutU8(&payload, kDictInline);
    std::string blob;
    PutU64(&blob, column.dictionary().size());
    for (const std::string& label : column.dictionary()) {
      PutLengthPrefixed(&blob, label);
    }
    PutLengthPrefixed(&payload, EncodeByteBlob(blob));
  }
  payload += EncodeCategoryCodes(column.codes().data(), column.codes().size(),
                                 column.dictionary().size());
  return payload;
}

Result<Column> ParseColumn(std::string_view payload, const Field& field,
                           size_t num_rows) {
  ByteReader reader(payload);
  ZIGGY_ASSIGN_OR_RETURN(uint8_t kind, reader.ReadU8());
  const uint8_t expected_kind =
      field.type == ColumnType::kNumeric ? kNumericKind : kCategoricalKind;
  if (kind != expected_kind) {
    return Status::ParseError("column \"" + field.name +
                              "\": payload kind disagrees with schema");
  }
  if (kind == kNumericKind) {
    // Divide, don't multiply: a hostile header's num_rows could wrap
    // sizeof(double) * num_rows and this must fail BEFORE any allocation
    // sized from the untrusted count (the CRC only protects against
    // corruption, not against a crafted file with valid checksums).
    if (num_rows > reader.remaining() / sizeof(double)) {
      return Status::ParseError("column \"" + field.name +
                                "\": cell count exceeds section payload");
    }
    ZIGGY_ASSIGN_OR_RETURN(std::string_view bytes,
                           reader.ReadBytes(sizeof(double) * num_rows));
    std::vector<double> cells(num_rows);
    if (num_rows > 0) std::memcpy(cells.data(), bytes.data(), bytes.size());
    if (!reader.exhausted()) {
      return Status::ParseError("column \"" + field.name +
                                "\": trailing bytes after numeric cells");
    }
    return Column::FromNumeric(field.name, std::move(cells));
  }
  ZIGGY_ASSIGN_OR_RETURN(uint64_t dict_size, reader.ReadU64());
  // Filter() keeps a column's full dictionary while dropping rows, so
  // dict_size may legitimately exceed num_rows — but every entry costs at
  // least its 8-byte length prefix, so the payload itself bounds the
  // plausible count (and therefore the reserve below).
  if (dict_size > reader.remaining() / sizeof(uint64_t)) {
    return Status::ParseError("column \"" + field.name +
                              "\": dictionary size exceeds section payload");
  }
  std::vector<std::string> dictionary;
  dictionary.reserve(static_cast<size_t>(dict_size));
  for (uint64_t i = 0; i < dict_size; ++i) {
    ZIGGY_ASSIGN_OR_RETURN(std::string_view label,
                           reader.ReadLengthPrefixed(kMaxNameBytes));
    dictionary.emplace_back(label);
  }
  if (num_rows > reader.remaining() / sizeof(CategoryCode)) {
    return Status::ParseError("column \"" + field.name +
                              "\": code count exceeds section payload");
  }
  ZIGGY_ASSIGN_OR_RETURN(std::string_view bytes,
                         reader.ReadBytes(sizeof(CategoryCode) * num_rows));
  std::vector<CategoryCode> codes(num_rows);
  if (num_rows > 0) std::memcpy(codes.data(), bytes.data(), bytes.size());
  if (!reader.exhausted()) {
    return Status::ParseError("column \"" + field.name +
                              "\": trailing bytes after codes");
  }
  return Column::FromDictionary(field.name, std::move(dictionary),
                                std::move(codes));
}

/// Parses the inline dictionary blob of a v2 categorical payload:
/// { u64 dict_size, str labels... }.
Result<std::vector<std::string>> ParseDictBlob(const std::string& blob,
                                               const std::string& column) {
  ByteReader reader(blob);
  ZIGGY_ASSIGN_OR_RETURN(uint64_t dict_size, reader.ReadU64());
  if (dict_size > reader.remaining() / sizeof(uint64_t)) {
    return Status::ParseError("column \"" + column +
                              "\": dictionary size exceeds its blob");
  }
  std::vector<std::string> labels;
  labels.reserve(static_cast<size_t>(dict_size));
  for (uint64_t i = 0; i < dict_size; ++i) {
    ZIGGY_ASSIGN_OR_RETURN(std::string_view label,
                           reader.ReadLengthPrefixed(kMaxNameBytes));
    labels.emplace_back(label);
  }
  if (!reader.exhausted()) {
    return Status::ParseError("column \"" + column +
                              "\": trailing bytes in dictionary blob");
  }
  return labels;
}

Result<Column> ParseColumnV2(std::string_view payload, const Field& field,
                             size_t num_rows,
                             const TableReadOptions& options) {
  ByteReader reader(payload);
  ZIGGY_ASSIGN_OR_RETURN(uint8_t kind, reader.ReadU8());
  const uint8_t expected_kind =
      field.type == ColumnType::kNumeric ? kNumericKind : kCategoricalKind;
  if (kind != expected_kind) {
    return Status::ParseError("column \"" + field.name +
                              "\": payload kind disagrees with schema");
  }
  if (kind == kNumericKind) {
    ZIGGY_ASSIGN_OR_RETURN(std::string_view cells_payload,
                           reader.ReadBytes(reader.remaining()));
    ZIGGY_ASSIGN_OR_RETURN(std::vector<double> cells,
                           DecodeNumericCells(cells_payload, num_rows));
    return Column::FromNumeric(field.name, std::move(cells));
  }
  ZIGGY_ASSIGN_OR_RETURN(uint8_t dict_mode, reader.ReadU8());
  if (dict_mode == kDictInline) {
    ZIGGY_ASSIGN_OR_RETURN(std::string_view blob_payload,
                           reader.ReadLengthPrefixed(kMaxSectionBytes));
    ZIGGY_ASSIGN_OR_RETURN(std::string blob,
                           DecodeByteBlob(blob_payload, kMaxSectionBytes));
    ZIGGY_ASSIGN_OR_RETURN(std::vector<std::string> labels,
                           ParseDictBlob(blob, field.name));
    ZIGGY_ASSIGN_OR_RETURN(std::string_view codes_payload,
                           reader.ReadBytes(reader.remaining()));
    ZIGGY_ASSIGN_OR_RETURN(
        std::vector<CategoryCode> codes,
        DecodeCategoryCodes(codes_payload, num_rows, labels.size()));
    return Column::FromDictionary(field.name, std::move(labels),
                                  std::move(codes));
  }
  if (dict_mode != kDictExternal) {
    return Status::ParseError("column \"" + field.name +
                              "\": unknown dictionary mode");
  }
  DictRef ref;
  ZIGGY_ASSIGN_OR_RETURN(ref.hash, reader.ReadU64());
  ZIGGY_ASSIGN_OR_RETURN(ref.size, reader.ReadU64());
  if (!options.resolve_dict) {
    return Status::FailedPrecondition(
        "column \"" + field.name +
        "\": table references an external dictionary but no resolver was "
        "provided");
  }
  ZIGGY_ASSIGN_OR_RETURN(std::shared_ptr<ColumnDictionary> dict,
                         options.resolve_dict(ref));
  if (dict == nullptr || dict->labels.size() != ref.size) {
    return Status::ParseError("column \"" + field.name +
                              "\": resolved dictionary size disagrees with "
                              "the reference");
  }
  ZIGGY_ASSIGN_OR_RETURN(std::string_view codes_payload,
                         reader.ReadBytes(reader.remaining()));
  ZIGGY_ASSIGN_OR_RETURN(
      std::vector<CategoryCode> codes,
      DecodeCategoryCodes(codes_payload, num_rows, dict->labels.size()));
  return Column::FromSharedDictionary(field.name, std::move(dict),
                                      std::move(codes));
}

}  // namespace

Status WriteTable(const Table& table, std::ostream* out,
                  const TableWriteOptions& options) {
  if (out == nullptr) return Status::InvalidArgument("null output stream");
  out->write(kTableMagicV2, sizeof(kTableMagicV2));
  ZIGGY_RETURN_NOT_OK(WriteSection(out, HeaderPayload(table)));
  ZIGGY_RETURN_NOT_OK(WriteSection(out, SchemaPayload(table)));
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const auto it = options.external_dicts.find(c);
    const DictRef* external =
        it != options.external_dicts.end() ? &it->second : nullptr;
    if (external != nullptr &&
        external->size != table.column(c).dictionary().size()) {
      return Status::InvalidArgument(
          "column \"" + table.column(c).name() +
          "\": external dictionary size disagrees with the column");
    }
    ZIGGY_RETURN_NOT_OK(
        WriteSection(out, ColumnPayloadV2(table.column(c), external)));
  }
  if (!*out) return Status::IOError("table write failed");
  return Status::OK();
}

Result<Table> ReadTable(std::istream* in, const TableReadOptions& options) {
  if (in == nullptr) return Status::InvalidArgument("null input stream");
  char magic[sizeof(kTableMagic)];
  in->read(magic, sizeof(magic));
  bool v2 = false;
  if (*in && std::memcmp(magic, kTableMagicV2, sizeof(magic)) == 0) {
    v2 = true;
  } else if (!*in || std::memcmp(magic, kTableMagic, sizeof(magic)) != 0) {
    return Status::ParseError("not a Ziggy table (bad magic)");
  }

  ZIGGY_ASSIGN_OR_RETURN(std::string header,
                         ReadSection(in, kMaxSectionBytes));
  ByteReader header_reader(header);
  ZIGGY_ASSIGN_OR_RETURN(uint64_t num_rows, header_reader.ReadU64());
  ZIGGY_ASSIGN_OR_RETURN(uint64_t num_columns, header_reader.ReadU64());
  if (!header_reader.exhausted()) {
    return Status::ParseError("trailing bytes in table header");
  }
  if (num_columns > kMaxColumns) {
    return Status::ParseError("implausible column count");
  }
  if (v2 && num_rows > kMaxV2Rows) {
    return Status::ParseError("implausible row count");
  }

  ZIGGY_ASSIGN_OR_RETURN(std::string schema_payload,
                         ReadSection(in, kMaxSectionBytes));
  ByteReader schema_reader(schema_payload);
  // Each field costs at least a length prefix + type tag; the payload
  // bounds the plausible count before the reserve below.
  if (num_columns > schema_payload.size() / (sizeof(uint64_t) + 1)) {
    return Status::ParseError("column count exceeds schema section payload");
  }
  std::vector<Field> fields;
  fields.reserve(static_cast<size_t>(num_columns));
  for (uint64_t c = 0; c < num_columns; ++c) {
    ZIGGY_ASSIGN_OR_RETURN(std::string_view name,
                           schema_reader.ReadLengthPrefixed(kMaxNameBytes));
    ZIGGY_ASSIGN_OR_RETURN(uint8_t type, schema_reader.ReadU8());
    if (name.empty()) return Status::ParseError("empty column name");
    if (type != static_cast<uint8_t>(ColumnType::kNumeric) &&
        type != static_cast<uint8_t>(ColumnType::kCategorical)) {
      return Status::ParseError("unknown column type tag");
    }
    fields.push_back(Field{std::string(name), static_cast<ColumnType>(type)});
  }
  if (!schema_reader.exhausted()) {
    return Status::ParseError("trailing bytes in schema section");
  }

  std::vector<Column> columns;
  columns.reserve(fields.size());
  for (const Field& field : fields) {
    ZIGGY_ASSIGN_OR_RETURN(std::string payload,
                           ReadSection(in, kMaxSectionBytes));
    ZIGGY_ASSIGN_OR_RETURN(
        Column column,
        v2 ? ParseColumnV2(payload, field, static_cast<size_t>(num_rows),
                           options)
           : ParseColumn(payload, field, static_cast<size_t>(num_rows)));
    columns.push_back(std::move(column));
  }
  // FromColumns re-validates equal lengths and distinct names, so a codec
  // bug can never install an inconsistent table.
  ZIGGY_ASSIGN_OR_RETURN(Table table, Table::FromColumns(std::move(columns)));
  // Per-column cell counts were pinned to the header's num_rows above; the
  // only remaining degenerate case is a zero-column table claiming rows.
  if (num_columns == 0 && num_rows != 0) {
    return Status::ParseError("row count disagrees with header");
  }
  return table;
}

Status WriteTableFile(const Table& table, const std::string& path,
                      const TableWriteOptions& options) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  ZIGGY_RETURN_NOT_OK(WriteTable(table, &out, options));
  out.flush();
  if (!out) return Status::IOError("write to '" + path + "' failed");
  return Status::OK();
}

Result<Table> ReadTableFile(const std::string& path,
                            const TableReadOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  return ReadTable(&in, options);
}

Status WriteTableDelta(const Table& table, size_t base_rows,
                       const std::vector<size_t>& base_dict_sizes,
                       std::ostream* out) {
  if (out == nullptr) return Status::InvalidArgument("null output stream");
  if (base_rows > table.num_rows()) {
    return Status::InvalidArgument("delta base row count " +
                                   std::to_string(base_rows) +
                                   " exceeds the table");
  }
  if (base_dict_sizes.size() != table.num_columns()) {
    return Status::InvalidArgument(
        "delta base dictionary sizes do not match the column count");
  }
  const size_t new_rows = table.num_rows() - base_rows;

  out->write(kTableDeltaMagicV2, sizeof(kTableDeltaMagicV2));
  std::string header;
  PutU64(&header, base_rows);
  PutU64(&header, new_rows);
  PutU64(&header, table.num_columns());
  ZIGGY_RETURN_NOT_OK(WriteSection(out, header));
  ZIGGY_RETURN_NOT_OK(WriteSection(out, SchemaPayload(table)));

  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& column = table.column(c);
    std::string payload;
    if (column.is_numeric()) {
      PutU8(&payload, kNumericKind);
      payload += EncodeNumericCells(column.numeric_data().data() + base_rows,
                                    new_rows);
    } else {
      const size_t base_dict = base_dict_sizes[c];
      if (base_dict > column.dictionary().size()) {
        return Status::InvalidArgument(
            "column \"" + column.name() +
            "\": base dictionary size exceeds the current dictionary");
      }
      PutU8(&payload, kCategoricalKind);
      PutU64(&payload, base_dict);
      PutU64(&payload, column.dictionary().size() - base_dict);
      std::string blob;
      for (size_t i = base_dict; i < column.dictionary().size(); ++i) {
        PutLengthPrefixed(&blob, column.dictionary()[i]);
      }
      PutLengthPrefixed(&payload, EncodeByteBlob(blob));
      payload += EncodeCategoryCodes(column.codes().data() + base_rows,
                                     new_rows, column.dictionary().size());
    }
    ZIGGY_RETURN_NOT_OK(WriteSection(out, payload));
  }
  if (!*out) return Status::IOError("delta write failed");
  return Status::OK();
}

Result<Table> ApplyTableDelta(const Table& base, std::istream* in) {
  if (in == nullptr) return Status::InvalidArgument("null input stream");
  char magic[sizeof(kTableDeltaMagic)];
  in->read(magic, sizeof(magic));
  bool v2 = false;
  if (*in && std::memcmp(magic, kTableDeltaMagicV2, sizeof(magic)) == 0) {
    v2 = true;
  } else if (!*in ||
             std::memcmp(magic, kTableDeltaMagic, sizeof(magic)) != 0) {
    return Status::ParseError("not a Ziggy table delta (bad magic)");
  }

  ZIGGY_ASSIGN_OR_RETURN(std::string header,
                         ReadSection(in, kMaxSectionBytes));
  ByteReader header_reader(header);
  ZIGGY_ASSIGN_OR_RETURN(uint64_t base_rows, header_reader.ReadU64());
  ZIGGY_ASSIGN_OR_RETURN(uint64_t new_rows, header_reader.ReadU64());
  ZIGGY_ASSIGN_OR_RETURN(uint64_t num_columns, header_reader.ReadU64());
  if (!header_reader.exhausted()) {
    return Status::ParseError("trailing bytes in delta header");
  }
  if (base_rows != base.num_rows()) {
    return Status::ParseError(
        "delta was cut against " + std::to_string(base_rows) +
        " base rows, this base has " + std::to_string(base.num_rows()));
  }
  if (num_columns != base.num_columns()) {
    return Status::ParseError("delta column count disagrees with the base");
  }
  if (v2 && new_rows > kMaxV2Rows) {
    return Status::ParseError("implausible delta row count");
  }

  ZIGGY_ASSIGN_OR_RETURN(std::string schema_payload,
                         ReadSection(in, kMaxSectionBytes));
  ByteReader schema_reader(schema_payload);
  for (uint64_t c = 0; c < num_columns; ++c) {
    ZIGGY_ASSIGN_OR_RETURN(std::string_view name,
                           schema_reader.ReadLengthPrefixed(kMaxNameBytes));
    ZIGGY_ASSIGN_OR_RETURN(uint8_t type, schema_reader.ReadU8());
    const Field& field = base.schema().field(static_cast<size_t>(c));
    if (name != field.name || type != static_cast<uint8_t>(field.type)) {
      return Status::ParseError("delta schema disagrees with the base at "
                                "column " +
                                std::to_string(c));
    }
  }
  if (!schema_reader.exhausted()) {
    return Status::ParseError("trailing bytes in delta schema section");
  }

  // Reconstruct the appended tail: codes index the base dictionary
  // extended by the segment's new entries, so the tail column carries the
  // full dictionary and WithAppendedRows re-interns to exactly the codes
  // the live append produced.
  std::vector<Column> tail_columns;
  tail_columns.reserve(static_cast<size_t>(num_columns));
  for (size_t c = 0; c < static_cast<size_t>(num_columns); ++c) {
    const Field& field = base.schema().field(c);
    ZIGGY_ASSIGN_OR_RETURN(std::string payload,
                           ReadSection(in, kMaxSectionBytes));
    ByteReader reader(payload);
    ZIGGY_ASSIGN_OR_RETURN(uint8_t kind, reader.ReadU8());
    const uint8_t expected_kind =
        field.type == ColumnType::kNumeric ? kNumericKind : kCategoricalKind;
    if (kind != expected_kind) {
      return Status::ParseError("column \"" + field.name +
                                "\": delta payload kind disagrees with the "
                                "base schema");
    }
    if (kind == kNumericKind) {
      std::vector<double> cells;
      if (v2) {
        ZIGGY_ASSIGN_OR_RETURN(std::string_view cells_payload,
                               reader.ReadBytes(reader.remaining()));
        ZIGGY_ASSIGN_OR_RETURN(
            cells, DecodeNumericCells(cells_payload,
                                      static_cast<size_t>(new_rows)));
      } else {
        if (new_rows > reader.remaining() / sizeof(double)) {
          return Status::ParseError("column \"" + field.name +
                                    "\": delta cell count exceeds section "
                                    "payload");
        }
        ZIGGY_ASSIGN_OR_RETURN(
            std::string_view bytes,
            reader.ReadBytes(sizeof(double) * static_cast<size_t>(new_rows)));
        cells.resize(static_cast<size_t>(new_rows));
        if (new_rows > 0) std::memcpy(cells.data(), bytes.data(), bytes.size());
        if (!reader.exhausted()) {
          return Status::ParseError("column \"" + field.name +
                                    "\": trailing bytes after delta cells");
        }
      }
      tail_columns.push_back(Column::FromNumeric(field.name, std::move(cells)));
      continue;
    }
    ZIGGY_ASSIGN_OR_RETURN(uint64_t base_dict, reader.ReadU64());
    ZIGGY_ASSIGN_OR_RETURN(uint64_t new_entries, reader.ReadU64());
    const Column& base_column = base.column(c);
    if (base_dict != base_column.dictionary().size()) {
      return Status::ParseError(
          "column \"" + field.name + "\": delta was cut against " +
          std::to_string(base_dict) + " dictionary entries, this base has " +
          std::to_string(base_column.dictionary().size()));
    }
    std::vector<std::string> dictionary = base_column.dictionary();
    std::vector<CategoryCode> codes;
    if (v2) {
      ZIGGY_ASSIGN_OR_RETURN(std::string_view blob_payload,
                             reader.ReadLengthPrefixed(kMaxSectionBytes));
      ZIGGY_ASSIGN_OR_RETURN(std::string blob,
                             DecodeByteBlob(blob_payload, kMaxSectionBytes));
      ByteReader blob_reader(blob);
      if (new_entries > blob.size() / sizeof(uint64_t)) {
        return Status::ParseError("column \"" + field.name +
                                  "\": delta dictionary growth exceeds its "
                                  "blob");
      }
      dictionary.reserve(dictionary.size() + static_cast<size_t>(new_entries));
      for (uint64_t i = 0; i < new_entries; ++i) {
        ZIGGY_ASSIGN_OR_RETURN(std::string_view label,
                               blob_reader.ReadLengthPrefixed(kMaxNameBytes));
        dictionary.emplace_back(label);
      }
      if (!blob_reader.exhausted()) {
        return Status::ParseError("column \"" + field.name +
                                  "\": trailing bytes in delta dictionary "
                                  "blob");
      }
      ZIGGY_ASSIGN_OR_RETURN(std::string_view codes_payload,
                             reader.ReadBytes(reader.remaining()));
      ZIGGY_ASSIGN_OR_RETURN(
          codes, DecodeCategoryCodes(codes_payload,
                                     static_cast<size_t>(new_rows),
                                     dictionary.size()));
    } else {
      if (new_entries > reader.remaining() / sizeof(uint64_t)) {
        return Status::ParseError("column \"" + field.name +
                                  "\": delta dictionary growth exceeds "
                                  "section payload");
      }
      dictionary.reserve(dictionary.size() + static_cast<size_t>(new_entries));
      for (uint64_t i = 0; i < new_entries; ++i) {
        ZIGGY_ASSIGN_OR_RETURN(std::string_view label,
                               reader.ReadLengthPrefixed(kMaxNameBytes));
        dictionary.emplace_back(label);
      }
      if (new_rows > reader.remaining() / sizeof(CategoryCode)) {
        return Status::ParseError("column \"" + field.name +
                                  "\": delta code count exceeds section "
                                  "payload");
      }
      ZIGGY_ASSIGN_OR_RETURN(
          std::string_view bytes,
          reader.ReadBytes(sizeof(CategoryCode) *
                           static_cast<size_t>(new_rows)));
      codes.resize(static_cast<size_t>(new_rows));
      if (new_rows > 0) std::memcpy(codes.data(), bytes.data(), bytes.size());
      if (!reader.exhausted()) {
        return Status::ParseError("column \"" + field.name +
                                  "\": trailing bytes after delta codes");
      }
    }
    // FromDictionary re-validates label uniqueness and code range, so a
    // corrupt segment cannot install an inconsistent column.
    ZIGGY_ASSIGN_OR_RETURN(
        Column column, Column::FromDictionary(field.name, std::move(dictionary),
                                              std::move(codes)));
    tail_columns.push_back(std::move(column));
  }

  ZIGGY_ASSIGN_OR_RETURN(Table tail,
                         Table::FromColumns(std::move(tail_columns)));
  if (num_columns == 0 && new_rows != 0) {
    return Status::ParseError("delta row count disagrees with header");
  }
  return base.WithAppendedRows(tail);
}

Status WriteTableDeltaFile(const Table& table, size_t base_rows,
                           const std::vector<size_t>& base_dict_sizes,
                           const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  ZIGGY_RETURN_NOT_OK(WriteTableDelta(table, base_rows, base_dict_sizes, &out));
  out.flush();
  if (!out) return Status::IOError("write to '" + path + "' failed");
  return Status::OK();
}

Result<Table> ApplyTableDeltaFile(const Table& base, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  return ApplyTableDelta(base, &in);
}

uint64_t UncompressedTableBytes(const Table& table) {
  // The exact size of the v1 encoding: magic + framed header, schema, and
  // per-column sections (sizes are fully determined by the data).
  uint64_t bytes = sizeof(kTableMagic);
  bytes += kSectionOverhead + 2 * sizeof(uint64_t);  // header
  uint64_t schema = 0;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    schema += sizeof(uint64_t) + table.schema().field(c).name.size() + 1;
  }
  bytes += kSectionOverhead + schema;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& column = table.column(c);
    uint64_t payload = 1;
    if (column.is_numeric()) {
      payload += sizeof(double) * column.numeric_data().size();
    } else {
      payload += sizeof(uint64_t);
      for (const std::string& label : column.dictionary()) {
        payload += sizeof(uint64_t) + label.size();
      }
      payload += sizeof(CategoryCode) * column.codes().size();
    }
    bytes += kSectionOverhead + payload;
  }
  return bytes;
}

uint64_t UncompressedDeltaBytes(const Table& table, size_t base_rows,
                                const std::vector<size_t>& base_dict_sizes) {
  if (base_rows > table.num_rows() ||
      base_dict_sizes.size() != table.num_columns()) {
    return 0;
  }
  const uint64_t new_rows = table.num_rows() - base_rows;
  uint64_t bytes = sizeof(kTableDeltaMagic);
  bytes += kSectionOverhead + 3 * sizeof(uint64_t);  // header
  uint64_t schema = 0;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    schema += sizeof(uint64_t) + table.schema().field(c).name.size() + 1;
  }
  bytes += kSectionOverhead + schema;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& column = table.column(c);
    uint64_t payload = 1;
    if (column.is_numeric()) {
      payload += sizeof(double) * new_rows;
    } else {
      payload += 2 * sizeof(uint64_t);
      for (size_t i = base_dict_sizes[c]; i < column.dictionary().size();
           ++i) {
        payload += sizeof(uint64_t) + column.dictionary()[i].size();
      }
      payload += sizeof(CategoryCode) * new_rows;
    }
    bytes += kSectionOverhead + payload;
  }
  return bytes;
}

}  // namespace ziggy
