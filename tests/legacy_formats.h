// Reference encoders for the raw v1 on-disk formats (ZIGTBL01 tables and
// ZIGDLT01 delta segments, layouts in storage/table_io.h) and for format-3
// profiles (ZIGPROF3, a ZIGPROF4 profile without its row count). The
// shipping code only writes v2 tables and format-4 profiles and keeps the
// older formats as read-only decoders for files older releases wrote;
// these encoders produce such files so the tests can keep checking the
// decoders (round trips, torture runs) and the exact v1 byte counts behind
// UncompressedTableBytes / UncompressedDeltaBytes.

#ifndef ZIGGY_TESTS_LEGACY_FORMATS_H_
#define ZIGGY_TESTS_LEGACY_FORMATS_H_

#include <sstream>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/checksum.h"
#include "storage/table.h"
#include "storage/table_io.h"
#include "zig/profile.h"

namespace ziggy {
namespace legacy {

inline void PutSchema(std::string* payload, const Table& table) {
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Field& field = table.schema().field(c);
    PutLengthPrefixed(payload, field.name);
    PutU8(payload, static_cast<uint8_t>(field.type));
  }
}

inline void AppendRaw(std::string* payload, const void* data, size_t bytes) {
  payload->append(static_cast<const char*>(data), bytes);
}

/// The v1 column payload of rows [begin, end), with the categorical
/// column's dictionary entries [dict_begin, size) in front of the codes.
inline std::string ColumnPayloadV1(const Column& column, size_t begin,
                                   size_t end, size_t dict_begin,
                                   bool is_delta) {
  std::string payload;
  if (column.is_numeric()) {
    PutU8(&payload, 0);
    AppendRaw(&payload, column.numeric_data().data() + begin,
              sizeof(double) * (end - begin));
    return payload;
  }
  PutU8(&payload, 1);
  if (is_delta) PutU64(&payload, dict_begin);
  PutU64(&payload, column.dictionary().size() - dict_begin);
  for (size_t i = dict_begin; i < column.dictionary().size(); ++i) {
    PutLengthPrefixed(&payload, column.dictionary()[i]);
  }
  AppendRaw(&payload, column.codes().data() + begin,
            sizeof(CategoryCode) * (end - begin));
  return payload;
}

/// A ZIGTBL01 image of `table`.
inline std::string TableV1(const Table& table) {
  std::ostringstream out(std::ios::binary);
  out.write(kTableMagic, sizeof(kTableMagic));
  std::string header;
  PutU64(&header, table.num_rows());
  PutU64(&header, table.num_columns());
  std::string schema;
  PutSchema(&schema, table);
  (void)WriteSection(&out, header);
  (void)WriteSection(&out, schema);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    (void)WriteSection(&out, ColumnPayloadV1(table.column(c), 0,
                                             table.num_rows(), 0, false));
  }
  return out.str();
}

/// A ZIGDLT01 image of rows [base_rows, table.num_rows()) of `table`;
/// `base_dict_sizes` as for WriteTableDelta.
inline std::string DeltaV1(const Table& table, size_t base_rows,
                           const std::vector<size_t>& base_dict_sizes) {
  std::ostringstream out(std::ios::binary);
  out.write(kTableDeltaMagic, sizeof(kTableDeltaMagic));
  std::string header;
  PutU64(&header, base_rows);
  PutU64(&header, table.num_rows() - base_rows);
  PutU64(&header, table.num_columns());
  std::string schema;
  PutSchema(&schema, table);
  (void)WriteSection(&out, header);
  (void)WriteSection(&out, schema);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    (void)WriteSection(
        &out, ColumnPayloadV1(table.column(c), base_rows, table.num_rows(),
                              base_dict_sizes[c], true));
  }
  return out.str();
}

/// The ZIGPROF3 image of `profile`: its ZIGPROF4 image without the u64 row
/// count after the column count, re-checksummed.
inline std::string ProfileV3(const TableProfile& profile) {
  std::ostringstream out(std::ios::binary);
  (void)profile.Serialize(&out);
  std::string bytes = out.str();
  // magic | floor f64 | pair cap u64 | ranks flag u8 | bins u64 | cols u64
  const size_t row_count_at = 8 + 8 + 8 + 1 + 8 + 8;
  bytes[7] = '3';
  bytes.erase(row_count_at, sizeof(uint64_t));
  bytes.resize(bytes.size() - sizeof(uint32_t));
  PutU32(&bytes, Crc32(bytes));
  return bytes;
}

}  // namespace legacy
}  // namespace ziggy

#endif  // ZIGGY_TESTS_LEGACY_FORMATS_H_
