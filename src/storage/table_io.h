// Binary columnar table import/export — the `.ztbl` codec of the
// persistence layer (persist/store.h).
//
// Why a binary codec next to the CSV reader: restart cost. A CSV boot
// pays tokenization, type inference, and double parsing per cell; the
// binary path is a handful of checksummed block reads straight into the
// columnar vectors. The restored table is *exactly* the persisted one —
// numeric cells are restored bit for bit (NaN NULLs included) and
// categorical columns keep their dictionary order and codes verbatim —
// which is what lets a warm-restarted server produce byte-identical
// query output to the process that wrote the file.
//
// Two table format versions, auto-detected by magic on read. Writes are
// always v2; v1 survives as a read-only decoder so files written by older
// releases still load.
//
// v1 (magic "ZIGTBL01", raw; all little-endian, CRC-framed sections —
// see binary_io.h):
//   section: header   { u64 num_rows, u64 num_columns }
//   section: schema   { per column: str name, u8 type }
//   section per column:
//     numeric      { u8 0, f64 cells[num_rows] }
//     categorical  { u8 1, u64 dict_size, str dict[dict_size],
//                    i32 codes[num_rows] }
//
// v2 (magic "ZIGTBL02", compressed): same magic/header/schema/section
// skeleton, but column payloads go through the per-column codecs of
// storage/column_codec.h — numeric cells as raw/lz/dfor, category codes
// as raw/lz/bit-packed, each chosen by measured size (raw wins ties, so
// incompressible data costs a tag byte, not a blow-up). A categorical
// column's dictionary is either inline (an lz-compressible label blob)
// or an *external reference* { u64 hash, u64 size } into the store's
// shared dictionary pool (persist/dict_pool.h), resolved at read time
// through TableReadOptions::resolve_dict:
//   section per column:
//     numeric      { u8 0, numeric-cells payload }
//     categorical  { u8 1, u8 dict_mode,
//                    dict_mode 0: str blob{ u64 dict_size, str labels… }
//                    dict_mode 1: u64 dict_hash, u64 dict_size,
//                    codes payload }
//
// Any truncation, bit flip, or length corruption of either version fails
// with a clean Status: every payload byte is covered by a section CRC,
// and all counts are validated against the header before a column is
// accepted.
//
// Delta segments (`.zdlt`, magics ZIGDLT01 / ZIGDLT02): the O(delta)
// sibling of the full codec. A segment serializes only the rows appended
// since a base snapshot — numeric tails, categorical tails as codes plus
// any dictionary entries the append interned (always inline; only full
// snapshots reference the pool) — so checkpointing an append writes
// bytes proportional to the appended rows, not the table. Replay applies
// the segment to the exact base it was cut against (validated: base row
// count, schema, per-column dictionary prefix) via
// Table::WithAppendedRows, reproducing the live post-append table bit
// for bit. Same CRC-framed sections, same corruption policy, and the
// same version split: ZIGDLT02 is written, ZIGDLT01 is read only.
//
// v1 delta layout ("ZIGDLT01"):
//   section: header   { u64 base_rows, u64 new_rows, u64 num_columns }
//   section: schema   { per column: str name, u8 type }
//   section per column:
//     numeric      { u8 0, f64 cells[new_rows] }
//     categorical  { u8 1, u64 base_dict_size, u64 new_entries,
//                    str entries[new_entries], i32 codes[new_rows] }
//                  (codes index the full base+new dictionary)
// v2 delta ("ZIGDLT02"): same, with the cells / new-entry blob / codes
// encoded through the column codecs.

#ifndef ZIGGY_STORAGE_TABLE_IO_H_
#define ZIGGY_STORAGE_TABLE_IO_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "storage/table.h"

namespace ziggy {

/// \brief Magic of the raw (v1) table codec (read only).
inline constexpr char kTableMagic[8] = {'Z', 'I', 'G', 'T', 'B', 'L', '0', '1'};
/// \brief Magic of the compressed (v2) table codec.
inline constexpr char kTableMagicV2[8] = {'Z', 'I', 'G', 'T',
                                          'B', 'L', '0', '2'};

/// \brief Reference to a pooled dictionary: the pool file's content hash
/// plus the number of leading labels this column uses (a column may
/// reference a strict prefix of a larger pooled dictionary).
struct DictRef {
  uint64_t hash = 0;
  uint64_t size = 0;
};

/// \brief Resolves a DictRef to a validated dictionary of exactly
/// `ref.size` labels (the store wires this to its dictionary pool).
using DictResolver =
    std::function<Result<std::shared_ptr<ColumnDictionary>>(const DictRef&)>;

/// \brief Write-side knobs of the table codec.
struct TableWriteOptions {
  /// Columns to externalize into the dictionary pool (column index ->
  /// pooled ref; ref.size must equal the column's dictionary size).
  /// Unmapped columns inline their dictionary.
  std::unordered_map<size_t, DictRef> external_dicts;
};

/// \brief Read-side knobs. `resolve_dict` is required to load v2 files
/// with external dictionary references; v1 and fully-inline v2 files
/// load without it.
struct TableReadOptions {
  DictResolver resolve_dict;
};

/// \brief Serializes a table in the compressed (v2) columnar format.
Status WriteTable(const Table& table, std::ostream* out,
                  const TableWriteOptions& options = {});

/// \brief Deserializes a table (v1 or v2, by magic); validates magic,
/// checksums, and shape.
Result<Table> ReadTable(std::istream* in, const TableReadOptions& options = {});

/// \brief File convenience wrappers. WriteTableFile writes in place (the
/// store layers tmp+rename on top for atomicity).
Status WriteTableFile(const Table& table, const std::string& path,
                      const TableWriteOptions& options = {});
Result<Table> ReadTableFile(const std::string& path,
                            const TableReadOptions& options = {});

/// \brief Magic of the raw (v1) delta codec (read only).
inline constexpr char kTableDeltaMagic[8] = {'Z', 'I', 'G', 'D',
                                             'L', 'T', '0', '1'};
/// \brief Magic of the compressed (v2) delta codec.
inline constexpr char kTableDeltaMagicV2[8] = {'Z', 'I', 'G', 'D',
                                               'L', 'T', '0', '2'};

/// \brief Serializes rows [base_rows, table.num_rows()) of `table` as a
/// (v2) delta segment. `base_dict_sizes[c]` is the dictionary size column
/// `c` had in the base snapshot (ignored for numeric columns); the base
/// dictionary must be a prefix of the current one — which is what
/// Table::WithAppendedRows guarantees for the append path. Delta
/// dictionary growth is always inline.
Status WriteTableDelta(const Table& table, size_t base_rows,
                       const std::vector<size_t>& base_dict_sizes,
                       std::ostream* out);

/// \brief Applies one delta segment (v1 or v2, by magic) to `base`,
/// returning the post-append table. Validates magic, checksums, the base
/// row count, the schema, and every categorical column's dictionary
/// prefix size against `base`; any mismatch or corruption fails with a
/// clean Status and `base` is left untouched.
Result<Table> ApplyTableDelta(const Table& base, std::istream* in);

/// \brief File convenience wrappers for delta segments.
Status WriteTableDeltaFile(const Table& table, size_t base_rows,
                           const std::vector<size_t>& base_dict_sizes,
                           const std::string& path);
Result<Table> ApplyTableDeltaFile(const Table& base, const std::string& path);

/// \brief Exact byte size of the v1 (uncompressed) encodings — the
/// "raw" side of the store's compressed/raw byte counters, computed
/// without materializing anything (tests pin it against a reference v1
/// encoder).
uint64_t UncompressedTableBytes(const Table& table);
uint64_t UncompressedDeltaBytes(const Table& table, size_t base_rows,
                                const std::vector<size_t>& base_dict_sizes);

}  // namespace ziggy

#endif  // ZIGGY_STORAGE_TABLE_IO_H_
