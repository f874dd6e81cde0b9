// The store manifest: the small, human-readable index at the root of a
// Ziggy store directory. One line per persisted table recording its name,
// the table *generation* the files were checkpointed at (the same counter
// the serving layer's append path maintains), and the checkpoint's delta
// chain: the generation of the full base snapshot plus the ordered delta
// segments layered on top of it (empty when the checkpoint is a plain
// full snapshot).
//
// The manifest is the store's commit record: per-table data files are
// staged tmp+rename first (each fsynced) and the manifest is rewritten
// (atomically, fsynced) last, so a crash mid-save leaves either the
// previous complete checkpoint or the new one — never a half-registered
// table, and never a chain whose segments are not all on disk.
//
// Format (text, versioned):
//   ziggy-store 3
//   table <name> <generation> <0> <base_generation>
//         <num_deltas> <delta_generation>...
//         <num_dict_refs> [<column> <hash:hex16> <size>]...
// The dict-ref fields (version 3) record which columns of the base
// snapshot reference a pooled dictionary (persist/dict_pool.h) instead
// of inlining it — the manifest is what makes a pooled dictionary
// *live* for GC purposes. The writer always emits version 3; versions 1
// (no chain fields; every entry a full snapshot) and 2 (no dict refs)
// are still read.
//
// Compatibility: the fourth token once flagged a sketch-cache snapshot
// (sketches.g<G>.zskc, magic ZIGSKC01) next to the checkpoint. Sketches
// are no longer persisted, so the writer always puts 0 there and the
// parser accepts 0|1 and ignores it. Keeping the slot spares a version
// bump: stores written by older releases still load, and their .zskc
// files are unreferenced, so the next full checkpoint sweeps them.

#ifndef ZIGGY_PERSIST_MANIFEST_H_
#define ZIGGY_PERSIST_MANIFEST_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"

namespace ziggy {

/// \brief One column's pooled-dictionary reference in a manifest entry.
struct ManifestDictRef {
  uint64_t column = 0;  ///< column index in the base snapshot
  uint64_t hash = 0;    ///< pooled dictionary content hash
  uint64_t size = 0;    ///< number of leading labels the column uses
};

/// \brief One persisted table's manifest record.
struct ManifestEntry {
  std::string name;
  /// Current (latest) generation of the checkpoint: the base's when the
  /// chain is empty, the last delta segment's otherwise.
  uint64_t generation = 0;
  /// Generation of the full base snapshot (table.g<B>.ztbl).
  uint64_t base_generation = 0;
  /// Ordered delta segments (delta.g<D>.zdlt) applied on top of the base;
  /// strictly increasing, all > base_generation, last == generation.
  std::vector<uint64_t> delta_generations;
  /// Pooled dictionaries the base snapshot references, sorted by column
  /// (empty for uncompressed or fully-inline checkpoints).
  std::vector<ManifestDictRef> dict_refs;
};

/// \brief True iff `name` is a valid table name, for the store and the
/// serving catalog alike: [A-Za-z0-9_.-], 1..256 chars, except the path
/// specials "." and ".." — table names become directory components.
bool IsValidStoreTableName(const std::string& name);

/// \brief Parsed manifest contents. Entries are kept sorted by name so
/// serialization is deterministic (stable diffs, stable LIST output).
class Manifest {
 public:
  const std::vector<ManifestEntry>& entries() const { return entries_; }

  /// The entry for `name`, if present.
  std::optional<ManifestEntry> Find(const std::string& name) const;

  /// Inserts or replaces the entry for `entry.name`.
  void Upsert(ManifestEntry entry);

  /// Removes `name`; returns false when absent.
  bool Remove(const std::string& name);

  /// Renders the manifest text (ends with a newline).
  std::string Serialize() const;

  /// Parses manifest text; rejects unknown versions and malformed lines.
  static Result<Manifest> Parse(const std::string& text);

 private:
  std::vector<ManifestEntry> entries_;
};

}  // namespace ziggy

#endif  // ZIGGY_PERSIST_MANIFEST_H_
