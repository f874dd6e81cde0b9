#include "persist/store.h"

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "persist/fs_util.h"
#include "storage/table_io.h"

namespace ziggy {

namespace {

constexpr char kManifestFile[] = "ziggy.manifest";
constexpr char kTablesDir[] = "tables";

std::string GenFile(const char* stem, uint64_t generation, const char* ext) {
  return std::string(stem) + ".g" + std::to_string(generation) + "." + ext;
}

Result<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return Status::IOError("read of '" + path + "' failed");
  }
  return buf.str();
}

uint64_t FileBytesOrZero(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

}  // namespace

Result<std::unique_ptr<ZiggyStore>> ZiggyStore::Open(const std::string& dir,
                                                     StoreOptions options) {
  if (dir.empty()) return Status::InvalidArgument("empty store directory");
  ZIGGY_RETURN_NOT_OK(EnsureDirectory(dir));
  ZIGGY_RETURN_NOT_OK(EnsureDirectory(JoinPath(dir, kTablesDir)));

  auto store = std::unique_ptr<ZiggyStore>(new ZiggyStore(dir, options));
  const std::string manifest_path = store->ManifestPath();
  if (PathExists(manifest_path)) {
    ZIGGY_ASSIGN_OR_RETURN(std::string text, ReadWholeFile(manifest_path));
    ZIGGY_ASSIGN_OR_RETURN(Manifest parsed, Manifest::Parse(text));
    MutexLock lock(store->mu_);  // uncontended: not yet published
    store->manifest_ = std::move(parsed);
  } else {
    MutexLock lock(store->mu_);
    ZIGGY_RETURN_NOT_OK(
        AtomicWriteFile(manifest_path, store->manifest_.Serialize()));
  }
  ZIGGY_ASSIGN_OR_RETURN(store->dict_pool_, DictPool::Open(dir));
  return store;
}

std::string ZiggyStore::ManifestPath() const {
  return JoinPath(dir_, kManifestFile);
}
std::string ZiggyStore::TableDir(const std::string& name) const {
  return JoinPath(JoinPath(dir_, kTablesDir), name);
}
std::string ZiggyStore::TablePath(const std::string& name,
                                  uint64_t generation) const {
  return JoinPath(TableDir(name), GenFile("table", generation, "ztbl"));
}
std::string ZiggyStore::DeltaPath(const std::string& name,
                                  uint64_t generation) const {
  return JoinPath(TableDir(name), GenFile("delta", generation, "zdlt"));
}
std::string ZiggyStore::ProfilePath(const std::string& name,
                                    uint64_t generation) const {
  return JoinPath(TableDir(name), GenFile("profile", generation, "zprof"));
}

std::vector<ManifestEntry> ZiggyStore::List() const {
  MutexLock lock(mu_);
  return manifest_.entries();
}

bool ZiggyStore::Has(const std::string& name) const {
  MutexLock lock(mu_);
  return manifest_.Find(name).has_value();
}

Result<uint64_t> ZiggyStore::StoredGeneration(const std::string& name) const {
  MutexLock lock(mu_);
  std::optional<ManifestEntry> entry = manifest_.Find(name);
  if (!entry.has_value()) {
    return Status::NotFound("table not in store: " + name);
  }
  return entry->generation;
}

StoreStats ZiggyStore::stats() const {
  StoreStats st;
  st.full_checkpoints = full_checkpoints_.load(std::memory_order_relaxed);
  st.delta_checkpoints = delta_checkpoints_.load(std::memory_order_relaxed);
  st.compactions = compactions_.load(std::memory_order_relaxed);
  st.checkpoint_bytes = checkpoint_bytes_.load(std::memory_order_relaxed);
  st.last_checkpoint_bytes =
      last_checkpoint_bytes_.load(std::memory_order_relaxed);
  st.checkpoint_raw_bytes =
      checkpoint_raw_bytes_.load(std::memory_order_relaxed);
  st.last_checkpoint_raw_bytes =
      last_checkpoint_raw_bytes_.load(std::memory_order_relaxed);
  const DictPoolStats pool = dict_pool_->stats();
  st.dict_pool_files = pool.dict_files;
  st.dict_pool_bytes = pool.dict_bytes;
  st.dict_pool_shared_hits = pool.shared_hits;
  return st;
}

std::shared_ptr<ZiggyStore::TableState> ZiggyStore::StateFor(
    const std::string& name) const {
  MutexLock lock(mu_);
  std::shared_ptr<TableState>& state = states_[name];
  if (state == nullptr) state = std::make_shared<TableState>();
  return state;
}

ZiggyStore::PersistedShape ZiggyStore::ShapeOf(const Table& table) {
  PersistedShape shape;
  shape.valid = true;
  shape.rows = table.num_rows();
  shape.fields = table.schema().fields();
  shape.dict_sizes.resize(table.num_columns(), 0);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& column = table.column(c);
    if (column.is_categorical()) {
      shape.dict_sizes[c] = column.dictionary().size();
    }
  }
  return shape;
}

bool ZiggyStore::ExtendsShape(const Table& table, const PersistedShape& shape) {
  if (!shape.valid) return false;
  if (table.num_rows() < shape.rows) return false;
  if (table.num_columns() != shape.fields.size()) return false;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Field& field = table.schema().field(c);
    if (field.name != shape.fields[c].name ||
        field.type != shape.fields[c].type) {
      return false;
    }
    if (field.type == ColumnType::kCategorical &&
        table.column(c).dictionary().size() < shape.dict_sizes[c]) {
      return false;
    }
  }
  return true;
}

Status ZiggyStore::CommitManifestLocked() {
  return AtomicWriteFile(ManifestPath(), manifest_.Serialize());
}

void ZiggyStore::SweepUnreferenced(const std::string& name,
                                   const ManifestEntry& keep) {
  // Best effort: anything in the table's directory that the committed
  // manifest entry does not reference is a superseded generation, a
  // compacted-away delta, an orphan from a crashed save, or a sketch
  // snapshot written by an older release.
  std::set<std::string> referenced;
  auto basename = [](const std::string& path) {
    return std::filesystem::path(path).filename().string();
  };
  referenced.insert(basename(TablePath(name, keep.base_generation)));
  for (const uint64_t d : keep.delta_generations) {
    referenced.insert(basename(DeltaPath(name, d)));
  }
  referenced.insert(basename(ProfilePath(name, keep.generation)));

  std::error_code ec;
  std::filesystem::directory_iterator it(TableDir(name), ec);
  if (ec) return;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string file = entry.path().filename().string();
    if (referenced.count(file) == 0) {
      (void)RemoveFileIfExists(entry.path().string());
    }
  }
}

Status ZiggyStore::SaveTable(const std::string& name, const Table& table,
                             uint64_t generation, const TableProfile& profile,
                             uint64_t lineage) {
  if (!IsValidStoreTableName(name)) {
    return Status::InvalidArgument("invalid store table name: \"" + name +
                                   "\"");
  }
  // Saves and loads of one table are serialized by its TableState lock:
  // each file rename is atomic on its own, but a checkpoint is several
  // files plus the manifest, and two interleaved savers (or a load racing
  // a save) could otherwise pair files from different generations.
  // Different tables proceed in parallel — a long save of one table must
  // not block the flusher's or a connection's work on another.
  std::shared_ptr<TableState> state_ref = StateFor(name);
  TableState* state = state_ref.get();
  MutexLock table_lock(state->mu);
  ZIGGY_RETURN_NOT_OK(EnsureDirectory(TableDir(name)));
  std::optional<ManifestEntry> previous;
  {
    MutexLock lock(mu_);
    previous = manifest_.Find(name);
  }

  const bool can_delta = previous.has_value() && options_.max_delta_chain > 0 &&
                         generation > previous->generation && lineage != 0 &&
                         lineage == state->shape.lineage &&
                         ExtendsShape(table, state->shape);
  if (!can_delta) {
    return SaveFullLocked(state, name, table, generation, profile, lineage,
                          /*counts_as_compaction=*/false);
  }
  const bool chain_full =
      previous->delta_generations.size() >= options_.max_delta_chain;
  const bool chain_heavy =
      state->shape.base_bytes > 0 &&
      static_cast<double>(state->shape.delta_bytes) >=
          options_.max_delta_fraction *
              static_cast<double>(state->shape.base_bytes);
  if (chain_full || chain_heavy) {
    return SaveFullLocked(state, name, table, generation, profile, lineage,
                          /*counts_as_compaction=*/true);
  }
  return SaveDeltaLocked(state, name, table, generation, profile, lineage,
                         *previous);
}

Status ZiggyStore::SaveFullLocked(TableState* state, const std::string& name,
                                  const Table& table, uint64_t generation,
                                  const TableProfile& profile,
                                  uint64_t lineage,
                                  bool counts_as_compaction) {
  // Externalize categorical dictionaries into the shared pool first. The
  // pool files are durable before the table file that references them is
  // staged, and the pins keep a concurrent sweep (another table's save
  // committing in parallel) from deleting them in the window before OUR
  // manifest commit makes them live. Acquire failures degrade to inlining
  // the dictionary — never to a failed checkpoint.
  TableWriteOptions write_options;
  std::vector<ManifestDictRef> dict_refs;
  ScopedDictPins pins(dict_pool_.get());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& column = table.column(c);
    if (!column.is_categorical() || column.dictionary().empty()) continue;
    Result<DictRef> ref = dict_pool_->Acquire(column.dictionary());
    if (!ref.ok()) continue;
    pins.Add(ref->hash);
    write_options.external_dicts[c] = *ref;
    dict_refs.push_back(ManifestDictRef{c, ref->hash, ref->size});
  }

  // Stage the generation's data files. These are NEW paths (named by the
  // generation), so a failure or crash anywhere in here cannot disturb
  // the checkpoint the manifest currently points at. CommitFile fsyncs
  // each staged file and its directory entry before the manifest commits.
  {
    const std::string path = TablePath(name, generation);
    const std::string tmp = TempPathFor(path);
    Status st = WriteTableFile(table, tmp, write_options);
    if (st.ok()) st = CommitFile(tmp, path);
    if (!st.ok()) {
      (void)RemoveFileIfExists(tmp);
      return st;
    }
  }
  {
    const std::string path = ProfilePath(name, generation);
    const std::string tmp = TempPathFor(path);
    Status st = profile.SaveToFile(tmp);
    if (st.ok()) st = CommitFile(tmp, path);
    if (!st.ok()) {
      (void)RemoveFileIfExists(tmp);
      return st;
    }
  }

  // Commit: the manifest rewrite is the single atomic switch point.
  ManifestEntry entry;
  entry.name = name;
  entry.generation = generation;
  entry.base_generation = generation;
  entry.dict_refs = std::move(dict_refs);
  {
    MutexLock lock(mu_);
    // A failed commit must leave the in-memory manifest matching the disk:
    // a store that *believes* in a generation the manifest file never
    // recorded would serve it until the next restart silently forgot it.
    Manifest rollback = manifest_;
    manifest_.Upsert(entry);
    if (Status st = CommitManifestLocked(); !st.ok()) {
      manifest_ = std::move(rollback);
      return st;
    }
  }

  // Sweep superseded generations, compacted-away deltas, and orphans
  // from crashed saves — all best effort, retried by the next full save.
  // This save's dictionaries are live (committed manifest) or pinned, so
  // the pool sweep can only drop dictionaries the *previous* checkpoint
  // of this table was the last user of.
  SweepUnreferenced(name, entry);
  SweepDictPool();

  const uint64_t bytes = FileBytesOrZero(TablePath(name, generation));
  state->shape = ShapeOf(table);
  state->shape.lineage = lineage;
  state->shape.base_bytes = bytes;
  state->shape.delta_bytes = 0;

  full_checkpoints_.fetch_add(1, std::memory_order_relaxed);
  if (counts_as_compaction) {
    compactions_.fetch_add(1, std::memory_order_relaxed);
  }
  const uint64_t raw_bytes = UncompressedTableBytes(table);
  checkpoint_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  last_checkpoint_bytes_.store(bytes, std::memory_order_relaxed);
  checkpoint_raw_bytes_.fetch_add(raw_bytes, std::memory_order_relaxed);
  last_checkpoint_raw_bytes_.store(raw_bytes, std::memory_order_relaxed);
  return Status::OK();
}

Status ZiggyStore::SaveDeltaLocked(TableState* state, const std::string& name,
                                   const Table& table, uint64_t generation,
                                   const TableProfile& profile,
                                   uint64_t lineage,
                                   const ManifestEntry& previous) {
  // O(delta): only the appended rows' column tails hit the disk. The
  // profile is rewritten per save, but it is O(columns), not O(rows) —
  // the delta path targets the table data.
  {
    const std::string path = DeltaPath(name, generation);
    const std::string tmp = TempPathFor(path);
    Status st = WriteTableDeltaFile(table, state->shape.rows,
                                    state->shape.dict_sizes, tmp);
    if (st.ok()) st = CommitFile(tmp, path);
    if (!st.ok()) {
      (void)RemoveFileIfExists(tmp);
      return st;
    }
  }
  {
    const std::string path = ProfilePath(name, generation);
    const std::string tmp = TempPathFor(path);
    Status st = profile.SaveToFile(tmp);
    if (st.ok()) st = CommitFile(tmp, path);
    if (!st.ok()) {
      (void)RemoveFileIfExists(tmp);
      return st;
    }
  }

  ManifestEntry entry = previous;
  entry.generation = generation;
  entry.delta_generations.push_back(generation);
  {
    MutexLock lock(mu_);
    Manifest rollback = manifest_;
    manifest_.Upsert(entry);
    if (Status st = CommitManifestLocked(); !st.ok()) {
      manifest_ = std::move(rollback);
      return st;
    }
  }

  // Sweep the superseded head generation's profile (the base and
  // earlier deltas stay — they are the chain).
  (void)RemoveFileIfExists(ProfilePath(name, previous.generation));

  const uint64_t bytes = FileBytesOrZero(DeltaPath(name, generation));
  const uint64_t raw_bytes =
      UncompressedDeltaBytes(table, state->shape.rows, state->shape.dict_sizes);
  const uint64_t base_bytes = state->shape.base_bytes;
  const uint64_t delta_bytes = state->shape.delta_bytes + bytes;
  state->shape = ShapeOf(table);
  state->shape.lineage = lineage;
  state->shape.base_bytes = base_bytes;
  state->shape.delta_bytes = delta_bytes;

  delta_checkpoints_.fetch_add(1, std::memory_order_relaxed);
  checkpoint_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  last_checkpoint_bytes_.store(bytes, std::memory_order_relaxed);
  checkpoint_raw_bytes_.fetch_add(raw_bytes, std::memory_order_relaxed);
  last_checkpoint_raw_bytes_.store(raw_bytes, std::memory_order_relaxed);
  return Status::OK();
}

Result<StoredTable> ZiggyStore::LoadTable(const std::string& name,
                                          uint64_t lineage) const {
  // Serialized against SaveTable of the same table (see there): the data
  // files must be read as one consistent checkpoint. Other tables' saves
  // and loads proceed concurrently.
  std::shared_ptr<TableState> state_ref = StateFor(name);
  TableState* state = state_ref.get();
  MutexLock table_lock(state->mu);
  ManifestEntry entry;
  {
    MutexLock lock(mu_);
    std::optional<ManifestEntry> found = manifest_.Find(name);
    if (!found.has_value()) {
      return Status::NotFound("table not in store: " + name);
    }
    entry = *found;
  }

  StoredTable stored;
  stored.generation = entry.generation;
  TableReadOptions read_options;
  read_options.resolve_dict = [pool = dict_pool_.get()](const DictRef& ref) {
    return pool->Resolve(ref);
  };
  ZIGGY_ASSIGN_OR_RETURN(
      stored.table,
      ReadTableFile(TablePath(name, entry.base_generation), read_options));
  const uint64_t base_bytes =
      FileBytesOrZero(TablePath(name, entry.base_generation));
  uint64_t delta_bytes = 0;
  // Replay the delta chain in order; any segment that is corrupt or does
  // not extend what the chain built so far fails the whole load cleanly.
  for (const uint64_t delta : entry.delta_generations) {
    ZIGGY_ASSIGN_OR_RETURN(
        stored.table,
        ApplyTableDeltaFile(stored.table, DeltaPath(name, delta)));
    delta_bytes += FileBytesOrZero(DeltaPath(name, delta));
  }
  ZIGGY_ASSIGN_OR_RETURN(
      stored.profile,
      TableProfile::LoadFromFile(ProfilePath(name, entry.generation)));
  if (Status shape = stored.profile.CheckShape(stored.table); !shape.ok()) {
    return Status::ParseError("stored " + shape.message());
  }

  // Remember what is on disk so the first append checkpoint of a server
  // booted from this load is already O(delta).
  state->shape = ShapeOf(stored.table);
  state->shape.lineage = lineage;
  state->shape.base_bytes = base_bytes;
  state->shape.delta_bytes = delta_bytes;
  return stored;
}

Status ZiggyStore::RemoveTable(const std::string& name) {
  // The TableState stays in states_ (one small entry per name ever
  // used): erasing it here would hand a racing SaveTable a fresh,
  // uncontended mutex, letting it commit new files into the directory
  // this thread is about to delete. Keeping the entry means the racer
  // blocks on state->mu until the removal below is complete.
  std::shared_ptr<TableState> state_ref = StateFor(name);
  TableState* state = state_ref.get();
  MutexLock table_lock(state->mu);
  {
    MutexLock lock(mu_);
    Manifest rollback = manifest_;
    if (!manifest_.Remove(name)) {
      return Status::NotFound("table not in store: " + name);
    }
    if (Status st = CommitManifestLocked(); !st.ok()) {
      manifest_ = std::move(rollback);
      return st;
    }
  }
  state->shape = PersistedShape{};
  Status st = RemoveDirectory(TableDir(name));
  // The removed entry may have been the last reference to its pooled
  // dictionaries.
  SweepDictPool();
  return st;
}

void ZiggyStore::SweepDictPool() {
  std::set<uint64_t> live;
  {
    MutexLock lock(mu_);
    for (const ManifestEntry& entry : manifest_.entries()) {
      for (const ManifestDictRef& ref : entry.dict_refs) {
        live.insert(ref.hash);
      }
    }
  }
  dict_pool_->SweepUnreferenced(live);
}

}  // namespace ziggy
