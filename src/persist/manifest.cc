#include "persist/manifest.h"

#include <algorithm>

#include "common/string_util.h"

namespace ziggy {

namespace {

constexpr char kMagicLine[] = "ziggy-store";
// Version 3 added pooled-dictionary refs, version 2 the delta chain
// fields; both older versions are still parsed (v1 entries are all full
// snapshots). Only version 3 is written.
constexpr int kVersion = 3;
constexpr int kChainVersion = 2;
constexpr int kLegacyVersion = 1;

std::string HashHex(uint64_t hash) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kHex[hash & 0xF];
    hash >>= 4;
  }
  return out;
}

bool ParseHashHex(const std::string& hex, uint64_t* hash) {
  if (hex.size() != 16) return false;
  uint64_t h = 0;
  for (const char c : hex) {
    h <<= 4;
    if (c >= '0' && c <= '9') {
      h |= static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      h |= static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *hash = h;
  return true;
}

}  // namespace

bool IsValidStoreTableName(const std::string& name) {
  if (name.empty() || name.size() > 256) return false;
  if (name == "." || name == "..") return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::optional<ManifestEntry> Manifest::Find(const std::string& name) const {
  for (const ManifestEntry& entry : entries_) {
    if (entry.name == name) return entry;
  }
  return std::nullopt;
}

void Manifest::Upsert(ManifestEntry entry) {
  for (ManifestEntry& existing : entries_) {
    if (existing.name == entry.name) {
      existing = std::move(entry);
      return;
    }
  }
  entries_.push_back(std::move(entry));
  std::sort(entries_.begin(), entries_.end(),
            [](const ManifestEntry& a, const ManifestEntry& b) {
              return a.name < b.name;
            });
}

bool Manifest::Remove(const std::string& name) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->name == name) {
      entries_.erase(it);
      return true;
    }
  }
  return false;
}

std::string Manifest::Serialize() const {
  std::string out =
      std::string(kMagicLine) + " " + std::to_string(kVersion) + "\n";
  for (const ManifestEntry& entry : entries_) {
    // "0": the retired sketch-snapshot flag (see manifest.h).
    out += "table " + entry.name + " " + std::to_string(entry.generation) +
           " 0 " + std::to_string(entry.base_generation) + " " +
           std::to_string(entry.delta_generations.size());
    for (const uint64_t delta : entry.delta_generations) {
      out += " " + std::to_string(delta);
    }
    out += " " + std::to_string(entry.dict_refs.size());
    for (const ManifestDictRef& ref : entry.dict_refs) {
      out += " " + std::to_string(ref.column) + " " + HashHex(ref.hash) +
             " " + std::to_string(ref.size);
    }
    out += "\n";
  }
  return out;
}

Result<Manifest> Manifest::Parse(const std::string& text) {
  std::vector<std::string> lines = Split(text, '\n');
  if (lines.empty()) return Status::ParseError("empty store manifest");

  const std::vector<std::string> head = Split(lines[0], ' ');
  if (head.size() != 2 || head[0] != kMagicLine) {
    return Status::ParseError("not a Ziggy store manifest");
  }
  Result<int64_t> version = ParseInt(head[1]);
  if (!version.ok()) return Status::ParseError("bad manifest version token");
  if (*version != kVersion && *version != kChainVersion &&
      *version != kLegacyVersion) {
    return Status::FailedPrecondition(
        "unsupported store manifest version " + head[1] + " (expected " +
        std::to_string(kVersion) + ")");
  }
  const bool legacy = *version == kLegacyVersion;
  const bool has_dict_refs = *version == kVersion;

  Manifest manifest;
  for (size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;  // trailing newline
    const std::vector<std::string> tokens = Split(lines[i], ' ');
    if (tokens.size() < 4 || tokens[0] != "table") {
      return Status::ParseError("malformed manifest line: " + lines[i]);
    }
    ManifestEntry entry;
    entry.name = tokens[1];
    if (!IsValidStoreTableName(entry.name)) {
      return Status::ParseError("invalid table name in manifest: " +
                                entry.name);
    }
    ZIGGY_ASSIGN_OR_RETURN(int64_t generation, ParseInt(tokens[2]));
    if (generation < 0) {
      return Status::ParseError("negative generation in manifest");
    }
    entry.generation = static_cast<uint64_t>(generation);
    // The retired sketch-snapshot flag: validated, then ignored.
    if (tokens[3] != "0" && tokens[3] != "1") {
      return Status::ParseError("malformed sketch flag in manifest");
    }
    if (legacy) {
      // v1: every checkpoint is a full snapshot.
      if (tokens.size() != 4) {
        return Status::ParseError("malformed manifest line: " + lines[i]);
      }
      entry.base_generation = entry.generation;
    } else {
      if (tokens.size() < 6) {
        return Status::ParseError("malformed manifest line: " + lines[i]);
      }
      ZIGGY_ASSIGN_OR_RETURN(int64_t base, ParseInt(tokens[4]));
      ZIGGY_ASSIGN_OR_RETURN(int64_t num_deltas, ParseInt(tokens[5]));
      const size_t chain_end = 6 + (num_deltas < 0 ? 0 : static_cast<size_t>(num_deltas));
      if (base < 0 || num_deltas < 0 ||
          (!has_dict_refs && tokens.size() != chain_end) ||
          (has_dict_refs && tokens.size() < chain_end + 1)) {
        return Status::ParseError("malformed delta chain in manifest line: " +
                                  lines[i]);
      }
      entry.base_generation = static_cast<uint64_t>(base);
      uint64_t previous = entry.base_generation;
      for (int64_t d = 0; d < num_deltas; ++d) {
        ZIGGY_ASSIGN_OR_RETURN(int64_t delta,
                               ParseInt(tokens[6 + static_cast<size_t>(d)]));
        if (delta < 0 || static_cast<uint64_t>(delta) <= previous) {
          return Status::ParseError(
              "delta chain is not strictly increasing in manifest line: " +
              lines[i]);
        }
        previous = static_cast<uint64_t>(delta);
        entry.delta_generations.push_back(static_cast<uint64_t>(delta));
      }
      // The chain must end at the recorded current generation.
      if (previous != entry.generation) {
        return Status::ParseError(
            "delta chain does not end at the current generation in "
            "manifest line: " +
            lines[i]);
      }
      if (has_dict_refs) {
        ZIGGY_ASSIGN_OR_RETURN(int64_t num_refs, ParseInt(tokens[chain_end]));
        if (num_refs < 0 ||
            tokens.size() !=
                chain_end + 1 + 3 * static_cast<size_t>(num_refs)) {
          return Status::ParseError(
              "malformed dictionary refs in manifest line: " + lines[i]);
        }
        uint64_t prev_column = 0;
        for (int64_t r = 0; r < num_refs; ++r) {
          const size_t at = chain_end + 1 + 3 * static_cast<size_t>(r);
          ManifestDictRef ref;
          ZIGGY_ASSIGN_OR_RETURN(int64_t column, ParseInt(tokens[at]));
          if (column < 0 ||
              (r > 0 && static_cast<uint64_t>(column) <= prev_column)) {
            return Status::ParseError(
                "dictionary refs are not strictly increasing by column in "
                "manifest line: " +
                lines[i]);
          }
          prev_column = static_cast<uint64_t>(column);
          ref.column = static_cast<uint64_t>(column);
          if (!ParseHashHex(tokens[at + 1], &ref.hash)) {
            return Status::ParseError(
                "malformed dictionary hash in manifest line: " + lines[i]);
          }
          ZIGGY_ASSIGN_OR_RETURN(int64_t size, ParseInt(tokens[at + 2]));
          if (size <= 0) {
            return Status::ParseError(
                "malformed dictionary size in manifest line: " + lines[i]);
          }
          ref.size = static_cast<uint64_t>(size);
          entry.dict_refs.push_back(ref);
        }
      }
    }
    if (manifest.Find(entry.name).has_value()) {
      return Status::ParseError("duplicate table in manifest: " + entry.name);
    }
    manifest.Upsert(std::move(entry));
  }
  return manifest;
}

}  // namespace ziggy
