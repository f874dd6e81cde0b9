// ExplorationSession: the session layer an exploration front-end keeps per
// user. It wraps a ZiggyEngine with:
//
//  * query history (text, row counts, timings),
//  * novelty filtering — a view shown for an earlier query is demoted or
//    suppressed when it reappears unchanged, so every iteration of the
//    explore-inspect-refine loop surfaces something *new* ("the users can
//    interpret these explanations as hints for further exploration"), and
//  * session statistics (query counts, per-stage time totals, novelty
//    outcomes).
//
// The novelty logic lives in NoveltyTracker, a small free-standing class,
// because two session types need it: the library's ExplorationSession
// (which owns its engine) and the serving layer's server-side sessions
// (which share one engine state across many users and are rebuilt on table
// appends — the tracker survives the rebuild so users never see repeats
// across generations).

#ifndef ZIGGY_ENGINE_SESSION_H_
#define ZIGGY_ENGINE_SESSION_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "engine/ziggy_engine.h"

namespace ziggy {

/// \brief Options of the session layer.
struct SessionOptions {
  /// What to do with a view whose column set was already shown:
  /// demote = move it after the novel views; suppress = drop it.
  enum class NoveltyPolicy { kOff, kDemote, kSuppress };
  NoveltyPolicy novelty = NoveltyPolicy::kDemote;
  /// Number of history entries retained (0 = unbounded).
  size_t max_history = 0;
};

/// \brief One history entry.
struct SessionEntry {
  std::string query_text;
  int64_t inside_count = 0;
  double total_ms = 0.0;
  size_t views_returned = 0;
  bool ok = false;
  std::string error;  ///< set when ok is false
};

/// \brief Aggregate session statistics.
struct SessionStats {
  size_t queries_run = 0;
  size_t queries_failed = 0;
  double preparation_ms = 0.0;
  double search_ms = 0.0;
  double post_processing_ms = 0.0;
  size_t views_shown = 0;
  size_t views_demoted = 0;
  size_t views_suppressed = 0;
};

/// \brief Remembers which view column sets a user has already seen and
/// applies the novelty policy to fresh results. Not thread-safe; callers
/// synchronize per session.
class NoveltyTracker {
 public:
  struct Outcome {
    size_t demoted = 0;
    size_t suppressed = 0;
  };

  /// Reorders/prunes `views` per the policy (repeats after novel views for
  /// kDemote, removed for kSuppress), then records every surviving view as
  /// shown.
  Outcome ApplyAndObserve(SessionOptions::NoveltyPolicy policy,
                          std::vector<CharacterizedView>* views);

  /// True if this exact column set was recorded by an earlier
  /// ApplyAndObserve.
  bool WasShownBefore(const std::vector<size_t>& columns) const;

  void Clear() { shown_.clear(); }
  size_t num_shown() const { return shown_.size(); }

 private:
  static uint64_t ViewKey(const std::vector<size_t>& columns);

  std::set<uint64_t> shown_;
};

/// \brief Shared per-result bookkeeping of every session flavor
/// (ExplorationSession and the serving layer's server-side sessions):
/// accumulates stage timings into `stats`, applies the novelty policy via
/// `novelty`, and updates the shown/demoted/suppressed counters.
void ObserveCharacterization(Characterization* result,
                             SessionOptions::NoveltyPolicy policy,
                             NoveltyTracker* novelty, SessionStats* stats);

/// \brief A per-user exploration session over one table.
class ExplorationSession {
 public:
  /// The engine is owned by the session.
  ExplorationSession(ZiggyEngine engine, SessionOptions options = {});

  /// Runs a query; applies the novelty policy; records history. Each view
  /// in the returned Characterization is annotated as novel or repeated
  /// via IsNovel() below (keyed by column set).
  Result<Characterization> Explore(const std::string& query_text);

  /// True if this exact column set has NOT been shown earlier in the
  /// session (state as of the most recent Explore call).
  bool WasShownBefore(const std::vector<size_t>& columns) const;

  const std::vector<SessionEntry>& history() const { return history_; }
  const SessionStats& stats() const { return stats_; }

  ZiggyEngine& engine() { return engine_; }
  const ZiggyEngine& engine() const { return engine_; }

  /// Forgets shown-view state and history (the engine's sketch cache is
  /// kept).
  void Reset();

 private:
  ZiggyEngine engine_;
  SessionOptions options_;
  std::vector<SessionEntry> history_;
  SessionStats stats_;
  NoveltyTracker novelty_;
};

}  // namespace ziggy

#endif  // ZIGGY_ENGINE_SESSION_H_
