#include "serve/ziggy_server.h"

#include <utility>

#include "common/logging.h"
#include "obs/trace.h"

namespace ziggy {

ZiggyServer::ZiggyServer(ServeOptions options,
                         std::shared_ptr<const ServingState> state)
    : options_(std::move(options)),
      state_(std::move(state)),
      cache_(options_.cache_budget_bytes, options_.shared_cache_budget) {
  if (options_.metrics != nullptr) {
    scan_us_ = options_.metrics->histogram("ziggy_scan_us");
    sketch_lookup_us_ = options_.metrics->histogram("ziggy_sketch_lookup_us");
  }
}

Result<std::unique_ptr<ZiggyServer>> ZiggyServer::Create(Table table,
                                                         ServeOptions options) {
  if (table.num_rows() == 0) {
    return Status::InvalidArgument("cannot serve an empty table");
  }
  Result<TableProfile> profile = Status::Internal("unreachable");
  {
    obs::MetricsRegistry* metrics = options.metrics.get();
    obs::TraceSpan span("open_profile",
                        metrics != nullptr ? metrics->clock() : nullptr,
                        metrics != nullptr
                            ? metrics->histogram("ziggy_open_profile_us")
                            : nullptr);
    profile = TableProfile::Compute(table, options.engine.profile);
  }
  ZIGGY_RETURN_NOT_OK(profile.status());
  return CreateFromState(std::move(table), /*generation=*/0,
                         std::move(*profile), std::move(options));
}

Result<std::unique_ptr<ZiggyServer>> ZiggyServer::CreateFromState(
    Table table, uint64_t generation, TableProfile profile,
    ServeOptions options) {
  if (table.num_rows() == 0) {
    return Status::InvalidArgument("cannot serve an empty table");
  }
  ZIGGY_RETURN_NOT_OK(profile.CheckShape(table));
  Result<Dendrogram> dendrogram = Status::Internal("unreachable");
  {
    obs::MetricsRegistry* metrics = options.metrics.get();
    obs::TraceSpan span("open_dendrogram",
                        metrics != nullptr ? metrics->clock() : nullptr,
                        metrics != nullptr
                            ? metrics->histogram("ziggy_open_dendrogram_us")
                            : nullptr);
    dendrogram = BuildColumnDendrogram(profile);
  }
  ZIGGY_RETURN_NOT_OK(dendrogram.status());
  auto state = std::make_shared<ServingState>();
  state->snapshot = TableSnapshot(std::move(table), generation);
  state->profile = std::make_shared<const TableProfile>(std::move(profile));
  state->dendrogram = std::make_shared<const Dendrogram>(std::move(*dendrogram));
  return std::unique_ptr<ZiggyServer>(
      new ZiggyServer(std::move(options), std::move(state)));
}

uint64_t ZiggyServer::OpenSession() { return OpenSession(options_.session); }

uint64_t ZiggyServer::OpenSession(const SessionOptions& options) {
  auto session = std::make_shared<Session>();
  session->id = next_session_id_.fetch_add(1, std::memory_order_relaxed);
  session->options = options;
  {
    MutexLock lock(sessions_mu_);
    sessions_.emplace(session->id, session);
  }
  sessions_opened_.fetch_add(1, std::memory_order_relaxed);
  return session->id;
}

Status ZiggyServer::CloseSession(uint64_t session_id) {
  std::shared_ptr<Session> session;
  {
    MutexLock lock(sessions_mu_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) {
      return Status::NotFound("no such session: " + std::to_string(session_id));
    }
    session = it->second;
    sessions_.erase(it);
  }
  // Best-effort drain: waits for a request already holding the session
  // mutex. A racing caller that resolved the session before this erase but
  // has not locked yet may still complete afterwards — its shared_ptr
  // keeps the session alive, so this is benign (the orphaned session just
  // absorbs one last result).
  MutexLock drain(session->mu);
  return Status::OK();
}

size_t ZiggyServer::num_sessions() const {
  MutexLock lock(sessions_mu_);
  return sessions_.size();
}

std::shared_ptr<ZiggyServer::Session> ZiggyServer::FindSession(
    uint64_t session_id) const {
  MutexLock lock(sessions_mu_);
  auto it = sessions_.find(session_id);
  return it == sessions_.end() ? nullptr : it->second;
}

std::shared_ptr<const ServingState> ZiggyServer::state() const {
  MutexLock lock(state_mu_);
  return state_;
}

Status ZiggyServer::BindSession(Session* session,
                                std::shared_ptr<const ServingState> state) {
  ZIGGY_ASSIGN_OR_RETURN(
      ZiggyEngine engine,
      ZiggyEngine::CreateShared(state->snapshot.shared_table(), state->profile,
                                state->dendrogram, options_.engine));
  session->engine = std::make_unique<ZiggyEngine>(std::move(engine));
  session->engine_generation = state->generation();
  // The provider captures the state handle: even if the server moves to a
  // newer generation mid-request, this request keeps scanning the
  // generation its selection was evaluated on.
  ProvideSketchesOptions routine;
  routine.generation = state->generation();
  routine.patch_near_misses = options_.patch_near_misses;
  routine.scan_threads = options_.scan_threads;
  routine.clock =
      options_.metrics != nullptr ? options_.metrics->clock() : nullptr;
  routine.lookup_us = sketch_lookup_us_;
  routine.scan_us = scan_us_;
  SketchCache* cache = options_.cache_enabled ? &cache_ : nullptr;
  session->engine->set_sketch_provider(
      [this, cache, routine, held = std::move(state)](
          const Selection& selection, uint64_t fingerprint) {
        ProvidedSketches out =
            ProvideSketches(held->table(), *held->profile, selection,
                            fingerprint, cache, routine);
        switch (out.source) {
          case SketchSource::kCacheExact:
            sketch_exact_hits_.fetch_add(1, std::memory_order_relaxed);
            break;
          case SketchSource::kCachePatched:
            sketch_patched_hits_.fetch_add(1, std::memory_order_relaxed);
            patched_delta_rows_.fetch_add(out.delta_rows,
                                          std::memory_order_relaxed);
            break;
          default:
            sketch_misses_.fetch_add(1, std::memory_order_relaxed);
        }
        return out;
      });
  return Status::OK();
}

Result<Characterization> ZiggyServer::Characterize(uint64_t session_id,
                                                   const std::string& query_text) {
  std::shared_ptr<Session> session_ref = FindSession(session_id);
  if (session_ref == nullptr) {
    return Status::NotFound("no such session: " + std::to_string(session_id));
  }
  Session* session = session_ref.get();
  MutexLock lock(session->mu);
  requests_.fetch_add(1, std::memory_order_relaxed);

  std::shared_ptr<const ServingState> current = state();
  if (session->engine == nullptr ||
      session->engine_generation != current->generation()) {
    ZIGGY_RETURN_NOT_OK(BindSession(session, current));
  }

  Result<Characterization> result =
      session->engine->CharacterizeQuery(query_text);
  ++session->stats.queries_run;
  if (!result.ok()) {
    ++session->stats.queries_failed;
    failures_.fetch_add(1, std::memory_order_relaxed);
    return result;
  }

  ObserveCharacterization(&result.ValueOrDie(), session->options.novelty,
                          &session->novelty, &session->stats);
  return result;
}

Status ZiggyServer::Append(const Table& rows) {
  // One append at a time; concurrent characterize traffic continues on the
  // current generation throughout.
  MutexLock append_lock(append_mu_);
  std::shared_ptr<const ServingState> current = state();

  ZIGGY_ASSIGN_OR_RETURN(TableSnapshot next_snapshot,
                         current->snapshot.WithAppendedRows(rows));
  auto next_profile = std::make_shared<TableProfile>(*current->profile);
  ZIGGY_ASSIGN_OR_RETURN(
      ProfileAppendEffects effects,
      next_profile->ApplyAppend(next_snapshot.table(),
                                current->snapshot.table().num_rows()));
  ZIGGY_ASSIGN_OR_RETURN(Dendrogram dendrogram,
                         BuildColumnDendrogram(*next_profile));

  auto next = std::make_shared<ServingState>();
  next->snapshot = std::move(next_snapshot);
  next->profile = std::move(next_profile);
  next->dendrogram = std::make_shared<const Dendrogram>(std::move(dendrogram));

  if (options_.cache_enabled) {
    // Every cached sketch belongs to the old generation, whose midranks
    // the append moved, so its rank sums are stale. Find would never
    // match one again; clear them instead of letting them hold the budget.
    cache_.Clear();
    cache_flushes_.fetch_add(1, std::memory_order_relaxed);
  }

  {
    MutexLock lock(state_mu_);
    state_ = std::move(next);
  }
  appends_.fetch_add(1, std::memory_order_relaxed);
  appended_rows_.fetch_add(effects.rows_appended, std::memory_order_relaxed);
  return Status::OK();
}

Result<SessionStats> ZiggyServer::GetSessionStats(uint64_t session_id) const {
  std::shared_ptr<Session> session = FindSession(session_id);
  if (session == nullptr) {
    return Status::NotFound("no such session: " + std::to_string(session_id));
  }
  MutexLock lock(session->mu);
  return session->stats;
}

void ZiggyServer::FlushSketchCache() { cache_.Clear(); }

std::shared_ptr<const SelectionSketches> ZiggyServer::FindCachedSketches(
    const Selection& selection) {
  size_t delta = 0;
  auto hit = cache_.Find(selection, selection.Fingerprint(),
                         state()->generation(), /*max_delta_rows=*/0, &delta);
  return hit == nullptr ? nullptr : hit->inside;
}

ServeStats ZiggyServer::stats() const {
  ServeStats st;
  st.requests = requests_.load(std::memory_order_relaxed);
  st.failures = failures_.load(std::memory_order_relaxed);
  st.sketch_exact_hits = sketch_exact_hits_.load(std::memory_order_relaxed);
  st.sketch_patched_hits = sketch_patched_hits_.load(std::memory_order_relaxed);
  st.sketch_misses = sketch_misses_.load(std::memory_order_relaxed);
  st.patched_delta_rows = patched_delta_rows_.load(std::memory_order_relaxed);
  st.appends = appends_.load(std::memory_order_relaxed);
  st.appended_rows = appended_rows_.load(std::memory_order_relaxed);
  st.cache_flushes = cache_flushes_.load(std::memory_order_relaxed);
  st.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  st.generation = state()->generation();
  st.cache = cache_.stats();
  return st;
}

}  // namespace ziggy
