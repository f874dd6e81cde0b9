// zbench: the repository benchmark. One seeded load generator boots the real
// ziggy_daemon, loads it over the wire protocol from one process, checks
// every reply, and (traced runs) replays the same request script
// in-process through each layer's public functions to attribute the time.
//
//   workload.cc  seeded inputs: tables, read scripts, append batches
//   wire.cc      daemon process control, closed-loop load, scrapes
//   trace.cc     in-process replay with per-layer spans
//   util.cc      JSON reader for STATS/METRICS, percentiles, clock
//   main.cc      command line, metric assembly, report
//
// See perfbench/README.md for the metric definitions.

#ifndef ZIGGY_PERFBENCH_ZBENCH_H_
#define ZIGGY_PERFBENCH_ZBENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "data/synthetic.h"
#include "serve/protocol.h"
#include "serve/ziggy_server.h"
#include "storage/selection.h"
#include "storage/table.h"

namespace zbench {

using ziggy::Result;
using ziggy::Selection;
using ziggy::Status;
using ziggy::Table;

// ------------------------------------------------------------ workloads --

/// \brief Fixed shape of one named workload.
struct WorkloadSpec {
  const char* name;
  const char* dataset;  ///< crime | oecd | boxoffice (data/synthetic.h)
  ziggy::Verb read_verb;
  size_t readers;       ///< reader connections, one thread each
  bool refine;          ///< refinement chains (else never-repeating bands)
  bool ingest;          ///< durable store + one APPEND writer
  size_t setup_opens;   ///< cold OPENs timed for setup_s (median reported)
  /// Untimed closed loop before the measured one, long enough for the
  /// daemon's caches (each session's 64-entry component cache, the sketch
  /// cache) and heap to reach their steady state.
  double warmup_s;
  double tail_q;        ///< percentile reported as read_tail_ms
  size_t replay_reads;  ///< reads per session replayed in the traced run
  const char* why;
};

const std::vector<WorkloadSpec>& AllWorkloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// \brief Milliseconds between APPEND sends on the ingest workload.
inline constexpr double kAppendPeriodMs = 40.0;

/// \brief One read: the predicate and its selection over the final table.
struct ReadRequest {
  std::string query;
  Selection selection;
  bool planted = false;
};

struct AppendBatch {
  std::string csv_path;
  Table rows;
  bool extends_range = false;
};

/// \brief Every input of one (workload, seed). Read scripts are endless
/// streams drawn from ReadScript, so a faster daemon simply reads further
/// into the same sequence.
struct Workload {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  std::string csv_path;  ///< the table the daemon OPENs
  ziggy::SyntheticDataset data;
  /// `data.table` with every batch appended (== data.table without ingest).
  /// Predicates are row-local, so a read of generation k selects exactly
  /// the first generation_rows[k] rows of a selection over this table.
  Table final_table;
  std::vector<AppendBatch> batches;
  std::vector<size_t> generation_rows;  ///< rows after 0, 1, ... batches
  std::string probe_query;              ///< ingest: re-read across restart
  /// Planted-view recovery of the in-process engine on the planted
  /// predicate; the daemon's reply must match or beat it.
  double reference_recovery = 0.0;
  std::vector<size_t> script_columns;  ///< numeric columns scripts may use
  std::vector<std::vector<double>> sorted_values;  ///< per table column

  std::string TableQuery(std::string_view verb, const std::string& query) const;
};

/// Generates the dataset, the CSVs and enough append batches for a
/// `seconds`-long run under `dir`.
Result<std::unique_ptr<Workload>> MakeWorkload(const WorkloadSpec& spec,
                                               uint64_t seed,
                                               const std::string& dir,
                                               double seconds);

/// \brief Draws from a seeded shuffle of a fixed multiset, reshuffling
/// when it runs out: every run sees the same mix, in a seed-specific
/// order, which keeps runs on different seeds comparable.
template <typename T>
class Deck {
 public:
  explicit Deck(std::vector<T> cards) : cards_(std::move(cards)) {}
  T Draw(ziggy::Rng* rng) {
    if (next_ == cards_.size()) next_ = 0;
    if (next_ == 0) rng->Shuffle(&cards_);
    return cards_[next_++];
  }

 private:
  std::vector<T> cards_;
  size_t next_ = 0;
};

/// \brief Endless deterministic request stream of one session: the
/// planted predicate first, then refinement chains or fresh bands. Every
/// emitted selection is neither empty nor the whole table.
class ReadScript {
 public:
  ReadScript(const Workload& workload, size_t session);
  ReadRequest Next();

 private:
  /// Bands sit on a grid of kCells quantile cells, so two different bands
  /// of one column differ by at least a cell's worth of rows. (Selections
  /// differing in only a couple of rows can share a Selection::Fingerprint:
  /// word-level FNV-1a cancels when bit 63 of two words flips.)
  static constexpr int64_t kCells = 50;
  struct Band {
    size_t column = 0;
    int64_t lo = 0;  ///< cells
    int64_t hi = 0;
  };
  struct Step {
    Band a;
    bool has_b = false;
    Band b;
  };
  /// One refinement move; kConjunct adds or drops the second conjunct,
  /// kBack re-sends one of the chain's recent queries.
  enum class Move { kNarrow, kWiden, kShift, kConjunct, kBack };

  std::string Render(const Step& step) const;
  Band RandomBand(int64_t width);
  Step Mutate(const Step& step, Move move);

  const Workload& w_;
  ziggy::Rng rng_;
  Deck<size_t> columns_;
  Deck<int64_t> widths_;   ///< first band of a chain, or of a fresh read
  Deck<int64_t> lengths_;  ///< chain lengths
  Deck<Move> moves_;
  bool planted_sent_ = false;
  std::vector<Step> chain_;  ///< steps of the current chain, in order
  size_t chain_left_ = 0;
  std::vector<uint64_t> seen_;  ///< fingerprints (never-repeat mode)
};

// ---------------------------------------------------------------- JSON --

/// \brief Minimal JSON reader for STATS/METRICS replies.
class Json {
 public:
  static Result<Json> Parse(std::string_view text);
  /// Member lookup through nested objects; null when absent.
  const Json* Find(std::initializer_list<std::string_view> path) const;
  double Number(std::initializer_list<std::string_view> path,
                double fallback = 0.0) const;

 private:
  bool is_number_ = false;
  double number_ = 0.0;
  std::vector<std::pair<std::string, Json>> members_;
  friend class JsonParser;
};

// ---------------------------------------------------------------- stats --

double Percentile(std::vector<double> values, double q);
double NowSeconds();

// ----------------------------------------------------------------- wire --

struct WireOptions {
  std::string daemon_path;
  std::string dir;              ///< per-phase scratch (port file, store)
  double seconds = 10.0;
  size_t setup_opens = 1;
  /// Arms the daemon's per-request span collection (--slow-ms with a
  /// threshold no request reaches), for the tracing-overhead comparison.
  bool traced_daemon = false;
  /// Ingest only: SIGKILL + warm restart + durability checks.
  bool restart = true;
};

struct WireResult {
  std::string daemon_flags;
  std::vector<double> setup_s;
  std::vector<double> read_ms;
  std::vector<double> append_ms;
  uint64_t reply_bytes = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few, for stderr
  double vmhwm_mb = 0.0;
  Json metrics;      ///< METRICS json after the loop
  Json stats;        ///< catalog STATS
  Json table_stats;  ///< STATS <table>
  uint64_t checkpoint_bytes_setup = 0;  ///< STATS before the first append
  size_t acked_batches = 0;
  std::vector<double> warm_open_ms;
  uint64_t store_bytes = 0;
  uint64_t final_csv_bytes = 0;
  std::string store_dir;
  std::vector<std::pair<std::string, std::string>> recorded;

  void Fail(std::string what);
};

Result<WireResult> RunWire(const Workload& workload, const WireOptions& options);

/// Stops every daemon still running (watchdog / fatal paths).
void KillAllDaemons();

// ---------------------------------------------------------------- trace --

/// Replays the workload's request script in-process, printing the per-read
/// self-time table to `report`; returns the per-layer metrics it measures.
std::map<std::string, double> RunTrace(const Workload& workload,
                                       const WireResult& wire,
                                       std::ostream& report);

/// The daemon's per-table serve options (tools/ziggy_daemon.cc defaults).
ziggy::ServeOptions DaemonServeOptions();

}  // namespace zbench

#endif  // ZIGGY_PERFBENCH_ZBENCH_H_
