// DaemonHandler: the verb semantics of the wire protocol, one instance per
// connection. Deliberately socket-free — the daemon feeds it parsed
// WireRequests and writes back its WireResponses, and the tests drive it
// the same way without a network in between.
//
// Connection state: one implicit exploration session per (connection,
// table), opened lazily by the first CHARACTERIZE/VIEWS on that table and
// closed when the connection ends (or the table is CLOSEd). Two clients
// exploring the same table therefore get separate novelty tracking but
// share the table's profile, sketch cache, and worker pool — exactly the
// ZiggyServer session model, lifted onto the wire.
//
// Durability: when the catalog has a store attached, OPEN serves the
// named table *from its checkpoint* when one exists (skipping the CSV
// parse and profile computation; the <source> argument is only used on a
// cold open), and the SAVE/PERSIST verbs checkpoint tables back. The
// OPEN reply is identical either way, which is what lets the CI
// store-roundtrip gate replay one command script against both a cold and
// a warm-restarted daemon and diff both transcripts against one golden.

#ifndef ZIGGY_SERVE_DAEMON_HANDLER_H_
#define ZIGGY_SERVE_DAEMON_HANDLER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "serve/catalog.h"
#include "serve/protocol.h"

namespace ziggy {

/// \brief Loads a table from an OPEN/APPEND source argument: a CSV file
/// path, or "demo://<boxoffice|crime|oecd>[?seed=N]" for the built-in
/// synthetic datasets (exact in-process tables, no CSV round-trip — what
/// the golden e2e drives). With `metrics`, the load is an OPEN span timed
/// into ziggy_open_csv_parse_us (the CSV parse, or a demo's generation).
Result<Table> LoadTableFromSource(const std::string& source,
                                  obs::MetricsRegistry* metrics = nullptr);

/// \brief Wire limits the daemon advertises in HELLO replies. Defaults
/// match a daemon with default options; the daemon overrides them from
/// its DaemonOptions so HELLO reports the running configuration.
struct WireLimits {
  size_t max_line_bytes = LineProtocol::kMaxLineBytes;
  size_t max_pipeline = 64;
};

/// \brief Per-connection protocol state machine. Not thread-safe: the
/// daemon serializes requests per connection (the event loop dispatches
/// at most one request per handler at a time; pipelined requests queue
/// and run in order). Handle() itself is a pure request → response
/// function over the connection-state object — no socket, no stack
/// state spanning requests — which is what lets the event loop park a
/// connection between requests.
class DaemonHandler {
 public:
  explicit DaemonHandler(ServerCatalog* catalog) : catalog_(catalog) {}
  ~DaemonHandler() { CloseAllSessions(); }

  DaemonHandler(const DaemonHandler&) = delete;
  DaemonHandler& operator=(const DaemonHandler&) = delete;

  WireResponse Handle(const WireRequest& request);

  /// True once a QUIT verb was handled; the connection should stop reading.
  bool quit_requested() const { return quit_requested_; }

  /// Installs the limits HELLO advertises (the daemon passes its
  /// configured max_line_bytes / max_pipeline).
  void set_wire_limits(const WireLimits& limits) { limits_ = limits; }

  /// Installs a hook STATS, HEALTH and METRICS run before rendering, so
  /// daemon-level gauges (live connections, dispatch-queue depth) are
  /// current in the snapshot. Catalog gauges are refreshed by the handler
  /// itself; this covers only state the socket-free handler cannot see.
  void set_metrics_refresh(std::function<void()> fn) {
    metrics_refresh_ = std::move(fn);
  }

  /// Closes every session this connection opened (idempotent; also run by
  /// the destructor).
  void CloseAllSessions();

  size_t num_open_sessions() const { return sessions_.size(); }

 private:
  struct BoundSession {
    std::shared_ptr<ZiggyServer> server;
    uint64_t session_id = 0;
  };

  /// The connection's session on `table`, opening it on first use.
  Result<BoundSession> SessionFor(const std::string& table);

  // One handler per verb, all with the uniform request → response
  // signature so Handle() is a table lookup (see kDispatch in the .cc),
  // not a verb chain. Arity was already enforced by the parser, so each
  // handler may index request.args per its VerbInfo row.
  WireResponse HandleOpen(const WireRequest& request);
  WireResponse HandleList(const WireRequest& request);
  WireResponse HandleCharacterize(const WireRequest& request);
  WireResponse HandleViews(const WireRequest& request);
  WireResponse HandleAppend(const WireRequest& request);
  WireResponse HandleStats(const WireRequest& request);
  WireResponse HandleSave(const WireRequest& request);
  WireResponse HandlePersist(const WireRequest& request);
  WireResponse HandleClose(const WireRequest& request);
  WireResponse HandleHealth(const WireRequest& request);
  WireResponse HandleHello(const WireRequest& request);
  WireResponse HandleQuit(const WireRequest& request);
  WireResponse HandleMetrics(const WireRequest& request);

  WireResponse CharacterizeImpl(const WireRequest& request, bool views_only);

  /// The one refresh pass before a registry read: the catalog's gauges,
  /// then the daemon's. Returns the catalog's dirty (table, age_ms) rows.
  std::vector<std::pair<std::string, uint64_t>> RefreshMetrics();

  ServerCatalog* catalog_;
  std::map<std::string, BoundSession> sessions_;
  std::function<void()> metrics_refresh_;
  WireLimits limits_;
  bool quit_requested_ = false;
};

}  // namespace ziggy

#endif  // ZIGGY_SERVE_DAEMON_HANDLER_H_
