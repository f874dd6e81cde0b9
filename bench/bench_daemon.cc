// bench_daemon: throughput/latency of the TCP line-protocol daemon.
//
// Boots an in-process ZiggyDaemon on an ephemeral loopback port, preloads
// the boxoffice table, then drives two scenarios:
//
//   serial     N concurrent clients each issuing M CHARACTERIZE requests
//              from a deterministic exploration workload, one blocking
//              Call at a time. Engine-bound: measures the serving layer.
//   pipelined  (--pipelined-connections n, off by default) n concurrent
//              connections, multiplexed over a few driver threads with
//              poll(2) + the client's non-blocking SendRequest/
//              PollResponse pair, each keeping --pipeline-depth requests
//              in flight. Loop-bound: measures the epoll daemon core
//              under thousands of connections. --p99-bound-ms turns the
//              p99 into a hard gate (non-zero exit on breach) for CI.
//
// Reports requests/sec and p50/p99 request latency (measured client-side,
// so wire framing and socket hops are included), plus the serving-layer
// cache counters behind them.
//
// Usage: bench_daemon [--clients n] [--requests m] [--threads t]
//                     [--pipelined-connections n] [--pipeline-depth d]
//                     [--pipelined-requests r] [--p99-bound-ms b]
//                     [--json [path]]

#include <poll.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/daemon/daemon.h"
#include "serve/daemon/handler.h"

using namespace ziggy;

namespace {

/// Client-side latency distribution, summarized through the same
/// log-linear histogram the daemon's own metrics use (obs/metrics.h) —
/// one percentile implementation across bench and METRICS output.
struct LatencySummary {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;
};

LatencySummary Summarize(const std::vector<double>& latencies_ms) {
  LatencySummary out;
  if (latencies_ms.empty()) return out;
  obs::Histogram h;
  for (const double ms : latencies_ms) {
    h.Record(static_cast<uint64_t>(ms * 1000.0));  // microseconds
  }
  const obs::Histogram::Snapshot snap = h.TakeSnapshot();
  out.p50_ms = static_cast<double>(snap.Percentile(0.50)) / 1000.0;
  out.p99_ms = static_cast<double>(snap.Percentile(0.99)) / 1000.0;
  out.min_ms = static_cast<double>(snap.min) / 1000.0;
  out.max_ms = static_cast<double>(snap.max) / 1000.0;
  return out;
}

/// p50/p99 (µs) of one of the daemon's span histograms, straight off the
/// registry — the server-side queue/execute/flush breakdown behind the
/// client-side numbers above — written as the value of `key`.
void WriteSpan(obs::MetricsRegistry* metrics, const char* key,
               const std::string& name, JsonWriter* w) {
  const obs::Histogram::Snapshot snap =
      metrics->histogram(name)->TakeSnapshot();
  w->Key(key).BeginObject();
  w->Key("count").Uint(snap.count);
  w->Key("p50_us").Uint(snap.Percentile(0.50));
  w->Key("p99_us").Uint(snap.Percentile(0.99));
  w->Key("max_us").Uint(snap.max).EndObject();
}

/// Lifts the fd limit so the pipelined scenario can open its thousands
/// of client sockets (plus the daemon's accepted ends — both sides live
/// in this process). Tries to raise the hard limit too (works with
/// CAP_SYS_RESOURCE, e.g. in a root container), falling back to the
/// existing hard limit otherwise. Returns the realized soft limit so the
/// caller can size the run to fit instead of deadlocking on EMFILE.
size_t RaiseFdLimit(size_t want) {
  rlimit lim{};
  if (getrlimit(RLIMIT_NOFILE, &lim) != 0) return 0;
  if (lim.rlim_cur >= want) return static_cast<size_t>(lim.rlim_cur);
  rlimit raised = lim;
  raised.rlim_cur = want;
  if (raised.rlim_max != RLIM_INFINITY && raised.rlim_max < want) {
    raised.rlim_max = want;
  }
  if (setrlimit(RLIMIT_NOFILE, &raised) == 0) return want;
  raised = lim;
  raised.rlim_cur = lim.rlim_max == RLIM_INFINITY
                        ? want
                        : std::min<rlim_t>(want, lim.rlim_max);
  if (setrlimit(RLIMIT_NOFILE, &raised) == 0) {
    return static_cast<size_t>(raised.rlim_cur);
  }
  return static_cast<size_t>(lim.rlim_cur);
}

/// One pipelined connection's driver state: in-flight send timestamps
/// (FIFO — responses arrive in send order) and progress counters.
struct PipeConn {
  ZiggyClient client;
  std::deque<std::chrono::steady_clock::time_point> sent_at;
  size_t sent = 0;
  size_t done = 0;
  bool failed = false;
};

struct PipelinedResult {
  std::vector<double> latencies_ms;
  size_t failures = 0;
  double wall_ms = 0.0;
};

/// Drives `connections` pipelined connections of LIST requests from
/// `driver_threads` threads, `depth` requests in flight per connection.
PipelinedResult RunPipelined(const std::string& host, uint16_t port,
                             size_t connections, size_t depth,
                             size_t requests_per_conn,
                             size_t driver_threads) {
  const WireRequest kRequest{Verb::kList, {}};
  std::vector<PipelinedResult> per_thread(driver_threads);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> drivers;
  drivers.reserve(driver_threads);
  for (size_t t = 0; t < driver_threads; ++t) {
    drivers.emplace_back([&, t] {
      const size_t begin = t * connections / driver_threads;
      const size_t end = (t + 1) * connections / driver_threads;
      std::vector<PipeConn> conns(end - begin);
      PipelinedResult& out = per_thread[t];
      out.latencies_ms.reserve(conns.size() * requests_per_conn);
      auto fail = [&](PipeConn& pc) {
        out.failures += requests_per_conn - pc.done;
        pc.failed = true;
        pc.client.Disconnect();
      };
      auto pump_send = [&](PipeConn& pc) {
        while (!pc.failed && pc.sent < requests_per_conn &&
               pc.client.inflight() < depth) {
          pc.sent_at.push_back(std::chrono::steady_clock::now());
          if (!pc.client.SendRequest(kRequest).ok()) {
            pc.sent_at.pop_back();
            fail(pc);
            return;
          }
          pc.sent++;
        }
      };
      for (PipeConn& pc : conns) {
        if (!pc.client.Connect(host, port).ok()) {
          fail(pc);
          continue;
        }
        pump_send(pc);
      }
      std::vector<pollfd> pfds;
      std::vector<PipeConn*> polled;
      for (;;) {
        pfds.clear();
        polled.clear();
        for (PipeConn& pc : conns) {
          if (pc.failed || pc.client.inflight() == 0) continue;
          pfds.push_back(pollfd{pc.client.native_handle(), POLLIN, 0});
          polled.push_back(&pc);
        }
        if (pfds.empty()) break;  // every connection drained (or failed)
        const int ready = poll(pfds.data(), pfds.size(), 10000);
        if (ready < 0) break;
        if (ready == 0) {
          // 10 s with zero progress on every connection: the daemon is
          // wedged or unreachable. Fail the stragglers rather than spin
          // here forever.
          for (PipeConn* pc : polled) fail(*pc);
          break;
        }
        for (size_t i = 0; i < pfds.size(); ++i) {
          if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
          PipeConn& pc = *polled[i];
          while (pc.client.inflight() > 0) {
            Result<std::optional<WireResponse>> response =
                pc.client.PollResponse();
            if (!response.ok()) {
              fail(pc);
              break;
            }
            if (!response->has_value()) break;  // nothing more buffered
            const auto now = std::chrono::steady_clock::now();
            out.latencies_ms.push_back(
                std::chrono::duration<double, std::milli>(now -
                                                          pc.sent_at.front())
                    .count());
            pc.sent_at.pop_front();
            pc.done++;
          }
          pump_send(pc);
        }
      }
      for (PipeConn& pc : conns) {
        if (!pc.failed) (void)pc.client.Quit();
      }
    });
  }
  for (std::thread& t : drivers) t.join();

  PipelinedResult merged;
  merged.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  for (PipelinedResult& r : per_thread) {
    merged.latencies_ms.insert(merged.latencies_ms.end(),
                               r.latencies_ms.begin(), r.latencies_ms.end());
    merged.failures += r.failures;
  }
  return merged;
}

}  // namespace

int main(int argc, char** argv) {
  size_t num_clients = 4;
  size_t requests_per_client = 25;
  size_t threads = 1;
  size_t pipelined_connections = 0;  // 0 = skip the pipelined scenario
  size_t pipeline_depth = 8;
  size_t pipelined_requests = 20;
  size_t p99_bound_ms = 0;  // 0 = report only, no gate
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_size = [&](size_t* out) {
      if (i + 1 >= argc) return false;
      Result<int64_t> v = ParseInt(argv[++i]);
      if (!v.ok() || *v < 1) return false;
      *out = static_cast<size_t>(*v);
      return true;
    };
    if (arg == "--clients") {
      if (!next_size(&num_clients)) return 2;
    } else if (arg == "--requests") {
      if (!next_size(&requests_per_client)) return 2;
    } else if (arg == "--threads") {
      if (!next_size(&threads)) return 2;
    } else if (arg == "--pipelined-connections") {
      if (!next_size(&pipelined_connections)) return 2;
    } else if (arg == "--pipeline-depth") {
      if (!next_size(&pipeline_depth)) return 2;
    } else if (arg == "--pipelined-requests") {
      if (!next_size(&pipelined_requests)) return 2;
    } else if (arg == "--p99-bound-ms") {
      if (!next_size(&p99_bound_ms)) return 2;
    } else if (arg == "--json") {
      if (i + 1 < argc && argv[i + 1][0] != '-') ++i;  // consumed below
    } else {
      std::cerr << "usage: bench_daemon [--clients n] [--requests m] "
                   "[--threads t] [--pipelined-connections n] "
                   "[--pipeline-depth d] [--pipelined-requests r] "
                   "[--p99-bound-ms b] [--json [path]]\n";
      return 2;
    }
  }
  const std::string json_path =
      bench::JsonPathFromArgs(argc, argv, "BENCH_daemon.json");

  if (pipelined_connections > 0) {
    // Client fd + accepted fd per connection, both in this process.
    const size_t fd_limit = RaiseFdLimit(2 * pipelined_connections + 256);
    if (fd_limit < 2 * pipelined_connections + 256) {
      // Running at the requested count would exhaust the process fd
      // table: the daemon spins on EMFILE while drivers block in
      // connect(), and the run never finishes. Shrink to fit instead.
      const size_t fit = fd_limit > 512 ? (fd_limit - 256) / 2 : 64;
      std::cerr << "warning: fd limit " << fd_limit << " cannot hold "
                << pipelined_connections
                << " pipelined connections (2 fds each + overhead); "
                << "capping to " << fit << "\n";
      pipelined_connections = fit;
    }
  }

  DaemonOptions options;
  options.catalog.serve.engine.search.min_tightness = 0.3;
  options.catalog.serve.scan_threads = threads;
  options.catalog.serve.engine.build.num_threads = threads;
  options.catalog.serve.engine.profile.num_threads = threads;
  options.max_connections =
      std::max<size_t>(64, pipelined_connections + num_clients + 32);
  Result<std::unique_ptr<ZiggyDaemon>> daemon = ZiggyDaemon::Start(options);
  if (!daemon.ok()) {
    std::cerr << "error: " << daemon.status() << "\n";
    return 1;
  }

  Result<Table> table = LoadTableFromSource("demo://boxoffice?seed=7");
  if (!table.ok()) return 1;
  // Workload predicates are generated against a local copy of the same
  // table (the daemon's copy is behind the wire).
  Rng workload_rng(4242);
  const std::vector<std::string> workload =
      GenerateWorkload(*table, num_clients * requests_per_client, &workload_rng);
  if (!(*daemon)->catalog().Open("box", std::move(*table)).ok()) return 1;

  std::vector<std::vector<double>> latencies(num_clients);
  std::vector<size_t> failures(num_clients, 0);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(num_clients);
  for (size_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      ZiggyClient client;
      if (!client.Connect((*daemon)->host(), (*daemon)->port()).ok()) {
        failures[c] = requests_per_client;
        return;
      }
      latencies[c].reserve(requests_per_client);
      for (size_t r = 0; r < requests_per_client; ++r) {
        const std::string& query = workload[c * requests_per_client + r];
        const auto q0 = std::chrono::steady_clock::now();
        Result<std::string> reply = client.Characterize("box", query);
        const auto q1 = std::chrono::steady_clock::now();
        // Degenerate workload selections (empty/full) are legitimate ERR
        // replies, not bench failures; a lost transport ends this client —
        // instantly-failing local calls must not pollute the latency
        // distribution or the request count.
        if (!reply.ok() && !client.connected()) {
          failures[c] += requests_per_client - r;
          return;
        }
        latencies[c].push_back(
            std::chrono::duration<double, std::milli>(q1 - q0).count());
      }
      (void)client.Quit();
    });
  }
  for (std::thread& t : clients) t.join();
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();

  std::vector<double> all;
  for (const auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  size_t total_failures = 0;
  for (size_t f : failures) total_failures += f;
  const size_t total_requests = all.size();
  const double rps =
      wall_ms > 0.0 ? static_cast<double>(total_requests) / (wall_ms / 1000.0)
                    : 0.0;
  const LatencySummary serial = Summarize(all);
  const double p50 = serial.p50_ms;
  const double p99 = serial.p99_ms;
  const ServeStats serve =
      (*daemon)->catalog().Find("box").ValueOrDie()->stats();
  // The daemon's counters live in the catalog's metrics registry.
  obs::MetricsRegistry* metrics = (*daemon)->catalog().metrics();
  const auto daemon_counter = [metrics](const char* name) {
    return metrics->CounterValue(name);
  };
  const uint64_t connections_accepted =
      daemon_counter("ziggy_daemon_connections_accepted_total");
  const uint64_t requests_handled =
      daemon_counter("ziggy_daemon_requests_total");
  const uint64_t protocol_errors =
      daemon_counter("ziggy_daemon_protocol_errors_total");

  bench::ResultTable out({"clients", "requests", "wall ms", "req/s", "p50 ms",
                          "p99 ms", "transport failures"});
  out.AddRow({std::to_string(num_clients), std::to_string(total_requests),
              bench::Fmt(wall_ms), bench::Fmt(rps), bench::Fmt(p50),
              bench::Fmt(p99), std::to_string(total_failures)});
  out.Print();
  std::cout << "sketch cache: " << serve.sketch_exact_hits << " exact, "
            << serve.sketch_patched_hits << " patched, " << serve.sketch_misses
            << " misses (cold scans)\n";

  // ---- pipelined high-concurrency scenario ----
  PipelinedResult piped;
  LatencySummary piped_summary;
  double piped_rps = 0.0, piped_p50 = 0.0, piped_p99 = 0.0;
  bool p99_breached = false;
  if (pipelined_connections > 0) {
    const size_t driver_threads = std::min<size_t>(
        std::max<size_t>(1, std::thread::hardware_concurrency()),
        std::min<size_t>(8, pipelined_connections));
    piped = RunPipelined((*daemon)->host(), (*daemon)->port(),
                         pipelined_connections, pipeline_depth,
                         pipelined_requests, driver_threads);
    piped_rps = piped.wall_ms > 0.0
                    ? static_cast<double>(piped.latencies_ms.size()) /
                          (piped.wall_ms / 1000.0)
                    : 0.0;
    piped_summary = Summarize(piped.latencies_ms);
    piped_p50 = piped_summary.p50_ms;
    piped_p99 = piped_summary.p99_ms;
    bench::ResultTable pout({"pipelined conns", "depth", "requests", "wall ms",
                             "req/s", "p50 ms", "p99 ms", "failures"});
    pout.AddRow({std::to_string(pipelined_connections),
                 std::to_string(pipeline_depth),
                 std::to_string(piped.latencies_ms.size()),
                 bench::Fmt(piped.wall_ms), bench::Fmt(piped_rps),
                 bench::Fmt(piped_p50), bench::Fmt(piped_p99),
                 std::to_string(piped.failures)});
    pout.Print();
    std::cout << "daemon: "
              << metrics->CounterValue("ziggy_daemon_pipelined_requests_total")
              << " pipelined requests, "
              << metrics->CounterValue("ziggy_daemon_dispatch_batches_total")
              << " dispatch batches, "
              << metrics->CounterValue("ziggy_daemon_reads_throttled_total")
              << " reads throttled\n";
    if (p99_bound_ms > 0 &&
        piped_p99 > static_cast<double>(p99_bound_ms)) {
      p99_breached = true;
    }
    if (piped.failures > 0) {
      std::cerr << "pipelined scenario lost " << piped.failures
                << " requests to transport failures\n";
      p99_breached = true;  // a lossy run must not pass the gate either
    }
  }

  if (!json_path.empty()) {
    constexpr int kDigits = bench::kReportDigits;
    JsonWriter report;
    report.BeginObject().Key("benchmark").String("daemon");
    report.Key("clients").Uint(num_clients);
    report.Key("requests_per_client").Uint(requests_per_client);
    report.Key("scan_threads").Uint(threads);
    report.Key("total_requests").Uint(total_requests);
    report.Key("transport_failures").Uint(total_failures);
    report.Key("wall_ms").Double(wall_ms, kDigits);
    report.Key("requests_per_sec").Double(rps, kDigits);
    report.Key("latency_ms").BeginObject();
    report.Key("p50").Double(p50, kDigits);
    report.Key("p99").Double(p99, kDigits);
    report.Key("min").Double(serial.min_ms, kDigits);
    report.Key("max").Double(serial.max_ms, kDigits).EndObject();
    // Server-side span breakdown: where request time went (queue wait vs
    // handler execution vs reply flush), from the daemon's own
    // histograms.
    report.Key("spans").BeginObject();
    WriteSpan(metrics, "queue", "ziggy_request_queue_us", &report);
    WriteSpan(metrics, "execute", "ziggy_request_execute_us", &report);
    WriteSpan(metrics, "flush", "ziggy_request_flush_us", &report);
    report.EndObject();
    report.Key("serve").BeginObject();
    report.Key("requests").Uint(serve.requests);
    report.Key("sketch_exact_hits").Uint(serve.sketch_exact_hits);
    report.Key("sketch_patched_hits").Uint(serve.sketch_patched_hits);
    report.Key("sketch_misses").Uint(serve.sketch_misses).EndObject();
    report.Key("daemon").BeginObject();
    report.Key("connections_accepted").Uint(connections_accepted);
    report.Key("requests_handled").Uint(requests_handled);
    report.Key("protocol_errors").Uint(protocol_errors).EndObject();
    if (pipelined_connections > 0) {
      report.Key("pipelined").BeginObject();
      report.Key("connections").Uint(pipelined_connections);
      report.Key("depth").Uint(pipeline_depth);
      report.Key("requests_per_connection").Uint(pipelined_requests);
      report.Key("total_requests").Uint(piped.latencies_ms.size());
      report.Key("failures").Uint(piped.failures);
      report.Key("wall_ms").Double(piped.wall_ms, kDigits);
      report.Key("requests_per_sec").Double(piped_rps, kDigits);
      report.Key("latency_ms").BeginObject();
      report.Key("p50").Double(piped_p50, kDigits);
      report.Key("p99").Double(piped_p99, kDigits);
      report.Key("bound").Uint(p99_bound_ms);
      report.Key("min").Double(piped_summary.min_ms, kDigits);
      report.Key("max").Double(piped_summary.max_ms, kDigits).EndObject();
      report.Key("daemon").BeginObject();
      report.Key("pipelined_requests");
      report.Uint(daemon_counter("ziggy_daemon_pipelined_requests_total"));
      report.Key("dispatch_batches");
      report.Uint(daemon_counter("ziggy_daemon_dispatch_batches_total"));
      report.Key("reads_throttled");
      report.Uint(daemon_counter("ziggy_daemon_reads_throttled_total"));
      report.EndObject().EndObject();
    }
    report.EndObject();
    if (bench::WriteReport(json_path, report)) {
      std::cout << "wrote " << json_path << "\n";
    }
  }
  (*daemon)->Stop();
  if (p99_breached) {
    std::cerr << "pipelined p99 " << bench::Fmt(piped_p99)
              << " ms breached the --p99-bound-ms " << p99_bound_ms
              << " gate\n";
    return 1;
  }
  return 0;
}
