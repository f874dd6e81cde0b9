// ziggy_daemon: the networked serving process.
//
// Usage:
//   ziggy_daemon [options]
//     --host <addr>         listen address            (default 127.0.0.1)
//     --port <p>            TCP port; 0 = kernel-assigned (default 0)
//     --port-file <path>    write the bound port to <path> (CI scripting)
//     --preload <name>=<source>
//                           serve a table at startup; <source> is a CSV
//                           path or demo://<boxoffice|crime|oecd>[?seed=N].
//                           Repeatable.
//     --threads <n>         threads per cold scan and OPEN profile
//                           build (default 0: one per 64 Ki cells,
//                           at most one per core, on the shared pool)
//     --cache-mb <m>        per-table sketch-cache budget (default 64)
//     --total-cache-mb <m>  global budget across all tables (default 256)
//     --max-tables <n>      catalog capacity (default 64)
//     --max-connections <n> concurrent connections (default 64)
//     --store <dir>         durable table/profile store: OPEN serves a
//                           stored checkpoint when one exists (warm boot),
//                           and the SAVE/PERSIST verbs write checkpoints
//     --checkpoint-on-append
//                           checkpoint every APPEND of every table
//                           (per-table default; PERSIST overrides)
//     --flush-interval-ms <t>
//                           background flusher cadence: APPEND returns
//                           after the in-memory append and a flusher
//                           thread checkpoints dirty tables every t ms
//                           (default 0 = checkpoint synchronously on the
//                           request thread)
//     --request-timeout-ms <t>
//                           drop a connection that is silent for t ms
//                           (default 0 = never; hardening for untrusted
//                           or flaky clients)
//     --dispatch-threads <n>
//                           verb-execution threads behind the event loop
//                           (default 4); requests from one connection
//                           always run serially regardless
//     --max-pipeline <n>    pipelined requests per connection before its
//                           reads are paused (default 64)
//     --max-outbuf-kb <k>   un-flushed response KiB per connection before
//                           its reads are paused (default 4096)
//     --flush-backoff-initial-ms <t>
//                           first retry delay after a failed background
//                           flush; doubles per failure (default 0 =
//                           twice the flush interval)
//     --flush-backoff-max-ms <t>
//                           backoff ceiling (default 30000)
//     --degraded-after <k>  consecutive store failures before degraded
//                           read-only mode (default 5; 0 = never)
//     --slow-ms <t>         log any request whose queue+execute+flush
//                           time reaches t ms, with its per-stage span
//                           breakdown (default 0 = slow log off)
//
// Fault injection (testing/chaos only): set ZIGGY_FAULTS=site:spec,...
// (and optionally ZIGGY_FAULT_SEED) in the environment — see
// src/common/fault.h for the spec grammar. Armed sites are listed on
// stderr at startup so a chaos run is self-documenting.
//
// Prints "ziggy_daemon listening on <host>:<port>" once serving, then runs
// until SIGINT/SIGTERM. The wire protocol is documented in
// src/serve/protocol.h and the README.

#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/string_util.h"
#include "serve/daemon/daemon.h"
#include "serve/daemon/handler.h"

using namespace ziggy;

namespace {

std::atomic<bool> g_shutdown{false};

void HandleSignal(int) { g_shutdown.store(true); }

int Usage() {
  std::cerr << "usage: ziggy_daemon [--host a] [--port p] [--port-file f]\n"
            << "                    [--preload name=source]... [--threads n]\n"
            << "                    [--cache-mb m] [--total-cache-mb m]\n"
            << "                    [--max-tables n] [--max-connections n]\n"
            << "                    [--store dir] [--checkpoint-on-append]\n"
            << "                    [--flush-interval-ms t]\n"
            << "                    [--request-timeout-ms t]\n"
            << "                    [--dispatch-threads n] [--max-pipeline n]\n"
            << "                    [--max-outbuf-kb k]\n"
            << "                    [--flush-backoff-initial-ms t]\n"
            << "                    [--flush-backoff-max-ms t]\n"
            << "                    [--degraded-after k] [--slow-ms t]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  DaemonOptions options;
  options.catalog.serve.engine.search.min_tightness = 0.4;
  options.catalog.serve.engine.search.max_views = 10;
  std::string port_file;
  std::vector<std::pair<std::string, std::string>> preloads;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto next_size = [&](size_t* out) {
      const char* v = next_value();
      if (v == nullptr) return false;
      Result<int64_t> parsed = ParseInt(v);
      if (!parsed.ok() || *parsed < 0) return false;
      *out = static_cast<size_t>(*parsed);
      return true;
    };
    if (arg == "--host") {
      const char* v = next_value();
      if (v == nullptr) return Usage();
      options.host = v;
    } else if (arg == "--port") {
      size_t port = 0;
      if (!next_size(&port) || port > 65535) return Usage();
      options.port = static_cast<uint16_t>(port);
    } else if (arg == "--port-file") {
      const char* v = next_value();
      if (v == nullptr) return Usage();
      port_file = v;
    } else if (arg == "--preload") {
      const char* v = next_value();
      if (v == nullptr) return Usage();
      const std::string spec = v;
      const size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        return Usage();
      }
      preloads.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (arg == "--threads") {
      size_t threads = 0;
      if (!next_size(&threads)) return Usage();
      options.catalog.serve.scan_threads = threads;
      options.catalog.serve.engine.build.num_threads = threads;
      options.catalog.serve.engine.profile.num_threads = threads;
    } else if (arg == "--cache-mb") {
      size_t mb = 0;
      if (!next_size(&mb)) return Usage();
      options.catalog.serve.cache_budget_bytes = mb << 20;
    } else if (arg == "--total-cache-mb") {
      size_t mb = 0;
      if (!next_size(&mb)) return Usage();
      options.catalog.total_cache_budget_bytes = mb << 20;
    } else if (arg == "--max-tables") {
      if (!next_size(&options.catalog.max_tables)) return Usage();
    } else if (arg == "--max-connections") {
      if (!next_size(&options.max_connections)) return Usage();
    } else if (arg == "--store") {
      const char* v = next_value();
      if (v == nullptr) return Usage();
      options.store_dir = v;
    } else if (arg == "--checkpoint-on-append") {
      options.catalog.checkpoint_on_append = true;
    } else if (arg == "--flush-interval-ms") {
      if (!next_size(&options.catalog.flush_interval_ms)) return Usage();
    } else if (arg == "--request-timeout-ms") {
      if (!next_size(&options.request_timeout_ms)) return Usage();
    } else if (arg == "--dispatch-threads") {
      if (!next_size(&options.dispatch_threads)) return Usage();
    } else if (arg == "--max-pipeline") {
      if (!next_size(&options.max_pipeline) || options.max_pipeline == 0) {
        return Usage();
      }
    } else if (arg == "--max-outbuf-kb") {
      size_t kb = 0;
      if (!next_size(&kb) || kb == 0) return Usage();
      options.max_outbuf_bytes = kb << 10;
    } else if (arg == "--flush-backoff-initial-ms") {
      if (!next_size(&options.catalog.flush_backoff_initial_ms)) return Usage();
    } else if (arg == "--flush-backoff-max-ms") {
      if (!next_size(&options.catalog.flush_backoff_max_ms)) return Usage();
    } else if (arg == "--degraded-after") {
      if (!next_size(&options.catalog.degraded_after_failures)) return Usage();
    } else if (arg == "--slow-ms") {
      if (!next_size(&options.slow_request_ms)) return Usage();
    } else {
      return Usage();
    }
  }

  // Install handlers before Start/preload: profiling a large --preload
  // table can take a while, and a SIGTERM in that window should still hit
  // the clean shutdown path, not the default disposition.
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  // Chaos/test runs arm fault sites through the environment; production
  // runs leave ZIGGY_FAULTS unset and the injector compiled to no-ops.
  if (Status st = FaultInjector::Global().ArmFromEnv(); !st.ok()) {
    std::cerr << "error: " << st << "\n";
    return 2;
  }
  if (const char* faults = std::getenv("ZIGGY_FAULTS");
      faults != nullptr && *faults != '\0') {
    std::cerr << "fault injection armed: " << faults << "\n";
  }

  Result<std::unique_ptr<ZiggyDaemon>> daemon = ZiggyDaemon::Start(options);
  if (!daemon.ok()) {
    std::cerr << "error: " << daemon.status() << "\n";
    return 1;
  }

  if (!options.store_dir.empty()) {
    std::cout << "store attached at " << options.store_dir << " ("
              << (*daemon)->catalog().store()->List().size()
              << " stored tables)\n";
  }

  for (const auto& [name, source] : preloads) {
    Result<Table> table =
        LoadTableFromSource(source, (*daemon)->catalog().metrics());
    if (!table.ok()) {
      std::cerr << "error: preload " << name << ": " << table.status() << "\n";
      return 1;
    }
    Result<std::shared_ptr<ZiggyServer>> server =
        (*daemon)->catalog().Open(name, std::move(*table));
    if (!server.ok()) {
      std::cerr << "error: preload " << name << ": " << server.status() << "\n";
      return 1;
    }
    std::cout << "preloaded " << name << " ("
              << (*server)->state()->table().num_rows() << " x "
              << (*server)->state()->table().num_columns() << ")\n";
  }

  std::cout << "ziggy_daemon listening on " << (*daemon)->host() << ":"
            << (*daemon)->port() << std::endl;
  if (!port_file.empty()) {
    // Written atomically (tmp + rename) so a polling CI script never reads
    // a half-written port number.
    const std::string tmp = port_file + ".tmp";
    std::ofstream out(tmp);
    out << (*daemon)->port() << "\n";
    out.close();
    if (!out.good() || std::rename(tmp.c_str(), port_file.c_str()) != 0) {
      std::cerr << "error: cannot write port file " << port_file << "\n";
      return 1;
    }
  }

  while (!g_shutdown.load()) {
    usleep(100 * 1000);
  }
  std::cout << "shutting down\n";
  (*daemon)->Stop();
  return 0;
}
