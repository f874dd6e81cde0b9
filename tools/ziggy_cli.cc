// ziggy_cli: command-line front door to the library.
//
// Usage:
//   ziggy_cli profile <data.csv> <profile.bin>
//       Build the shared table profile and persist it.
//
//   ziggy_cli views <data.csv> "<query>" [options]
//       Characterize a query and print (or emit as JSON) the views.
//       Options:
//         --json                machine-readable output
//         --tightness <t>       MIN_tight in [0,1]         (default 0.4)
//         --max-views <k>       number of views             (default 10)
//         --max-view-size <d>   columns per view            (default 4)
//         --threads <n>         scan/profile threads (default 0: one per
//                               64 Ki cells, at most one per core)
//
//   ziggy_cli dendrogram <data.csv>
//       Print the column dendrogram (MIN_tight tuning aid).
//
//   ziggy_cli demo <boxoffice|crime|oecd>
//       Run the built-in synthetic use case end to end.
//
//   ziggy_cli import <data.csv> <store-dir> <name> [--threads n]
//       Load a CSV, compute its profile, and checkpoint both into a
//       Ziggy store (the binary format a daemon started with
//       --store <store-dir> boots warm from).
//
//   ziggy_cli export <store-dir> <name> <out.csv>
//       Write a stored table's rows back out as CSV.
//
//   ziggy_cli connect <host:port>
//       Line-protocol REPL against a running ziggy_daemon. Reads one
//       command per line from stdin:
//         open <name> <source>       serve a CSV (or demo://<name>?seed=N)
//         list                       enumerate served tables
//         query <name> <predicate>   CHARACTERIZE; prints the JSON reply
//         views <name> <predicate>   VIEWS; prints the deterministic report
//         append <name> <source>     append rows as a new generation
//         stats [name]               catalog-wide or per-table counters
//         metrics [json|prometheus]  metrics registry snapshot (default json)
//         health                     daemon health probe (ok|degraded)
//         save [name]                checkpoint one table (or all) to the
//                                    daemon's store
//         persist <name> <on|off>    toggle checkpoint-on-append
//         close <name>               stop serving a table
//         raw <line>                 send a protocol line verbatim
//         quit
//       Replies print as raw JSON (reports decoded); errors print as
//       "error: <Code>: <message>".
//
//   ziggy_cli serve <data.csv> [options]
//       Multi-session REPL over the concurrent serving layer. Reads one
//       command per line from stdin:
//         open                       open a session, print its id
//         close <sid>                close a session
//         query <sid> <predicate>    characterize inside a session
//         append <rows.csv>          append rows as a new table generation
//         stats                      serving-layer counters
//         flush                      drop the shared sketch cache
//         quit
//       Options:
//         --threads <n>     scan/profile threads (default 0: one per 64 Ki
//                           cells, at most one per core)
//         --cache-mb <m>    sketch cache budget (default 64)
//         --no-cache        disable the shared sketch cache
//         --no-patch       disable XOR-delta near-miss patching
//         --json            render query results as JSON

#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "common/string_util.h"
#include "data/synthetic.h"
#include "engine/json.h"
#include "engine/ziggy_engine.h"
#include "persist/store.h"
#include "serve/client.h"
#include "serve/wire_io.h"
#include "serve/ziggy_server.h"
#include "storage/csv.h"

using namespace ziggy;

namespace {

int Fail(const Status& status) {
  std::cerr << "error: " << status << "\n";
  return 1;
}

int Usage() {
  std::cerr << "usage:\n"
            << "  ziggy_cli profile <data.csv> <profile.bin>\n"
            << "  ziggy_cli views <data.csv> \"<query>\" [--json] [--tightness t]\n"
            << "            [--max-views k] [--max-view-size d] [--threads n]\n"
            << "  ziggy_cli dendrogram <data.csv>\n"
            << "  ziggy_cli demo <boxoffice|crime|oecd>\n"
            << "  ziggy_cli import <data.csv> <store-dir> <name> "
               "[--threads n]\n"
            << "  ziggy_cli export <store-dir> <name> <out.csv>\n"
            << "  ziggy_cli connect <host:port>\n"
            << "  ziggy_cli serve <data.csv> [--threads n] [--cache-mb m]\n"
            << "            [--no-cache] [--no-patch] [--json]\n";
  return 2;
}

int RunProfile(const std::string& csv_path, const std::string& out_path) {
  Result<Table> table = ReadCsvFile(csv_path);
  if (!table.ok()) return Fail(table.status());
  Result<TableProfile> profile = TableProfile::Compute(*table);
  if (!profile.ok()) return Fail(profile.status());
  Status st = profile->SaveToFile(out_path);
  if (!st.ok()) return Fail(st);
  std::cout << "profiled " << table->num_rows() << " rows x " << table->num_columns()
            << " columns -> " << out_path << " ("
            << profile->MemoryUsageBytes() / 1024 << " KiB in memory)\n";
  return 0;
}

int RunViews(int argc, char** argv) {
  if (argc < 4) return Usage();
  const std::string csv_path = argv[2];
  const std::string query = argv[3];
  bool json = false;
  ZiggyOptions options;
  options.search.min_tightness = 0.4;
  options.search.max_views = 10;
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_double = [&](double* out) {
      if (i + 1 >= argc) return false;
      Result<double> v = ParseDouble(argv[++i]);
      if (!v.ok()) return false;
      *out = *v;
      return true;
    };
    if (arg == "--json") {
      json = true;
    } else if (arg == "--tightness") {
      if (!next_double(&options.search.min_tightness)) return Usage();
    } else if (arg == "--max-views") {
      double v = 0;
      if (!next_double(&v) || v < 0) return Usage();
      options.search.max_views = static_cast<size_t>(v);
    } else if (arg == "--max-view-size") {
      double v = 0;
      if (!next_double(&v) || v < 1) return Usage();
      options.search.max_view_size = static_cast<size_t>(v);
    } else if (arg == "--threads") {
      double v = 0;
      if (!next_double(&v) || v < 0) return Usage();
      options.build.num_threads = static_cast<size_t>(v);
      options.profile.num_threads = static_cast<size_t>(v);
    } else {
      return Usage();
    }
  }
  Result<Table> table = ReadCsvFile(csv_path);
  if (!table.ok()) return Fail(table.status());
  Result<ZiggyEngine> engine = ZiggyEngine::Create(std::move(*table), options);
  if (!engine.ok()) return Fail(engine.status());
  Result<Characterization> result = engine->CharacterizeQuery(query);
  if (!result.ok()) return Fail(result.status());
  if (json) {
    std::cout << CharacterizationToJson(*result, engine->table().schema()) << "\n";
  } else {
    std::cout << result->ToString(engine->table().schema());
  }
  return 0;
}

int RunImport(int argc, char** argv) {
  if (argc < 5) return Usage();
  const std::string csv_path = argv[2];
  const std::string store_dir = argv[3];
  const std::string name = argv[4];
  ProfileOptions profile_options;
  for (int i = 5; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      Result<int64_t> v = ParseInt(argv[++i]);
      if (!v.ok() || *v < 0) return Usage();
      profile_options.num_threads = static_cast<size_t>(*v);
    } else {
      return Usage();
    }
  }
  Result<Table> table = ReadCsvFile(csv_path);
  if (!table.ok()) return Fail(table.status());
  Result<TableProfile> profile = TableProfile::Compute(*table, profile_options);
  if (!profile.ok()) return Fail(profile.status());
  Result<std::unique_ptr<ZiggyStore>> store = ZiggyStore::Open(store_dir);
  if (!store.ok()) return Fail(store.status());
  Status st = (*store)->SaveTable(name, *table, /*generation=*/0, *profile);
  if (!st.ok()) return Fail(st);
  std::cout << "imported " << table->num_rows() << " rows x "
            << table->num_columns() << " columns as \"" << name << "\" into "
            << store_dir << "\n";
  return 0;
}

int RunExport(int argc, char** argv) {
  if (argc != 5) return Usage();
  const std::string store_dir = argv[2];
  const std::string name = argv[3];
  const std::string out_path = argv[4];
  Result<std::unique_ptr<ZiggyStore>> store = ZiggyStore::Open(store_dir);
  if (!store.ok()) return Fail(store.status());
  Result<StoredTable> stored = (*store)->LoadTable(name);
  if (!stored.ok()) return Fail(stored.status());
  Status st = WriteCsvFile(stored->table, out_path);
  if (!st.ok()) return Fail(st);
  std::cout << "exported \"" << name << "\" (generation " << stored->generation
            << ", " << stored->table.num_rows() << " rows) -> " << out_path
            << "\n";
  return 0;
}

int RunDendrogram(const std::string& csv_path) {
  Result<Table> table = ReadCsvFile(csv_path);
  if (!table.ok()) return Fail(table.status());
  Result<ZiggyEngine> engine = ZiggyEngine::Create(std::move(*table));
  if (!engine.ok()) return Fail(engine.status());
  std::cout << engine->DendrogramAscii();
  return 0;
}

int RunDemo(const std::string& which) {
  Result<SyntheticDataset> ds = Status::InvalidArgument("unknown demo: " + which);
  if (which == "boxoffice") ds = MakeBoxOfficeDataset();
  if (which == "crime") ds = MakeCrimeDataset();
  if (which == "oecd") ds = MakeOecdDataset();
  if (!ds.ok()) return Fail(ds.status());
  const std::string query = ds->selection_predicate;
  std::cout << "table: " << ds->table.num_rows() << " x " << ds->table.num_columns()
            << "\nquery: " << query << "\n\n";
  ZiggyOptions options;
  options.search.min_tightness = 0.3;
  Result<ZiggyEngine> engine = ZiggyEngine::Create(std::move(ds->table), options);
  if (!engine.ok()) return Fail(engine.status());
  Result<Characterization> result = engine->CharacterizeQuery(query);
  if (!result.ok()) return Fail(result.status());
  std::cout << result->ToString(engine->table().schema());
  return 0;
}

void PrintServeStats(const ServeStats& st) {
  std::cout << "generation " << st.generation << ", sessions opened "
            << st.sessions_opened << "\n"
            << "requests " << st.requests << " (" << st.failures << " failed)\n"
            << "sketch cache: " << st.sketch_exact_hits << " exact hits, "
            << st.sketch_patched_hits << " patched hits ("
            << st.patched_delta_rows << " delta rows), " << st.sketch_misses
            << " misses, " << st.cache.entries << " entries / "
            << st.cache.bytes_in_use / 1024 << " KiB, " << st.cache.evictions
            << " evictions, " << st.cache_flushes << " flushes\n"
            << "appends " << st.appends << " (" << st.appended_rows << " rows)\n";
}

int RunServe(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string csv_path = argv[2];
  bool json = false;
  ServeOptions options;
  options.engine.search.min_tightness = 0.4;
  options.engine.search.max_views = 10;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_double = [&](double* out) {
      if (i + 1 >= argc) return false;
      Result<double> v = ParseDouble(argv[++i]);
      if (!v.ok()) return false;
      *out = *v;
      return true;
    };
    if (arg == "--json") {
      json = true;
    } else if (arg == "--threads") {
      double v = 0;
      if (!next_double(&v) || v < 0) return Usage();
      options.scan_threads = static_cast<size_t>(v);
      options.engine.build.num_threads = static_cast<size_t>(v);
      options.engine.profile.num_threads = static_cast<size_t>(v);
    } else if (arg == "--cache-mb") {
      double v = 0;
      if (!next_double(&v) || v < 0) return Usage();
      options.cache_budget_bytes = static_cast<size_t>(v) << 20;
    } else if (arg == "--no-cache") {
      options.cache_enabled = false;
    } else if (arg == "--no-patch") {
      options.patch_near_misses = false;
    } else {
      return Usage();
    }
  }
  Result<Table> table = ReadCsvFile(csv_path);
  if (!table.ok()) return Fail(table.status());
  Result<std::unique_ptr<ZiggyServer>> server =
      ZiggyServer::Create(std::move(*table), options);
  if (!server.ok()) return Fail(server.status());
  std::cout << "serving " << (*server)->state()->table().num_rows() << " x "
            << (*server)->state()->table().num_columns()
            << "; commands: open, close <sid>, query <sid> <predicate>, "
               "append <csv>, stats, flush, quit\n";

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "open") {
      std::cout << "session " << (*server)->OpenSession() << "\n";
    } else if (cmd == "close") {
      uint64_t sid = 0;
      if (!(in >> sid)) {
        std::cout << "usage: close <sid>\n";
        continue;
      }
      Status st = (*server)->CloseSession(sid);
      std::cout << (st.ok() ? "closed\n" : "error: " + st.ToString() + "\n");
    } else if (cmd == "query") {
      uint64_t sid = 0;
      if (!(in >> sid)) {
        std::cout << "usage: query <sid> <predicate>\n";
        continue;
      }
      std::string predicate;
      std::getline(in, predicate);
      Result<Characterization> result = (*server)->Characterize(sid, predicate);
      if (!result.ok()) {
        std::cout << "error: " << result.status() << "\n";
        continue;
      }
      std::cout << "[sketches: " << SketchSourceToString(result->sketch_source)
                << "]\n";
      if (json) {
        std::cout << CharacterizationToJson(*result,
                                            (*server)->state()->table().schema())
                  << "\n";
      } else {
        std::cout << result->ToString((*server)->state()->table().schema());
      }
    } else if (cmd == "append") {
      std::string path;
      if (!(in >> path)) {
        std::cout << "usage: append <rows.csv>\n";
        continue;
      }
      Result<Table> rows = ReadCsvFile(path);
      if (!rows.ok()) {
        std::cout << "error: " << rows.status() << "\n";
        continue;
      }
      const size_t n = rows->num_rows();
      Status st = (*server)->Append(*rows);
      if (st.ok()) {
        std::cout << "appended " << n << " rows; generation "
                  << (*server)->state()->generation() << "\n";
      } else {
        std::cout << "error: " << st << "\n";
      }
    } else if (cmd == "stats") {
      PrintServeStats((*server)->stats());
    } else if (cmd == "flush") {
      (*server)->FlushSketchCache();
      std::cout << "sketch cache flushed\n";
    } else {
      std::cout << "unknown command: " << cmd << "\n";
    }
  }
  return 0;
}

int RunConnect(int argc, char** argv) {
  if (argc != 3) return Usage();
  // A daemon that vanishes between our send() calls must surface as an
  // error status, not a SIGPIPE killing the REPL mid-script.
  IgnoreSigPipe();
  const std::string target = argv[2];
  const size_t colon = target.rfind(':');
  if (colon == std::string::npos || colon + 1 == target.size()) return Usage();
  Result<int64_t> port = ParseInt(target.substr(colon + 1));
  if (!port.ok() || *port < 1 || *port > 65535) return Usage();

  ZiggyClient client;
  Status st = client.Connect(target.substr(0, colon),
                             static_cast<uint16_t>(*port));
  if (!st.ok()) return Fail(st);

  auto print = [](const Result<std::string>& reply) {
    if (reply.ok()) {
      std::cout << *reply;
      // Reports end with their own newline; JSON bodies do not.
      if (reply->empty() || reply->back() != '\n') std::cout << "\n";
    } else {
      std::cout << "error: " << reply.status() << "\n";
    }
  };

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) continue;
    if (cmd == "quit" || cmd == "exit") {
      (void)client.Quit();
      break;
    }
    auto rest_of_line = [&in]() {
      std::string rest;
      std::getline(in, rest);
      return std::string(TrimWhitespace(rest));
    };
    if (cmd == "open" || cmd == "append" || cmd == "query" || cmd == "views") {
      std::string name;
      if (!(in >> name)) {
        std::cout << "usage: " << cmd << " <name> <arg>\n";
        continue;
      }
      const std::string arg = rest_of_line();
      if (arg.empty()) {
        std::cout << "usage: " << cmd << " <name> <arg>\n";
        continue;
      }
      if (cmd == "open") print(client.Open(name, arg));
      if (cmd == "append") print(client.Append(name, arg));
      if (cmd == "query") print(client.Characterize(name, arg));
      if (cmd == "views") print(client.Views(name, arg));
    } else if (cmd == "list") {
      print(client.List());
    } else if (cmd == "stats") {
      std::string name;
      in >> name;
      print(client.Stats(name));
    } else if (cmd == "metrics") {
      std::string format;
      in >> format;
      print(client.Metrics(format));
    } else if (cmd == "health") {
      print(client.Health());
    } else if (cmd == "save") {
      std::string name;
      in >> name;
      print(client.Save(name));
    } else if (cmd == "persist") {
      std::string name, mode;
      if (!(in >> name >> mode) || (mode != "on" && mode != "off")) {
        std::cout << "usage: persist <name> <on|off>\n";
        continue;
      }
      print(client.Persist(name, mode == "on"));
    } else if (cmd == "close") {
      std::string name;
      if (!(in >> name)) {
        std::cout << "usage: close <name>\n";
        continue;
      }
      print(client.CloseTable(name));
    } else if (cmd == "raw") {
      const std::string raw = rest_of_line();
      if (raw.empty()) {
        // The daemon ignores blank lines (no reply), so sending one here
        // would deadlock the REPL waiting for a response.
        std::cout << "usage: raw <protocol line>\n";
        continue;
      }
      Result<WireResponse> reply = client.CallLine(raw);
      if (!reply.ok()) {
        std::cout << "error: " << reply.status() << "\n";
      } else if (reply->ok) {
        std::cout << reply->body << "\n";
      } else {
        std::cout << "error: " << Status(reply->code, reply->body) << "\n";
      }
    } else {
      std::cout << "unknown command: " << cmd << "\n";
    }
    if (!client.connected()) {
      std::cerr << "connection lost\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "profile" && argc == 4) return RunProfile(argv[2], argv[3]);
  if (cmd == "views") return RunViews(argc, argv);
  if (cmd == "dendrogram" && argc == 3) return RunDendrogram(argv[2]);
  if (cmd == "demo" && argc == 3) return RunDemo(argv[2]);
  if (cmd == "import") return RunImport(argc, argv);
  if (cmd == "export") return RunExport(argc, argv);
  if (cmd == "connect") return RunConnect(argc, argv);
  if (cmd == "serve") return RunServe(argc, argv);
  return Usage();
}
