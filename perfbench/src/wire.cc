#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <latch>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench_util.h"
#include "engine/json.h"
#include "serve/client.h"
#include "storage/csv.h"
#include "zbench.h"

namespace zbench {

using ziggy::WireResponse;
using ziggy::ZiggyClient;

void WireResult::Fail(std::string what) {
  ++failed;
  if (errors.size() < 10) errors.push_back(std::move(what));
}

namespace {

/// Request/reply line pairs kept for the traced run's codec timing.
constexpr size_t kRecordedLines = 256;

std::mutex g_live_mu;
std::vector<pid_t> g_live;  // daemons not yet reaped

/// \brief A ziggy_daemon child process. The destructor SIGKILLs and reaps
/// it, so no exit path leaves a daemon behind.
class Daemon {
 public:
  static Result<std::unique_ptr<Daemon>> Start(const std::string& path,
                                               const std::vector<std::string>& flags,
                                               const std::string& dir) {
    const std::string port_file = dir + "/port";
    std::filesystem::remove(port_file);
    std::vector<std::string> args = {path, "--port", "0", "--port-file", port_file};
    args.insert(args.end(), flags.begin(), flags.end());
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    const std::string log = dir + "/daemon.log";
    const pid_t parent = getpid();
    std::unique_lock<std::mutex> lock(g_live_mu);
    const pid_t pid = fork();
    if (pid == 0) {
      // Only async-signal-safe calls until exec. The kernel SIGKILLs the
      // daemon if this process dies first, even on a crash.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(127);
      const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd < 0) _exit(127);
      dup2(fd, STDOUT_FILENO);
      dup2(fd, STDERR_FILENO);
      close(fd);
      close(STDIN_FILENO);
      execv(path.c_str(), argv.data());
      _exit(127);
    }
    if (pid < 0) return Status::IOError("cannot start " + path);
    g_live.push_back(pid);
    lock.unlock();
    auto daemon = std::unique_ptr<Daemon>(new Daemon(pid));

    const double give_up = NowSeconds() + 30.0;
    while (NowSeconds() < give_up) {
      std::ifstream in(port_file);
      int port = 0;
      if (in >> port && port > 0) {
        daemon->port_ = static_cast<uint16_t>(port);
        return daemon;
      }
      int status = 0;
      if (waitpid(pid, &status, WNOHANG) == pid) {
        daemon->Forget();
        return Status::IOError("daemon exited at startup; see " + log);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return Status::IOError("daemon did not publish its port; see " + log);
  }

  ~Daemon() { Stop(SIGKILL); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  uint16_t port() const { return port_; }

  /// Signals the daemon and waits until it has exited.
  void Stop(int sig) {
    if (pid_ <= 0) return;
    kill(pid_, sig);
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    Forget();
  }

  /// Peak resident set (VmHWM) in MiB.
  double PeakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
  }

 private:
  explicit Daemon(pid_t pid) : pid_(pid) {}
  void Forget() {
    std::lock_guard<std::mutex> lock(g_live_mu);
    g_live.erase(std::remove(g_live.begin(), g_live.end(), pid_), g_live.end());
    pid_ = -1;
  }

  pid_t pid_;
  uint16_t port_ = 0;
};

Result<std::unique_ptr<ZiggyClient>> Connect(const Daemon& daemon) {
  auto client = std::make_unique<ZiggyClient>();
  // Transport failures must count as failures, not be retried away.
  client->retry_policy().enabled = false;
  ZIGGY_RETURN_NOT_OK(client->Connect("127.0.0.1", daemon.port()));
  return client;
}

/// One request line; a transport failure becomes an ERR-shaped response
/// so every caller checks a single shape.
WireResponse Call(ZiggyClient* client, const std::string& line) {
  Result<WireResponse> r = client->CallLine(line);
  if (r.ok()) return std::move(*r);
  return WireResponse::Error(r.status());
}

std::string Describe(const std::string& line, const WireResponse& r) {
  return "'" + line.substr(0, 80) + "' -> " + (r.ok ? "OK " : "ERR ") +
         r.body.substr(0, 200);
}

size_t CountPrefix(const Selection& selection, size_t rows) {
  const auto& words = selection.words();
  size_t count = 0;
  const size_t full = rows / Selection::kWordBits;
  for (size_t i = 0; i < full; ++i) count += std::popcount(words[i]);
  if (const size_t rest = rows % Selection::kWordBits; rest != 0) {
    count += std::popcount(words[full] & ((uint64_t{1} << rest) - 1));
  }
  return count;
}

int64_t FieldAfter(const std::string& text, const std::string& key) {
  const size_t at = text.find(key);
  if (at == std::string::npos) return -1;
  return std::strtoll(text.c_str() + at + key.size(), nullptr, 10);
}

/// Column-name lists of the views in a VIEWS report ("#1 {a, b}") or a
/// CHARACTERIZE reply ("columns":["a","b"]).
std::vector<std::vector<std::string>> ViewColumns(const std::string& text,
                                                  bool report) {
  std::vector<std::vector<std::string>> views;
  const std::string open = report ? "{" : "\"columns\":[";
  const char close = report ? '}' : ']';
  size_t at = 0;
  while ((at = text.find(report ? "\n#" : open, at)) != std::string::npos) {
    const size_t begin = text.find(open, at) + open.size();
    const size_t end = text.find(close, begin);
    std::vector<std::string> names;
    std::string item;
    std::istringstream list(text.substr(begin, end - begin));
    while (std::getline(list, item, ',')) {
      item.erase(0, item.find_first_not_of(" \""));
      item.erase(item.find_last_not_of(" \"") + 1);
      names.push_back(item);
    }
    views.push_back(std::move(names));
    at = end;
  }
  return views;
}

/// Checks one read reply against the locally evaluated selection; returns
/// the failure, or an empty string.
std::string CheckRead(const Workload& w, const ReadRequest& request,
                      const WireResponse& response) {
  if (!response.ok) return "error reply";
  const bool report = w.spec->read_verb == ziggy::Verb::kViews;
  std::string text = response.body;
  if (report) {
    Result<std::string> decoded = ziggy::JsonUnescape(
        std::string_view(text).substr(1, text.size() >= 2 ? text.size() - 2 : 0));
    if (!decoded.ok()) return "undecodable report";
    text = std::move(*decoded);
  }
  const int64_t inside = FieldAfter(text, report ? "inside=" : "\"inside_count\":");
  const int64_t outside =
      FieldAfter(text, report ? "outside=" : "\"outside_count\":");
  if (inside < 0 || outside < 0) return "no inside/outside counts";
  const size_t rows = static_cast<size_t>(inside + outside);
  if (!std::binary_search(w.generation_rows.begin(), w.generation_rows.end(), rows)) {
    return "row count " + std::to_string(rows) + " matches no table generation";
  }
  const size_t expected = CountPrefix(request.selection, rows);
  if (static_cast<size_t>(inside) != expected) {
    return "inside=" + std::to_string(inside) + ", expected " +
           std::to_string(expected);
  }
  if (request.planted) {
    std::vector<ziggy::CharacterizedView> found;
    for (const auto& names : ViewColumns("\n" + text, report)) {
      ziggy::CharacterizedView cv;
      for (const std::string& name : names) {
        for (size_t c = 0; c < w.final_table.num_columns(); ++c) {
          if (w.final_table.schema().field(c).name == name) cv.view.columns.push_back(c);
        }
      }
      found.push_back(std::move(cv));
    }
    const double recovered = ziggy::bench::RecoveryRate(w.data.planted_views, found);
    if (recovered + 1e-12 < w.reference_recovery) {
      return "planted recovery " + std::to_string(recovered) + " below in-process " +
             std::to_string(w.reference_recovery);
    }
  }
  return "";
}

/// What one load thread measured; merged after the join.
struct ThreadResult {
  std::vector<double> latency_ms;
  uint64_t reply_bytes = 0;
  uint64_t attempted = 0;
  std::vector<std::string> failures;
  std::vector<std::pair<std::string, std::string>> recorded;
  size_t acked_batches = 0;
};

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

}  // namespace

void KillAllDaemons() {
  std::lock_guard<std::mutex> lock(g_live_mu);
  for (pid_t pid : g_live) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
  }
  g_live.clear();
}

Result<WireResult> RunWire(const Workload& w, const WireOptions& options) {
  const WorkloadSpec& spec = *w.spec;
  WireResult out;
  std::vector<std::string> flags;
  if (spec.ingest) {
    out.store_dir = options.dir + "/store";
    // No --flush-interval-ms: every APPEND checkpoints before its reply.
    flags = {"--store", out.store_dir, "--checkpoint-on-append"};
  }
  if (options.traced_daemon) {
    flags.insert(flags.end(), {"--slow-ms", "3600000"});
  }
  for (const std::string& f : flags) {
    out.daemon_flags += (out.daemon_flags.empty() ? "" : " ") + f;
  }
  if (out.daemon_flags.empty()) out.daemon_flags = "(defaults)";
  ZIGGY_ASSIGN_OR_RETURN(std::unique_ptr<Daemon> daemon,
                         Daemon::Start(options.daemon_path, flags, options.dir));
  ZIGGY_ASSIGN_OR_RETURN(std::unique_ptr<ZiggyClient> admin, Connect(*daemon));
  auto admin_call = [&](const std::string& line) {
    ++out.attempted;
    WireResponse r = Call(admin.get(), line);
    if (!r.ok) out.Fail(Describe(line, r));
    return r;
  };

  // ---- set-up: cold OPENs of the generated CSV -----------------------------
  for (size_t k = 0; k < options.setup_opens; ++k) {
    const bool last = k + 1 == options.setup_opens;
    const std::string name = last ? "t" : "setup" + std::to_string(k);
    const double t0 = NowSeconds();
    const WireResponse r = Call(admin.get(), "OPEN " + name + " " + w.csv_path);
    out.setup_s.push_back(NowSeconds() - t0);
    ++out.attempted;
    if (!r.ok) return Status::IOError("set-up OPEN failed: " + r.body);
    if (!last) admin_call("CLOSE " + name);
  }
  if (spec.ingest) {
    Result<Json> stats = Json::Parse(admin_call("STATS").body);
    if (stats.ok()) {
      out.checkpoint_bytes_setup =
          static_cast<uint64_t>(stats->Number({"store", "checkpoint_bytes"}));
    }
  }

  // ---- closed loop -------------------------------------------------------
  const size_t threads = spec.readers + (spec.ingest ? 1 : 0);
  std::vector<ThreadResult> results(threads);
  std::vector<std::unique_ptr<ZiggyClient>> clients;
  for (size_t i = 0; i < threads; ++i) {
    ZIGGY_ASSIGN_OR_RETURN(std::unique_ptr<ZiggyClient> c, Connect(*daemon));
    clients.push_back(std::move(c));
  }
  // The writer starts after every reader's planted-predicate reply, so
  // those replies are computed on the initial table like the reference.
  std::latch planted_done(static_cast<ptrdiff_t>(spec.readers));
  // Requests sent during the warm-up are checked but not timed: the
  // daemon's caches and heap reach their steady state first.
  const double start = NowSeconds() + spec.warmup_s;
  const double deadline = start + options.seconds;
  const size_t record_each = kRecordedLines / spec.readers;
  auto reader = [&](size_t i) {
    ThreadResult& res = results[i];
    ReadScript script(w, i);
    const std::string verb = ziggy::VerbToString(spec.read_verb);
    while (NowSeconds() < deadline) {
      const ReadRequest request = script.Next();
      const std::string line = w.TableQuery(verb, request.query);
      const double t0 = NowSeconds();
      const WireResponse r = Call(clients[i].get(), line);
      const double t1 = NowSeconds();
      ++res.attempted;
      if (const std::string bad = CheckRead(w, request, r); !bad.empty()) {
        res.failures.push_back(bad + ": " + Describe(line, r));
      }
      if (request.planted) planted_done.count_down();
      if (t0 < start) continue;
      res.latency_ms.push_back((t1 - t0) * 1e3);
      res.reply_bytes += r.body.size() + 4;  // "OK " + body + "\n"
      if (res.recorded.size() < record_each && r.ok) {
        res.recorded.emplace_back(line, "OK " + r.body);
      }
    }
  };
  auto writer = [&](size_t i) {
    ThreadResult& res = results[i];
    planted_done.wait();
    const double begin = NowSeconds();
    for (size_t k = 0; k < w.batches.size(); ++k) {
      const double due = begin + static_cast<double>(k) * kAppendPeriodMs / 1e3;
      const double now = NowSeconds();
      if (due > now) {
        std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
      }
      if (NowSeconds() >= deadline) break;
      const std::string line = "APPEND t " + w.batches[k].csv_path;
      const double t0 = NowSeconds();
      const WireResponse r = Call(clients[i].get(), line);
      if (t0 >= start) res.latency_ms.push_back((NowSeconds() - t0) * 1e3);
      ++res.attempted;
      const int64_t rows = FieldAfter(r.body, "\"appended_rows\":");
      if (!r.ok || rows != static_cast<int64_t>(w.batches[k].rows.num_rows()) ||
          r.body.find("checkpoint_error") != std::string::npos) {
        res.failures.push_back("append: " + Describe(line, r));
        break;  // later generations would no longer match the local table
      }
      res.acked_batches = k + 1;
    }
  };
  {
    std::vector<std::thread> pool;
    for (size_t i = 0; i < spec.readers; ++i) pool.emplace_back(reader, i);
    if (spec.ingest) pool.emplace_back(writer, spec.readers);
    for (std::thread& t : pool) t.join();
  }
  for (size_t i = 0; i < threads; ++i) {
    ThreadResult& res = results[i];
    auto& latencies = i < spec.readers ? out.read_ms : out.append_ms;
    latencies.insert(latencies.end(), res.latency_ms.begin(), res.latency_ms.end());
    out.reply_bytes += i < spec.readers ? res.reply_bytes : 0;
    out.attempted += res.attempted;
    for (std::string& f : res.failures) out.Fail(std::move(f));
    out.acked_batches = std::max(out.acked_batches, res.acked_batches);
    for (auto& rec : res.recorded) out.recorded.push_back(std::move(rec));
  }

  // ---- scrapes -----------------------------------------------------------
  std::string probe_before;
  if (spec.ingest) {
    // A fresh connection is a fresh session: no novelty history reorders
    // the report, before the kill or after the restart.
    ZIGGY_ASSIGN_OR_RETURN(std::unique_ptr<ZiggyClient> probe, Connect(*daemon));
    ++out.attempted;
    const std::string line = "VIEWS t " + w.probe_query;
    const WireResponse r = Call(probe.get(), line);
    if (!r.ok) out.Fail("probe: " + Describe(line, r));
    probe_before = r.body;
  }
  for (auto [target, line] : {std::pair{&out.metrics, "METRICS json"},
                              std::pair{&out.stats, "STATS"},
                              std::pair{&out.table_stats, "STATS t"}}) {
    Result<Json> parsed = Json::Parse(admin_call(line).body);
    if (parsed.ok()) {
      *target = std::move(*parsed);
    } else {
      out.Fail(std::string(line) + ": " + parsed.status().ToString());
    }
  }
  out.vmhwm_mb = daemon->PeakRssMb();
  admin.reset();

  if (!spec.ingest || !options.restart) {
    daemon->Stop(SIGTERM);
    return out;
  }

  // ---- durability: SIGKILL, warm restart, compare -------------------------
  const size_t rows = w.generation_rows[out.acked_batches];
  constexpr int kRestarts = 3;
  for (int round = 0; round < kRestarts; ++round) {
    daemon->Stop(SIGKILL);
    ZIGGY_ASSIGN_OR_RETURN(daemon, Daemon::Start(options.daemon_path, flags, options.dir));
    ZIGGY_ASSIGN_OR_RETURN(admin, Connect(*daemon));
    const double t0 = NowSeconds();
    admin_call("OPEN t " + w.csv_path);
    out.warm_open_ms.push_back((NowSeconds() - t0) * 1e3);
    Result<Json> stats = Json::Parse(admin_call("STATS").body);
    if (!stats.ok() || stats->Number({"store", "opens"}) != 1.0) {
      out.Fail("OPEN after restart was not served from the store");
    }
    const WireResponse list = admin_call("LIST");
    if (FieldAfter(list.body, "\"rows\":") != static_cast<int64_t>(rows)) {
      out.Fail("LIST after restart: " + list.body + ", expected rows " +
               std::to_string(rows));
    }
    ++out.attempted;
    const WireResponse probe = Call(admin.get(), "VIEWS t " + w.probe_query);
    if (!probe.ok || probe.body != probe_before) {
      out.Fail("probe VIEWS after restart differs from the reply before SIGKILL");
    }
  }
  admin.reset();
  daemon->Stop(SIGTERM);
  out.store_bytes = DirectoryBytes(out.store_dir);
  Selection kept(w.final_table.num_rows());
  for (size_t r = 0; r < rows; ++r) kept.Set(r);
  out.final_csv_bytes = ziggy::WriteCsvString(w.final_table.Filter(kept)).size();
  return out;
}

}  // namespace zbench
