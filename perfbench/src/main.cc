// zbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//        --daemon <ziggy_daemon> --work-root <dir> [--git-sha s]
//        [--source-digest d]
//
// Normally launched through perfbench/run.py, which builds both binaries
// and supplies the last four flags. Prints a human-readable report, one
// {"meta": ...} line, and as its last line the JSON result:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.

#include <unistd.h>

#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <thread>

#include "engine/json.h"
#include "zbench.h"

namespace zbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string daemon;
  std::string work_root;
  std::string git_sha = "none";
  std::string source_digest = "none";
};

int Usage() {
  std::cerr << "usage: zbench --workload <";
  for (const WorkloadSpec& s : AllWorkloads()) {
    std::cerr << s.name << (&s == &AllWorkloads().back() ? "" : "|");
  }
  std::cerr << "> --seed n --seconds s --trace 0|1 --daemon path --work-root dir\n"
               "              [--git-sha s] [--source-digest d]\n";
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (flag == "--workload") a->workload = v;
      else if (flag == "--seed") a->seed = std::stoull(v);
      else if (flag == "--seconds") a->seconds = std::stod(v);
      else if (flag == "--trace") a->trace = std::stoi(v);
      else if (flag == "--daemon") a->daemon = v;
      else if (flag == "--work-root") a->work_root = v;
      else if (flag == "--git-sha") a->git_sha = v;
      else if (flag == "--source-digest") a->source_digest = v;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && FindWorkload(a->workload) != nullptr && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1) && !a->daemon.empty() &&
         !a->work_root.empty();
}

/// Kills the daemons and exits if the run overstays its time limit.
class Watchdog {
 public:
  explicit Watchdog(double limit_s)
      : thread_([this, limit_s] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, std::chrono::duration<double>(limit_s),
                            [this] { return done_; })) {
            std::cerr << "zbench: run exceeded " << limit_s << " s; aborting\n";
            KillAllDaemons();
            _exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

struct RemoveOnExit {
  std::string dir;
  ~RemoveOnExit() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

struct Metric {
  double value;
  const char* unit;
};

std::string Num(double v) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

/// A percentile's sample count; one with fewer than ten samples beyond it
/// is flagged as unsupported.
std::string TailNote(size_t n, double q) {
  const double beyond = static_cast<double>(n) * (1.0 - q);
  std::ostringstream os;
  os << "p" << Num(q * 100) << " of n=" << n << " ("
     << static_cast<long>(beyond) << " beyond"
     << (beyond < 10 ? "; UNSUPPORTED, fewer than 10" : "") << ")";
  return os.str();
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// The read statistics of one wire run. Reads are those sent inside the
/// measured window, so the closed loop's rate is their count over its
/// length.
struct ReadStats {
  double p50_ms, tail_ms, rps;
  ReadStats(const WireResult& a, double seconds, double tail_q)
      : p50_ms(Percentile(a.read_ms, 0.5)),
        tail_ms(Percentile(a.read_ms, tail_q)),
        rps(static_cast<double>(a.read_ms.size()) / seconds) {}
};

/// The per-layer metrics measured from the untraced wire run's scrapes.
void WireLayerMetrics(const Workload& w, const WireResult& a,
                      std::map<std::string, double>* m) {
  const Json& h = *a.metrics.Find({"histograms"});
  auto p50 = [&](const char* series) { return h.Number({series, "p50"}); };
  const std::string verb_series = std::string("ziggy_request_us{verb=\"") +
                                  ziggy::VerbToString(w.spec->read_verb) + "\"}";
  const double reads = static_cast<double>(std::max<size_t>(a.read_ms.size(), 1));
  (*m)["daemon.queue_us_p50"] = p50("ziggy_request_queue_us");
  (*m)["daemon.execute_us_p50"] = p50("ziggy_request_execute_us");
  (*m)["daemon.flush_us_p50"] = p50("ziggy_request_flush_us");
  (*m)["daemon.peak_rss_mb"] = a.vmhwm_mb;
  (*m)["daemon.wire_us_p50"] =
      Percentile(a.read_ms, 0.5) * 1e3 - p50(verb_series.c_str());
  (*m)["protocol.reply_bytes"] = static_cast<double>(a.reply_bytes) / reads;

  const Json& t = a.table_stats;
  const double requests = std::max(t.Number({"requests"}), 1.0);
  const double patched = t.Number({"sketch_patched_hits"});
  (*m)["serve.component_hit_ratio"] = t.Number({"component_cache", "hits"}) / requests;
  (*m)["serve.exact_hit_ratio"] = t.Number({"sketch_exact_hits"}) / requests;
  (*m)["serve.patched_ratio"] = patched / requests;
  (*m)["serve.coalesced_ratio"] = t.Number({"coalesced_requests"}) / requests;
  (*m)["serve.cold_ratio"] = t.Number({"sketch_misses"}) / requests;
  (*m)["serve.patched_delta_rows"] =
      patched > 0 ? t.Number({"patched_delta_rows"}) / patched : 0;
  (*m)["serve.sketch_lookup_us_p50"] = p50("ziggy_sketch_lookup_us");
  (*m)["serve.scan_us_p50"] = p50("ziggy_scan_us");
  (*m)["serve.cache_evictions_per_read"] =
      a.metrics.Number({"counters", "ziggy_sketch_cache_evictions_total"}) / reads;

  const double acked = static_cast<double>(a.acked_batches);
  (*m)["persist.save_us_p50"] = p50("ziggy_store_save_us");
  (*m)["persist.bytes_per_append"] =
      acked > 0 ? (a.stats.Number({"store", "checkpoint_bytes"}) -
                   static_cast<double>(a.checkpoint_bytes_setup)) /
                      acked
                : 0;
  (*m)["persist.delta_checkpoints"] = a.stats.Number({"store", "delta_checkpoints"});
  (*m)["persist.compactions"] = a.stats.Number({"store", "compactions"});
  (*m)["append_p50_ms"] = Percentile(a.append_ms, 0.5);
  (*m)["append_p95_ms"] = Percentile(a.append_ms, 0.95);
  (*m)["warm_open_ms"] = Median(a.warm_open_ms);
  (*m)["space_amp"] = a.final_csv_bytes > 0 ? static_cast<double>(a.store_bytes) /
                                                  static_cast<double>(a.final_csv_bytes)
                                            : 0;
}

/// Unit of every per-layer metric, in report order (BENCHMARK.json lists
/// the same names).
const std::vector<std::pair<const char*, const char*>>& LayerUnits() {
  static const std::vector<std::pair<const char*, const char*>> kUnits = {
      {"daemon.queue_us_p50", "us"},
      {"daemon.execute_us_p50", "us"},
      {"daemon.flush_us_p50", "us"},
      {"daemon.wire_us_p50", "us"},
      {"daemon.peak_rss_mb", "MiB"},
      {"protocol.codec_us", "us"},
      {"protocol.reply_bytes", "bytes"},
      {"query.parse_us", "us"},
      {"query.eval_us", "us"},
      {"query.rows_examined_per_selected", "ratio"},
      {"serve.characterize_us", "us"},
      {"serve.lookup_us", "us"},
      {"serve.component_hit_ratio", "ratio"},
      {"serve.exact_hit_ratio", "ratio"},
      {"serve.patched_ratio", "ratio"},
      {"serve.coalesced_ratio", "ratio"},
      {"serve.cold_ratio", "ratio"},
      {"serve.patched_delta_rows", "rows"},
      {"serve.sketch_lookup_us_p50", "us"},
      {"serve.scan_us_p50", "us"},
      {"serve.cache_evictions_per_read", "ratio"},
      {"zig.scan_us", "us"},
      {"zig.scan_rows_per_s", "rows/s"},
      {"zig.component_build_us", "us"},
      {"zig.profile_ms", "ms"},
      {"zig.profile_append_us", "us"},
      {"views.search_us", "us"},
      {"views.candidates", "count"},
      {"views.dendrogram_ms", "ms"},
      {"explain.validate_us", "us"},
      {"explain.text_us", "us"},
      {"explain.dropped_ratio", "ratio"},
      {"engine.render_us", "us"},
      {"engine.unattributed_us", "us"},
      {"storage.csv_parse_ms", "ms"},
      {"storage.append_rows_us", "us"},
      {"persist.save_us_p50", "us"},
      {"persist.bytes_per_append", "bytes"},
      {"persist.delta_checkpoints", "count"},
      {"persist.compactions", "count"},
      {"persist.load_ms", "ms"},
      {"append_p50_ms", "ms"},
      {"append_p95_ms", "ms"},
      {"warm_open_ms", "ms"},
      {"space_amp", "ratio"},
      {"read_tail_ms", "ms"},
      {"read_rps", "req/s"},
      {"error_rate", "ratio"},
      {"trace.overhead_ms", "ms"},
  };
  return kUnits;
}

int Run(const Args& args) {
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  Watchdog watchdog(170.0);
  const std::string dir = args.work_root + "/" + spec.name + "-" +
                          std::to_string(args.seed) + "-" + std::to_string(getpid());
  RemoveOnExit cleanup{dir};
  for (const char* sub : {"/inputs", "/a", "/b"}) {
    std::filesystem::create_directories(dir + sub);
  }

  const std::string build_type = ZBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    const std::string warning = "WARNING: build type is '" + build_type +
                                "', not Release; these numbers are not comparable";
    std::cerr << warning << "\n";
    std::cout << warning << "\n";
  }
  const double t_gen = NowSeconds();
  Result<std::unique_ptr<Workload>> workload =
      MakeWorkload(spec, args.seed, dir + "/inputs", spec.warmup_s + args.seconds);
  if (!workload.ok()) {
    std::cerr << "zbench: input generation failed: " << workload.status() << "\n";
    return 1;
  }
  const Workload& w = **workload;
  std::cout << "workload " << spec.name << " (" << spec.why << ")\n"
            << "inputs: " << w.data.table.num_rows() << " x "
            << w.data.table.num_columns() << " table, " << w.batches.size()
            << " append batches, generated in " << Num(NowSeconds() - t_gen)
            << " s\n";

  WireOptions options;
  options.daemon_path = args.daemon;
  // A traced run makes two wire runs (untraced, then with the daemon's
  // request tracing armed) and splits the measuring time between them.
  options.seconds = args.trace == 0 ? args.seconds : args.seconds / 2;
  options.dir = dir + "/a";
  options.setup_opens = args.trace == 0 ? spec.setup_opens : 1;
  Result<WireResult> a = RunWire(w, options);
  if (!a.ok()) {
    std::cerr << "zbench: wire run failed: " << a.status() << "\n";
    return 1;
  }
  uint64_t attempted = a->attempted;
  uint64_t failed = a->failed;
  std::vector<std::string> errors = a->errors;

  std::map<std::string, Metric> metrics;
  if (args.trace == 0) {
    const ReadStats reads(*a, options.seconds, spec.tail_q);
    metrics["setup_s"] = {Median(a->setup_s), "s"};
    metrics["read_p50_ms"] = {reads.p50_ms, "ms"};
    std::cout << "setup_s      = " << Num(metrics["setup_s"].value)
              << " s (median of " << a->setup_s.size() << " cold OPENs)\n"
              << "read_p50_ms  = " << Num(reads.p50_ms) << " ms (n=" << a->read_ms.size()
              << ")\n"
              << "read_tail_ms = " << Num(reads.tail_ms) << " ms ("
              << TailNote(a->read_ms.size(), spec.tail_q) << ")\n"
              << "read_rps     = " << Num(reads.rps) << " req/s (" << spec.readers
              << " closed-loop connections)\n"
              << "daemon.peak_rss_mb = " << Num(a->vmhwm_mb) << " MiB (VmHWM)\n";
    if (spec.ingest) {
      std::map<std::string, double> layer;
      WireLayerMetrics(w, *a, &layer);
      std::cout << "append_p50_ms = " << Num(layer["append_p50_ms"]) << " ms ("
                << a->append_ms.size() << " durable APPENDs, one every "
                << kAppendPeriodMs << " ms)\n"
                << "append_p95_ms = " << Num(layer["append_p95_ms"]) << " ms ("
                << TailNote(a->append_ms.size(), 0.95) << ")\n"
                << "warm_open_ms  = " << Num(layer["warm_open_ms"])
                << " ms (median of " << a->warm_open_ms.size()
                << " SIGKILL + restart rounds)\n"
                << "space_amp     = " << Num(layer["space_amp"]) << " ("
                << a->store_bytes << " store bytes / " << a->final_csv_bytes
                << " CSV bytes)\n";
    }
  } else {
    options.dir = dir + "/b";
    options.traced_daemon = true;
    options.restart = false;
    Result<WireResult> b = RunWire(w, options);
    if (!b.ok()) {
      std::cerr << "zbench: traced wire run failed: " << b.status() << "\n";
      return 1;
    }
    attempted += b->attempted;
    failed += b->failed;
    errors.insert(errors.end(), b->errors.begin(), b->errors.end());
    std::map<std::string, double> layer = RunTrace(w, *a, std::cout);
    WireLayerMetrics(w, *a, &layer);
    const ReadStats reads(*a, options.seconds, spec.tail_q);
    layer["read_tail_ms"] = reads.tail_ms;
    layer["read_rps"] = reads.rps;
    layer["error_rate"] = static_cast<double>(failed) / static_cast<double>(attempted);
    layer["trace.overhead_ms"] =
        Percentile(b->read_ms, 0.5) - Percentile(a->read_ms, 0.5);
    std::cout << "tracing overhead: read_p50_ms " << Num(Percentile(b->read_ms, 0.5))
              << " with daemon request tracing armed vs "
              << Num(Percentile(a->read_ms, 0.5)) << " without\n";
    for (const auto& [name, unit] : LayerUnits()) {
      metrics[name] = {layer.at(name), unit};
      std::cout << std::left << std::setw(36) << name << std::right << " "
                << Num(layer.at(name)) << " " << unit << "\n";
    }
  }

  const double error_rate =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 1;
  std::cout << "error_rate   = " << Num(error_rate) << " (" << failed << " of "
            << attempted << " requests failed, were refused, or failed a check)\n";
  for (const std::string& e : errors) std::cerr << "zbench: failure: " << e << "\n";

  std::cout << "{\"meta\":{\"workload\":\"" << spec.name << "\",\"seed\":" << args.seed
            << ",\"seconds\":" << Num(args.seconds) << ",\"trace\":" << args.trace
            << ",\"git_sha\":\"" << ziggy::JsonEscape(args.git_sha)
            << "\",\"source_digest\":\"" << ziggy::JsonEscape(args.source_digest)
            << "\",\"build_type\":\"" << ziggy::JsonEscape(build_type)
            << "\",\"compiler\":\"" << ziggy::JsonEscape(ZBENCH_COMPILER)
            << "\",\"nproc\":" << std::thread::hardware_concurrency()
            << ",\"daemon_flags\":\"" << ziggy::JsonEscape(a->daemon_flags)
            << "\",\"reader_connections\":" << spec.readers
            << ",\"writer_connections\":" << (spec.ingest ? 1 : 0) << "}}\n";
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::cout << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
              << Num(metric.value) << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace zbench

int main(int argc, char** argv) {
  zbench::Args args;
  if (!zbench::ParseArgs(argc, argv, &args)) return zbench::Usage();
  return zbench::Run(args);
}
