#!/usr/bin/env bash
# End-to-end gate for the networked serving daemon: boots a fresh
# ziggy_daemon on a kernel-assigned port, drives the boxoffice example
# through the line-protocol client (`ziggy_cli connect`), and diffs the
# full session transcript against the checked-in golden. The golden itself
# is pinned to the in-process pipeline by tests/daemon_test.cc
# (DaemonE2eFixtureTest), so this script failing means the daemon no
# longer serves what the library computes.
#
# Usage: ci/daemon_e2e.sh [build-dir]   (run from the repository root)
set -euo pipefail

BUILD_DIR="${1:-build}"
WORK="$(mktemp -d)"
DAEMON_PID=""
source ci/lib.sh
trap daemon_cleanup EXIT

boot_daemon "$WORK/daemon.log"
echo "ziggy_daemon serving on 127.0.0.1:$PORT"

"$BUILD_DIR/ziggy_cli" connect "127.0.0.1:$PORT" \
  < tests/golden/daemon_e2e_commands.txt > "$WORK/out.txt"

diff -u tests/golden/daemon_e2e.golden "$WORK/out.txt"
echo "daemon e2e transcript matches tests/golden/daemon_e2e.golden"

# ---- observability scrape: METRICS must reconcile with the replay ----
# A second connection scrapes the registry in both formats. The scrape is
# written to daemon-e2e-artifacts/ so CI can upload it next to the logs.
ART="daemon-e2e-artifacts"
mkdir -p "$ART"

printf 'metrics prometheus\nquit\n' \
  | "$BUILD_DIR/ziggy_cli" connect "127.0.0.1:$PORT" > "$ART/metrics.prom"
printf 'metrics json\nquit\n' \
  | "$BUILD_DIR/ziggy_cli" connect "127.0.0.1:$PORT" > "$ART/metrics.json"

# Every line of the Prometheus rendering must be a comment or a
# `name{labels} value` sample (exposition text format).
bad_lines="$(grep -Ev \
  '^(# (TYPE|HELP) .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+)$' \
  "$ART/metrics.prom" || true)"
if [ -n "$bad_lines" ]; then
  echo "metrics.prom has lines that do not parse as Prometheus text:"
  echo "$bad_lines"
  exit 1
fi

# The per-verb counters must reconcile with the replayed command file:
# one OPEN/LIST/VIEWS/CLOSE/QUIT each, the BOGUS line as a protocol
# error (never reaching a handler), and this scrape's own METRICS
# (counted before it renders). ziggy_daemon_requests_total only counts
# requests that reached a handler, so it excludes both. The one OPEN is
# cold (no store attached): one source load, one profile build and one
# column dendrogram, no store load. The catalog's own counters see the
# one OPEN and the one CLOSE.
for want in \
  'ziggy_open_csv_parse_us_count 1' \
  'ziggy_open_profile_us_count 1' \
  'ziggy_open_dendrogram_us_count 1' \
  'ziggy_store_load_us_count 0' \
  'ziggy_requests_total{verb="OPEN"} 1' \
  'ziggy_requests_total{verb="LIST"} 1' \
  'ziggy_requests_total{verb="VIEWS"} 1' \
  'ziggy_requests_total{verb="CLOSE"} 1' \
  'ziggy_requests_total{verb="QUIT"} 1' \
  'ziggy_requests_total{verb="METRICS"} 1' \
  'ziggy_daemon_protocol_errors_total 1' \
  'ziggy_daemon_requests_total 5' \
  'ziggy_catalog_tables_opened_total 1' \
  'ziggy_catalog_tables_closed_total 1'; do
  grep -qF "$want" "$ART/metrics.prom" || {
    echo "metrics.prom missing expected sample: $want"
    cat "$ART/metrics.prom"
    exit 1
  }
done

# Quantiles must be ordered: p99 >= p50 for every histogram series.
awk '
  /quantile="0\.5"/  { k = $1; sub(/,?quantile="0\.5"/, "", k);  p50[k] = $2 }
  /quantile="0\.99"/ { k = $1; sub(/,?quantile="0\.99"/, "", k); p99[k] = $2 }
  END {
    bad = 0
    for (k in p99) {
      if (!(k in p50)) { print "no p50 series for " k; bad = 1 }
      else if (p99[k] + 0 < p50[k] + 0) {
        print "p99 < p50 for " k ": " p99[k] " < " p50[k]; bad = 1
      }
    }
    exit bad
  }
' "$ART/metrics.prom"

# The process gauges (page faults, peak RSS) are refreshed on every
# scrape, in both formats.
for name in ziggy_process_minor_faults ziggy_process_peak_rss_bytes; do
  grep -qE "^$name [0-9]+$" "$ART/metrics.prom" || {
    echo "metrics.prom missing process gauge: $name"
    exit 1
  }
  grep -qF "\"$name\":" "$ART/metrics.json" || {
    echo "metrics.json missing process gauge: $name"
    exit 1
  }
done

if command -v python3 > /dev/null; then
  python3 -m json.tool "$ART/metrics.json" > /dev/null
fi
echo "daemon e2e METRICS scrape reconciles with the replayed commands"
