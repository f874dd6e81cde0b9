#!/usr/bin/env bash
# Chaos gate: real wire traffic against a daemon with injected store and
# wire faults (ISSUE 6). What it proves, phase by phase:
#
#   1. Golden capture — a clean daemon's VIEWS reply is the yardstick.
#   2. Chaos boot — ZIGGY_FAULTS arms count-limited faults in the daemon:
#      every store write fails for a while (ENOSPC), and a handful of
#      wire send/recv operations die mid-stream (eof / ECONNRESET).
#   3. Wire-fault storm — a read-only barrage of VIEWS sessions. Every
#      transcript must be byte-identical to the golden: the client's
#      idempotent-verb retry reconnects through the injected transport
#      failures, invisibly to the caller.
#   4. Store-fault window — appends on a persisted table drive the
#      background flusher into the failing store: HEALTH must report the
#      degraded read-only latch, an APPEND inside the window must be
#      refused with Unavailable, and reads must keep serving golden bytes.
#   5. Heal — the fault budget exhausts (the injector disarms the site);
#      the flusher's backoff retry lands and HEALTH auto-clears to ok.
#      Writes flow again, a SAVE checkpoints, and the live VIEWS reply on
#      the mutated table is captured.
#   6. SIGKILL + warm restart with no faults: the store built under fire
#      replays byte-identically to the live capture. Then three rounds of
#      SIGKILL landing mid-commit while append+save traffic hammers the
#      compressed store: every warm restart must resolve the pooled
#      shared dictionaries and keep serving — a torn commit may cost the
#      last generation, never a dictionary a live manifest references.
#   7. Overload — a daemon booted under a tiny RLIMIT_NOFILE is flooded
#      with held connections: the accept loop must survive EMFILE
#      (accept_retries > 0) and serve normally once the flood drains;
#      --max-connections sheds excess load with an explicit Unavailable.
#
# Usage: ci/chaos.sh [build-dir]   (run from the repository root)
set -euo pipefail

BUILD_DIR="${1:-build}"
WORK="$(mktemp -d)"
DAEMON_PID=""
source ci/lib.sh

# On failure, keep the evidence where the CI workflow can upload it.
chaos_cleanup() {
  local code=$?
  if [ "$code" -ne 0 ]; then
    echo "chaos gate FAILED (exit $code); preserving transcripts"
    mkdir -p chaos-artifacts
    cp -r "$WORK"/. chaos-artifacts/ 2>/dev/null || true
  fi
  daemon_cleanup
}
trap chaos_cleanup EXIT

PRED='revenue_index >= 1.1826265604539112'
cli() { "$BUILD_DIR/ziggy_cli" connect "127.0.0.1:$PORT"; }

# ---- phase 1: golden capture from a clean daemon ----
boot_daemon "$WORK/clean.log"
printf 'open gold demo://boxoffice?seed=7\nviews gold %s\n' "$PRED" \
  | cli > "$WORK/golden_open.txt"
printf 'views gold %s\n' "$PRED" | cli > "$WORK/golden.txt"
grep -q 'inside=' "$WORK/golden.txt" || {
  echo "golden capture produced no report:"; cat "$WORK/golden.txt"; exit 1
}
stop_daemon

# ---- phase 2: boot the chaos daemon ----
# store.write: every store save attempt fails on its first section write,
# twelve times (trips --degraded-after 3 with a window long enough to
# observe, then exhausts = the "disk heals"). wire.send/recv: sparse
# count-limited transport faults burned off by the read storm.
export ZIGGY_FAULTS='store.write:n1*12#ENOSPC,wire.send:n5*4#eof,wire.recv:n7*3#ECONNRESET'
export ZIGGY_FAULT_SEED=42
boot_daemon "$WORK/chaos.log" --store "$WORK/store" \
  --flush-interval-ms 50 --flush-backoff-initial-ms 100 \
  --flush-backoff-max-ms 300 --degraded-after 3
unset ZIGGY_FAULTS ZIGGY_FAULT_SEED
grep -q 'fault injection armed' "$WORK/chaos.log" || {
  echo "chaos daemon did not arm its faults:"; cat "$WORK/chaos.log"; exit 1
}
echo "chaos daemon on 127.0.0.1:$PORT"

# Prime before any fault can fire (the wire rules need 5+ hits): the
# serving table, the mutating table, and its persist flag.
printf 'open gold demo://boxoffice?seed=7\nopen mut demo://boxoffice?seed=19\npersist mut on\n' \
  | cli > "$WORK/prime.txt"
grep -q '"table":"mut"' "$WORK/prime.txt" || {
  echo "prime failed:"; cat "$WORK/prime.txt"; exit 1
}

# ---- phase 3: wire-fault storm, reads byte-identical throughout ----
for i in $(seq 1 40); do
  printf 'views gold %s\n' "$PRED" | cli > "$WORK/storm_$i.txt"
  diff -u "$WORK/golden.txt" "$WORK/storm_$i.txt" || {
    echo "read $i diverged under wire faults"; exit 1
  }
done
echo "40/40 reads byte-identical through injected transport faults"

# ---- phase 4: store faults trip the degraded read-only latch ----
printf 'append mut demo://boxoffice?seed=23\n' | cli > "$WORK/append1.txt"
grep -q '"appended_rows":900' "$WORK/append1.txt" || {
  echo "pre-degraded append failed:"; cat "$WORK/append1.txt"; exit 1
}
DEGRADED=""
for _ in $(seq 1 100); do
  printf 'health\n' | cli > "$WORK/health.txt" || true
  if grep -q '"status":"degraded"' "$WORK/health.txt"; then DEGRADED=1; break; fi
  sleep 0.1
done
[ -n "$DEGRADED" ] || {
  echo "store faults never tripped degraded mode:"
  cat "$WORK/health.txt"; exit 1
}
grep -q '"retry_after_ms":' "$WORK/health.txt"
echo "degraded latch tripped: $(cat "$WORK/health.txt")"
# HEALTH renders from the registry: the latch's gauge reads 1 in METRICS
# (the fault budget keeps the store failing well past this scrape).
printf 'metrics json\n' | cli > "$WORK/metrics_degraded.txt"
grep -q '"ziggy_flusher_degraded":1' "$WORK/metrics_degraded.txt" || {
  echo "degraded gauge does not read 1 while HEALTH says degraded:"
  cat "$WORK/metrics_degraded.txt"; exit 1
}

# Writes are refused with Unavailable (a delivered ERR, not a hangup) ...
printf 'append mut demo://boxoffice?seed=23\n' | cli > "$WORK/append_degraded.txt"
grep -q 'Unavailable' "$WORK/append_degraded.txt" || {
  echo "degraded APPEND was not refused:"; cat "$WORK/append_degraded.txt"; exit 1
}
# ... while reads keep serving the exact same bytes.
printf 'views gold %s\n' "$PRED" | cli > "$WORK/views_degraded.txt"
diff -u "$WORK/golden.txt" "$WORK/views_degraded.txt"
echo "degraded mode: writes refused, reads still golden"

# ---- phase 5: the fault budget exhausts; the catalog heals itself ----
HEALED=""
for _ in $(seq 1 200); do
  printf 'health\n' | cli > "$WORK/health2.txt" || true
  if grep -q '"status":"ok"' "$WORK/health2.txt"; then HEALED=1; break; fi
  sleep 0.1
done
[ -n "$HEALED" ] || {
  echo "degraded mode never auto-cleared:"; cat "$WORK/health2.txt"; exit 1
}
echo "auto-healed: $(cat "$WORK/health2.txt")"
printf 'metrics json\n' | cli > "$WORK/metrics_healed.txt"
grep -q '"ziggy_flusher_degraded":0' "$WORK/metrics_healed.txt" || {
  echo "degraded gauge does not read 0 after the heal:"
  cat "$WORK/metrics_healed.txt"; exit 1
}

printf 'append mut demo://boxoffice?seed=23\nsave mut\n' | cli > "$WORK/append2.txt"
grep -q '"appended_rows":900' "$WORK/append2.txt" || {
  echo "post-heal append failed:"; cat "$WORK/append2.txt"; exit 1
}
grep -q '"saved":\[{"table":"mut"' "$WORK/append2.txt" || {
  echo "post-heal SAVE failed:"; cat "$WORK/append2.txt"; exit 1
}
printf 'views mut %s\n' "$PRED" | cli > "$WORK/mut_live.txt"
grep -q 'inside=' "$WORK/mut_live.txt"
printf 'raw STATS\n' | cli > "$WORK/stats.txt"
grep -q '"degraded":false' "$WORK/stats.txt"
grep -q '"backoff_tables":0' "$WORK/stats.txt"

# ---- phase 6: SIGKILL; a clean warm restart replays the chaos store ----
kill9_daemon
boot_daemon "$WORK/warm.log" --store "$WORK/store"
printf 'open mut demo://ignored-warm-checkpoint-wins\nviews mut %s\n' "$PRED" \
  | cli > "$WORK/warm.txt"
tail -n +2 "$WORK/warm.txt" > "$WORK/mut_warm.txt"
diff -u "$WORK/mut_live.txt" "$WORK/mut_warm.txt"
echo "warm restart of the store written under fire is byte-identical"
stop_daemon

# ---- phase 6b: shared dictionaries survive SIGKILL mid-commit ----
# The chaos store is compressed (the default): its checkpoints reference
# pooled dictionaries under store/dicts/. Each round boots on the store
# (implicitly validating the previous crash), hammers append+save commits
# on a tight flush interval, and SIGKILLs at a different offset.
ls "$WORK/store/dicts"/dict.*.zdic > /dev/null || {
  echo "chaos store has no pooled dictionaries"; ls -R "$WORK/store"; exit 1
}
for round in 1 2 3; do
  boot_daemon "$WORK/kill_$round.log" --store "$WORK/store" \
    --flush-interval-ms 20
  printf 'open mut demo://ignored-warm-checkpoint-wins\npersist mut on\n' \
    | cli > "$WORK/kill_prime_$round.txt"
  grep -q '"persist":true' "$WORK/kill_prime_$round.txt" || {
    echo "round $round: persist prime failed:"
    cat "$WORK/kill_prime_$round.txt"; exit 1
  }
  ( for _ in $(seq 1 20); do
      printf 'append mut demo://boxoffice?seed=29\nsave mut\n' | cli || true
    done ) > /dev/null 2>&1 &
  APPENDER=$!
  sleep "0.$((round * 2))"
  kill9_daemon
  kill "$APPENDER" 2>/dev/null || true
  wait "$APPENDER" 2>/dev/null || true
done
boot_daemon "$WORK/kill_final.log" --store "$WORK/store"
printf 'open mut demo://ignored-warm-checkpoint-wins\nviews mut %s\nraw STATS\n' \
  "$PRED" | cli > "$WORK/kill_final.txt"
grep -q 'inside=' "$WORK/kill_final.txt" || {
  echo "table did not survive SIGKILL mid-commit:"
  cat "$WORK/kill_final.txt"; exit 1
}
grep -Eq '"dict_pool":\{"files":[1-9]' "$WORK/kill_final.txt" || {
  echo "dict pool empty after SIGKILL rounds:"
  cat "$WORK/kill_final.txt"; exit 1
}
echo "shared dictionaries survived 3 SIGKILL-mid-commit rounds"
stop_daemon

# ---- phase 7: fd exhaustion and admission control ----
OLD_NOFILE="$(ulimit -Sn)"
ulimit -Sn 64
boot_daemon "$WORK/overload.log"
ulimit -Sn "$OLD_NOFILE"
# Flood: held connections until the daemon's accept() runs out of fds.
# The /dev/tcp handshakes complete against the listen backlog even while
# the daemon cannot accept, so this never blocks.
HELD=()
for _ in $(seq 1 70); do
  # The brace group scopes the stderr silencing to this one attempt: a bare
  # `exec ... 2>/dev/null` would redirect the whole script's stderr for good.
  if { exec {fd}<>"/dev/tcp/127.0.0.1/$PORT"; } 2>/dev/null; then
    HELD+=("$fd")
  fi
done
sleep 2  # let the accept loop hit EMFILE and spin its sleep-and-retry
for fd in "${HELD[@]}"; do
  exec {fd}>&- || true
done
# With the flood drained the daemon must still be alive and serving, and
# its stats must show the EMFILE retries it survived.
RECOVERED=""
for _ in $(seq 1 100); do
  if printf 'raw STATS\n' | cli > "$WORK/overload_stats.txt" 2>/dev/null; then
    RECOVERED=1; break
  fi
  sleep 0.1
done
[ -n "$RECOVERED" ] || { echo "daemon dead after fd flood"; exit 1; }
RETRIES="$(grep -o '"accept_retries":[0-9]*' "$WORK/overload_stats.txt" | cut -d: -f2)"
[ "${RETRIES:-0}" -gt 0 ] || {
  echo "expected accept_retries > 0 after fd exhaustion:"
  cat "$WORK/overload_stats.txt"; exit 1
}
echo "accept loop survived fd exhaustion ($RETRIES retries)"
stop_daemon

# Admission control: with --max-connections 1 and the slot held, the next
# client is shed with an explicit Unavailable, and the slot's release
# restores service.
boot_daemon "$WORK/admission.log" --max-connections 1
exec {held}<>"/dev/tcp/127.0.0.1/$PORT"
sleep 0.3  # let the daemon accept the held connection into the slot
printf 'list\n' | cli > "$WORK/admission.txt" || true
grep -q 'too many connections' "$WORK/admission.txt" || {
  echo "expected an Unavailable shed reply:"; cat "$WORK/admission.txt"; exit 1
}
exec {held}>&-
for _ in $(seq 1 100); do
  if printf 'list\n' | cli > "$WORK/admission_ok.txt" 2>/dev/null \
      && grep -q '"tables"' "$WORK/admission_ok.txt"; then
    break
  fi
  sleep 0.1
done
grep -q '"tables"' "$WORK/admission_ok.txt" || {
  echo "daemon did not recover after the held slot closed"; exit 1
}
echo "admission control sheds and recovers"
stop_daemon

echo "chaos gate passed"
