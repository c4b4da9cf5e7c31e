#!/usr/bin/env bash
# Release smoke test for the resilience daemon: the full service loop on real
# snapshot files. Checks that out-of-range serve flags are rejected up front,
# dumps three snapshots, serves them through the watch directory, queries
# kappa over the socket, verifies the counters, feeds a corrupt file, and
# checks that SHUTDOWN drains and exits 0.
# Run via ctest (daemon_smoke) with RESILIENCE_DAEMON and SNAPSHOT_TOOL set.
set -u

DAEMON="${RESILIENCE_DAEMON:?set RESILIENCE_DAEMON to the daemon binary}"
TOOL="${SNAPSHOT_TOOL:?set SNAPSHOT_TOOL to the snapshot_tool binary}"
WORK="$(mktemp -d /tmp/kadsim_daemon_smoke.XXXXXX)"
SOCKET="$WORK/daemon.sock"
WATCH="$WORK/watch"
DAEMON_PID=""

cleanup() {
    if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill "$DAEMON_PID" 2>/dev/null
        wait "$DAEMON_PID" 2>/dev/null
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

die() {
    echo "SMOKE FAIL: $*" >&2
    [ -f "$WORK/daemon.log" ] && sed 's/^/  daemon: /' "$WORK/daemon.log" >&2
    exit 1
}

# counter <name> <counters-output>: extract "name=value".
counter() {
    printf '%s\n' "$2" | sed -n "s/^$1=//p"
}

mkdir -p "$WATCH" "$WORK/staging"

# --- out-of-range flags: exit 2 at once, one "error:" line, never serve -----
expect_flag_rejected() {
    local status=0
    timeout 10 "$DAEMON" serve --socket "$WORK/rejected.sock" "$@" \
        >"$WORK/flag.out" 2>"$WORK/flag.err" || status=$?
    [ "$status" = "2" ] \
        || die "serve $*: expected exit 2, got $status ($(cat "$WORK/flag.err"))"
    [ "$(wc -l <"$WORK/flag.err")" = "1" ] && grep -q "^error: " "$WORK/flag.err" \
        || die "serve $*: expected one 'error:' line, got: $(cat "$WORK/flag.err")"
    [ ! -e "$WORK/rejected.sock" ] || die "serve $*: started serving"
}
for flag in "--queue 0" "--lru 0" "--lru -1" "--threads 0" "--poll-ms 0" \
            "--c nan" "--c -inf" "--c 0" "--c -1"; do
    # shellcheck disable=SC2086  # split "--key value" into two words
    expect_flag_rejected $flag
done

# --- three snapshots: two text, one binary ---------------------------------
"$TOOL" dump --nodes 24 --minutes 30 --out "$WORK/staging/001_a.txt" \
    >/dev/null || die "dump 1 failed"
"$TOOL" dump --nodes 30 --minutes 45 --out "$WORK/staging/002_b.txt" \
    >/dev/null || die "dump 2 failed"
"$TOOL" dump --nodes 36 --minutes 60 --binary --out "$WORK/staging/003_c.bin" \
    >/dev/null || die "dump 3 failed"

# --- start the daemon -------------------------------------------------------
"$DAEMON" serve --socket "$SOCKET" --watch "$WATCH" --cache "$WORK/cache" \
    --c 0.2 --poll-ms 50 >"$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!

for _ in $(seq 1 100); do
    [ -S "$SOCKET" ] && break
    kill -0 "$DAEMON_PID" 2>/dev/null || die "daemon died during startup"
    sleep 0.1
done
[ -S "$SOCKET" ] || die "socket never appeared"

# --- ingest via the watch directory (atomic rename, as a producer would) ----
for f in 001_a.txt 002_b.txt 003_c.bin; do
    mv "$WORK/staging/$f" "$WATCH/$f" || die "mv $f into watch dir failed"
done

# Wait until all three are analyzed (KAPPA blocks on analysis, so once LIST
# says 3 and a query succeeds, the pipeline has drained).
for _ in $(seq 1 300); do
    ingested="$(counter ingested "$("$DAEMON" query --socket "$SOCKET" COUNTERS)")"
    [ "$ingested" = "3" ] && break
    sleep 0.1
done
[ "${ingested:-0}" = "3" ] || die "expected ingested=3, got '${ingested:-none}'"

# --- kappa over the socket --------------------------------------------------
kappa_response="$("$DAEMON" query --socket "$SOCKET" KAPPA latest)" \
    || die "KAPPA latest failed: $kappa_response"
case "$kappa_response" in
    "OK kappa_min="*) ;;
    *) die "unexpected KAPPA response: $kappa_response" ;;
esac

list_response="$("$DAEMON" query --socket "$SOCKET" LIST)" || die "LIST failed"
[ "$(printf '%s\n' "$list_response" | grep -c analyzed)" = "3" ] \
    || die "LIST does not show 3 analyzed snapshots: $list_response"

# --- a corrupt file must be rejected, not crash the daemon ------------------
printf 'garbage, not a snapshot\n' > "$WORK/staging/.004_bad.txt"
mv "$WORK/staging/.004_bad.txt" "$WATCH/004_bad.txt"
for _ in $(seq 1 100); do
    counters="$("$DAEMON" query --socket "$SOCKET" COUNTERS)"
    [ "$(counter rejected "$counters")" = "1" ] && break
    sleep 0.1
done
[ "$(counter rejected "$counters")" = "1" ] \
    || die "corrupt file was not counted as rejected: $counters"
[ "$(counter analyzed "$counters")" = "3" ] \
    || die "expected analyzed=3 after corrupt file: $counters"
[ "$(counter analysis_failures "$counters")" = "0" ] \
    || die "unexpected analysis failures: $counters"

# --- clean shutdown ---------------------------------------------------------
shutdown_response="$("$DAEMON" query --socket "$SOCKET" SHUTDOWN)" \
    || die "SHUTDOWN query failed: $shutdown_response"
wait "$DAEMON_PID"
status=$?
DAEMON_PID=""
[ "$status" = "0" ] || die "daemon exited with status $status"
grep -q "clean shutdown" "$WORK/daemon.log" \
    || die "daemon log lacks clean-shutdown line"

echo "daemon smoke test: all checks passed"
