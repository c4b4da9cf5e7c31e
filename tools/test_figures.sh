#!/usr/bin/env bash
# CLI contract test for the figures bench: an unknown id exits 2 with a
# one-line "error:" diagnostic before anything runs; a small Figure 2 run
# writes pinned CSV bytes, fresh and again from the series cache; an
# unwritable BENCH JSON fails the run with one "error:" line naming it.
# Run via ctest (figures_cli) with FIGURES pointing at the binary.
set -u

FIGURES="${FIGURES:?set FIGURES to the figures binary}"
WORK="$(mktemp -d /tmp/kadsim_figures_cli.XXXXXX)"
trap 'rm -rf "$WORK"' EXIT

# The pinned bytes depend on every REPRO_* knob: clear inherited ones, then
# set the small-network size, scale and threads explicitly.
while read -r var; do unset "$var"; done < <(compgen -e | grep '^REPRO_')
export REPRO_SCALE=quick REPRO_SIZE_SMALL=60 REPRO_THREADS=2
# Figure 2 at REPRO_SIZE_SMALL=60: the CSV a cache hit loads.
FIG02_SHA1=d2b98ecf8f1e4d189ae0569f606b37d5b0403f09

failures=0

fail() {
    echo "FAIL: $*" >&2
    failures=$((failures + 1))
}

# run <dir> <args...>: runs figures in <dir>; sets $rc, output in $WORK/out
# and $WORK/err.
run() {
    local dir="$1"
    shift
    mkdir -p "$dir"
    (cd "$dir" && "$FIGURES" "$@") >"$WORK/out" 2>"$WORK/err"
    rc=$?
}

error_lines() { grep -c '^error:' "$WORK/err"; }

# --- unknown id: exit 2, one diagnostic, nothing written ---------------------
run "$WORK/unknown" fig02 no_such_figure
[ "$rc" -eq 2 ] || fail "unknown id: expected exit 2, got $rc"
[ "$(error_lines)" -eq 1 ] || fail "unknown id: expected one error: line (got: $(cat "$WORK/err"))"
grep -q "^error: unknown figure 'no_such_figure' (known: fig02, " "$WORK/err" ||
    fail "unknown id: diagnostic lacks the id or the known list (got: $(cat "$WORK/err"))"
[ -z "$(ls -A "$WORK/unknown")" ] || fail "unknown id: wrote $(ls -A "$WORK/unknown")"

# --- fresh run, then the same run from the cache: same CSV bytes -------------
csv="$WORK/fig02/bench_out/fig02.csv"
run "$WORK/fig02" fig02
[ "$rc" -eq 0 ] || fail "fresh fig02: expected exit 0, got $rc (stderr: $(cat "$WORK/err"))"
grep -q "simulating:" "$WORK/out" || fail "fresh fig02: nothing was simulated"
[ "$(sha1sum <"$csv" | cut -d' ' -f1)" = "$FIG02_SHA1" ] ||
    fail "fresh fig02: fig02.csv differs from the pinned bytes"
run "$WORK/fig02" fig02
[ "$rc" -eq 0 ] || fail "cached fig02: expected exit 0, got $rc (stderr: $(cat "$WORK/err"))"
! grep -q "simulating:" "$WORK/out" || fail "cached fig02: re-simulated instead of loading"
[ "$(sha1sum <"$csv" | cut -d' ' -f1)" = "$FIG02_SHA1" ] ||
    fail "cached fig02: fig02.csv differs from the pinned bytes"

# --- unwritable BENCH JSON: non-zero exit, one diagnostic naming the path ----
json="bench_out/BENCH_fig02.json"
rm -f "$WORK/fig02/$json"
mkdir "$WORK/fig02/$json"
run "$WORK/fig02" fig02
[ "$rc" -ne 0 ] || fail "unwritable json: expected non-zero exit, got 0"
[ "$(error_lines)" -eq 1 ] || fail "unwritable json: expected one error: line (got: $(cat "$WORK/err"))"
grep -q "^error: fig02: .*$json" "$WORK/err" ||
    fail "unwritable json: diagnostic does not name $json (got: $(cat "$WORK/err"))"

if [ "$failures" -ne 0 ]; then
    echo "$failures figures CLI contract check(s) failed" >&2
    exit 1
fi
echo "figures CLI contract: all checks passed"
