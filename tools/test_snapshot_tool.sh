#!/usr/bin/env bash
# CLI contract test for snapshot_tool: every failure path exits non-zero with
# a one-line "error:" diagnostic on stderr, every success path exits zero.
# Run via ctest (snapshot_tool_cli) with SNAPSHOT_TOOL pointing at the binary.
set -u

TOOL="${SNAPSHOT_TOOL:?set SNAPSHOT_TOOL to the snapshot_tool binary}"
WORK="$(mktemp -d /tmp/kadsim_snapshot_cli.XXXXXX)"
trap 'rm -rf "$WORK"' EXIT

failures=0

fail() {
    echo "FAIL: $*" >&2
    failures=$((failures + 1))
}

# expect_ok <label> <args...>: command must exit 0.
expect_ok() {
    local label="$1"
    shift
    if ! "$TOOL" "$@" >"$WORK/out" 2>"$WORK/err"; then
        fail "$label: expected exit 0, got $? (stderr: $(cat "$WORK/err"))"
    fi
}

# expect_err <label> <args...>: command must exit non-zero and print a
# single-line "error:" diagnostic on stderr (usage errors also print usage).
expect_err() {
    local label="$1"
    shift
    if "$TOOL" "$@" >"$WORK/out" 2>"$WORK/err"; then
        fail "$label: expected non-zero exit, got 0"
        return
    fi
    if ! grep -q "error:" "$WORK/err" && ! grep -q "^usage:" "$WORK/err"; then
        fail "$label: no diagnostic on stderr (got: $(cat "$WORK/err"))"
    fi
}

# expect_flag_err <label> <args...>: an out-of-range flag must exit exactly 2
# with exactly one "error:" line on stderr.
expect_flag_err() {
    local label="$1"
    shift
    local status=0
    "$TOOL" "$@" >"$WORK/out" 2>"$WORK/err" || status=$?
    if [ "$status" -ne 2 ]; then
        fail "$label: expected exit 2, got $status (stderr: $(cat "$WORK/err"))"
    elif [ "$(wc -l <"$WORK/err")" -ne 1 ] || ! grep -q "^error: " "$WORK/err"; then
        fail "$label: expected one 'error:' line (got: $(cat "$WORK/err"))"
    fi
}

# --- success paths: dump -> analyze -> convert round trip -------------------
expect_ok "dump text" dump --nodes 24 --minutes 30 --out "$WORK/snap.txt"
expect_ok "dump binary" dump --nodes 24 --minutes 30 --binary --out "$WORK/snap.bin"
expect_ok "analyze text" analyze --in "$WORK/snap.txt" --c 0.2
expect_ok "convert to binary" convert --in "$WORK/snap.txt" --to-binary --out "$WORK/rt.bin"
expect_ok "convert back to text" convert --in "$WORK/rt.bin" --to-text --out "$WORK/rt.txt"
expect_ok "analyze round-tripped" analyze --in "$WORK/rt.txt" --c 0.2
expect_ok "analyze at c = 1" analyze --in "$WORK/snap.txt" --c 1
if ! cmp -s "$WORK/snap.txt" "$WORK/rt.txt"; then
    fail "text -> binary -> text round trip changed the file"
fi

# --- failure paths ----------------------------------------------------------
expect_err "missing input file" analyze --in "$WORK/does_not_exist.txt"
printf 'this is not a snapshot\n' > "$WORK/garbage.txt"
expect_err "garbage input file" analyze --in "$WORK/garbage.txt"
: > "$WORK/empty.txt"
expect_err "empty input file" analyze --in "$WORK/empty.txt"
head -c 20 "$WORK/snap.bin" > "$WORK/truncated.bin"
expect_err "truncated binary" analyze --in "$WORK/truncated.bin"
if ! grep -q "byte" "$WORK/err"; then
    fail "truncated binary: diagnostic lacks a byte position (got: $(cat "$WORK/err"))"
fi
expect_err "convert with no direction" convert --in "$WORK/snap.txt" --out "$WORK/x"
expect_err "convert with both directions" \
    convert --in "$WORK/snap.txt" --to-binary --to-text --out "$WORK/x"
expect_err "dimacs bad endpoints" dimacs --in "$WORK/snap.txt" --from 5 --to 5
expect_err "dimacs out-of-range endpoint" \
    dimacs --in "$WORK/snap.txt" --from 0 --to 100000
for c in nan -inf inf 0 -1 1.5; do
    expect_flag_err "analyze --c $c" analyze --in "$WORK/snap.txt" --c "$c"
done
expect_err "unknown command" frobnicate --in "$WORK/snap.txt"
expect_err "no command"

if [ "$failures" -ne 0 ]; then
    echo "$failures snapshot_tool CLI contract check(s) failed" >&2
    exit 1
fi
echo "snapshot_tool CLI contract: all checks passed"
