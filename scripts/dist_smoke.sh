#!/bin/sh
# dist-smoke: end-to-end check of the distributed analysis CLI. Collects
# a racy workload's trace, analyzes it three ways — single-process
# swordoffline, sworddist -local (inlining disabled so the wire really
# runs), and a real coordinator process with two worker processes over
# loopback TCP, deliberately mixed-codec (one lzss worker, one raw
# worker, so both the compressed and the fallback dialect carry live
# batches) — and asserts all three report the same race set. Run via
# `make dist-smoke` (part of `make check`).
set -eu

GO=${GO:-go}
. "$(dirname "$0")/stop.sh"
tmp=$(mktemp -d "${TMPDIR:-/tmp}/sword-dist-smoke.XXXXXX")
# Whatever way the script ends — success, a failed check, a coordinator
# that never came up, or an interrupt — no sworddist process outlives it.
coord= w1= w2=
cleanup() {
    stop $coord $w1 $w2
    rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 1' HUP INT TERM

$GO build -o "$tmp/swordrun" ./cmd/swordrun
$GO build -o "$tmp/swordoffline" ./cmd/swordoffline
$GO build -o "$tmp/sworddist" ./cmd/sworddist

# Collect the trace. swordrun exits 3 when the workload races — expected.
"$tmp/swordrun" -w c_md -tool sword -logdir "$tmp/trace" >/dev/null || [ $? -eq 3 ]

# Reports list one race per line; the summary/timing lines differ by
# mode, so compare only the sorted race lines. Exit 3 = races found.
races() { grep '^race:' "$1" | sort; }

"$tmp/swordoffline" -logdir "$tmp/trace" >"$tmp/single.out" || [ $? -eq 3 ]
"$tmp/sworddist" -logdir "$tmp/trace" -local 2 -inline-below -1 >"$tmp/local.out" || [ $? -eq 3 ]

"$tmp/sworddist" -logdir "$tmp/trace" -serve 127.0.0.1:0 >"$tmp/serve.out" 2>&1 &
coord=$!
# The coordinator prints its bound address; poll for it.
addr=
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^sworddist: coordinator listening on //p' "$tmp/serve.out")
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "dist-smoke: coordinator never came up" >&2; exit 1; }
# Mixed codecs: smoke-a negotiates the coordinator's default lzss,
# smoke-b offers nothing compressed and falls back to raw frames.
"$tmp/sworddist" -logdir "$tmp/trace" -join "$addr" -name smoke-a >/dev/null &
w1=$!
"$tmp/sworddist" -logdir "$tmp/trace" -join "$addr" -name smoke-b -wire-codec raw >/dev/null &
w2=$!
wait $coord || [ $? -eq 3 ]
coord=
# The trace is tiny: the first worker can drain the whole plan before the
# second finishes its handshake, and a worker that connects as the
# coordinator exits sees a reset. The differential below judges the
# coordinator's merged report, so late-worker exits are tolerated.
wait $w1 || true
wait $w2 || true
w1= w2=

races "$tmp/single.out" >"$tmp/single.races"
if ! races "$tmp/local.out" | cmp -s "$tmp/single.races" -; then
    echo "dist-smoke: -local 2 race set differs from single-process" >&2
    exit 1
fi
if ! races "$tmp/serve.out" | cmp -s "$tmp/single.races" -; then
    echo "dist-smoke: -serve/-join race set differs from single-process:" >&2
    exit 1
fi
n=$(wc -l <"$tmp/single.races")
echo "dist-smoke: ok ($n race(s) agree across single-process, -local 2, and -serve + 2 workers)"
