#!/bin/sh
# stream-smoke: end-to-end check of live (streaming) race detection.
# Starts a live-flush collection of a racy workload in the background,
# attaches swordwatch to the growing trace directory while it is being
# written, and asserts the live watcher's final race set matches what a
# post-mortem swordoffline pass reports on the completed trace. Run via
# `make stream-smoke` (part of `make check`).
set -eu

GO=${GO:-go}
. "$(dirname "$0")/stop.sh"
tmp=$(mktemp -d "${TMPDIR:-/tmp}/sword-stream-smoke.XXXXXX")
# Whatever way the script ends — success, a failed check, or an
# interrupt — neither swordrun nor swordwatch outlives it.
runner= watcher=
cleanup() {
    stop $runner $watcher
    rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 1' HUP INT TERM

$GO build -o "$tmp/swordrun" ./cmd/swordrun
$GO build -o "$tmp/swordwatch" ./cmd/swordwatch
$GO build -o "$tmp/swordoffline" ./cmd/swordoffline

# Start the collection in the background, as a direct child so cleanup
# can kill it. swordrun exits 3 when the workload races — expected;
# anything else is a real failure.
"$tmp/swordrun" -w c_jacobi -tool sword -live-flush -logdir "$tmp/trace" >/dev/null 2>&1 &
runner=$!

# Attach the watcher as soon as the trace directory exists. It tails the
# growing trace and exits once the run's end marker lands (exit 3 =
# races found live).
for _ in $(seq 1 100); do
    [ -d "$tmp/trace" ] && break
    sleep 0.05
done
[ -d "$tmp/trace" ] || { echo "stream-smoke: collection never created $tmp/trace" >&2; exit 1; }
# In the background too, so an interrupt reaches the trap at once.
"$tmp/swordwatch" -logdir "$tmp/trace" >"$tmp/watch.out" &
watcher=$!
wait "$watcher" || [ $? -eq 3 ]
watcher=

rc=0
wait "$runner" || rc=$?
runner=
[ "$rc" -eq 0 ] || [ "$rc" -eq 3 ] || {
    echo "stream-smoke: swordrun failed with exit $rc" >&2; exit 1; }

# The post-mortem baseline on the very same trace.
"$tmp/swordoffline" -logdir "$tmp/trace" >"$tmp/offline.out" || [ $? -eq 3 ]

grep '^race:' "$tmp/watch.out" | sort >"$tmp/live.races"
grep '^race:' "$tmp/offline.out" | sort >"$tmp/offline.races"
[ -s "$tmp/live.races" ] || {
    echo "stream-smoke: live watcher found no races" >&2; cat "$tmp/watch.out" >&2; exit 1; }
if ! cmp -s "$tmp/live.races" "$tmp/offline.races"; then
    echo "stream-smoke: live race set differs from post-mortem swordoffline" >&2
    diff "$tmp/live.races" "$tmp/offline.races" >&2 || true
    exit 1
fi

n=$(wc -l <"$tmp/live.races")
echo "stream-smoke: ok ($n race(s) agree between the live watcher and post-mortem analysis)"
