#!/bin/sh
# serve-smoke: end-to-end check of the always-on analysis service.
# Collects a racy workload's trace, starts swordserve, uploads the trace
# over HTTP with curl, polls the job to completion, and asserts the
# service's text report carries the same race set as single-process
# swordoffline on the same trace. Finishes with a SIGTERM drain and
# asserts the server exits cleanly. Run via `make serve-smoke` (part of
# `make check`).
set -eu

GO=${GO:-go}
. "$(dirname "$0")/stop.sh"
tmp=$(mktemp -d "${TMPDIR:-/tmp}/sword-serve-smoke.XXXXXX")
# Whatever way the script ends, swordserve does not outlive it.
server=
cleanup() {
    stop $server
    rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 1' HUP INT TERM

$GO build -o "$tmp/swordrun" ./cmd/swordrun
$GO build -o "$tmp/swordoffline" ./cmd/swordoffline
$GO build -o "$tmp/swordserve" ./cmd/swordserve

# Collect the trace. swordrun exits 3 when the workload races — expected.
"$tmp/swordrun" -w c_jacobi -tool sword -logdir "$tmp/trace" >/dev/null || [ $? -eq 3 ]

# The offline baseline. Exit 3 = races found.
"$tmp/swordoffline" -logdir "$tmp/trace" >"$tmp/single.out" || [ $? -eq 3 ]
grep '^race:' "$tmp/single.out" | sort >"$tmp/single.races"

# Start the service on an ephemeral port; it prints the bound address
# once the listener is live.
"$tmp/swordserve" -listen 127.0.0.1:0 -datadir "$tmp/data" >"$tmp/serve.out" 2>&1 &
server=$!
addr=
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^swordserve: listening on //p' "$tmp/serve.out")
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "serve-smoke: server never came up" >&2; cat "$tmp/serve.out" >&2; exit 1; }
base="http://$addr/api/v1"

# Upload every trace file as one multipart job; curl names each part
# after the file, which is exactly the layout the server requires.
set --
for f in "$tmp/trace"/sword_*; do
    set -- "$@" -F "file=@$f"
done
curl -sf -H 'X-Sword-Tenant: smoke' "$@" "$base/jobs" >"$tmp/job.json"
id=$(sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p' "$tmp/job.json")
[ -n "$id" ] || { echo "serve-smoke: upload returned no job id" >&2; cat "$tmp/job.json" >&2; exit 1; }

# Poll the job to a terminal state.
state=
for _ in $(seq 1 100); do
    state=$(curl -sf "$base/jobs/$id" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')
    case "$state" in done|partial|failed|canceled) break ;; esac
    sleep 0.1
done
[ "$state" = done ] || { echo "serve-smoke: job ended in state '$state'" >&2; curl -s "$base/jobs/$id" >&2; exit 1; }

# The service's text report must carry the offline race set.
curl -sf "$base/jobs/$id/report?format=text" >"$tmp/report.txt"
grep '^race:' "$tmp/report.txt" | sort >"$tmp/served.races"
if ! cmp -s "$tmp/single.races" "$tmp/served.races"; then
    echo "serve-smoke: service race set differs from swordoffline" >&2
    diff "$tmp/single.races" "$tmp/served.races" >&2 || true
    exit 1
fi

# SIGTERM: the server must drain and exit 0.
kill -TERM "$server"
if ! wait "$server"; then
    echo "serve-smoke: server did not drain cleanly" >&2; cat "$tmp/serve.out" >&2; exit 1
fi
server=
grep -q '^swordserve: drained$' "$tmp/serve.out" || {
    echo "serve-smoke: no drain confirmation" >&2; cat "$tmp/serve.out" >&2; exit 1; }

n=$(wc -l <"$tmp/single.races")
echo "serve-smoke: ok ($n race(s) agree between swordoffline and the service; clean drain)"
