# Sourced by the smoke scripts. stop PID...: end each child still running
# — SIGTERM, then SIGKILL if it has not exited within about two seconds —
# and reap it, so no child outlives the script that started it.
alive() {
    s=$(ps -o stat= -p "$1" 2>/dev/null) || return 1
    case "$s" in Z*) return 1 ;; esac
}
stop() {
    for pid in "$@"; do
        kill -TERM "$pid" 2>/dev/null || true
        i=0
        while alive "$pid" && [ "$i" -lt 20 ]; do
            sleep 0.1
            i=$((i + 1))
        done
        kill -KILL "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    done
}
