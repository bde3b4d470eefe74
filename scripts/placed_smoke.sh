#!/bin/sh
# placed_smoke.sh — end-to-end smoke test of the placement daemon:
# launch cmd/placed on an ephemeral port, drive the HTTP API with two
# concurrent jobs (cancel one mid-flight), check the surviving job's
# result lands on disk, then SIGTERM-drain with a job in flight and
# verify the daemon exits 0 with the run summary and the drained job's
# result JSON on disk. (cmd/mctsplace runs the same serve.RunDesign
# runner, so CLI/daemon equality holds by construction and is not
# re-checked here.)
#
# Usage: scripts/placed_smoke.sh
set -eu

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
log="$workdir/placed.log"
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

echo "== build"
go build -o "$workdir/placed" ./cmd/placed

echo "== launch daemon"
"$workdir/placed" -addr 127.0.0.1:0 -workers 1 -queue 8 -dir "$workdir/jobs" \
    -run-summary "$workdir/placed-summary.json" >"$log" 2>&1 &
pid=$!

# The daemon prints its bound address ("placed: listening on
# http://HOST:PORT (...)") as its first output line; poll for it.
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's#^placed: listening on http://\([^ ]*\) .*#\1#p' "$log" | head -n 1)
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "placed_smoke: daemon died early:" >&2; cat "$log" >&2; exit 1; }
    sleep 0.2
done
[ -n "$addr" ] || { echo "placed_smoke: no listen address in output:" >&2; cat "$log" >&2; exit 1; }
echo "   bound to $addr"

curl -sf "http://$addr/healthz" >/dev/null || { echo "placed_smoke: /healthz failed" >&2; exit 1; }

job_field() { # json-file-or-string field → raw value
    grep -o "\"$2\": *[^,}]*" "$1" | head -n 1 | sed "s/\"$2\": *//; s/\"//g"
}

submit() { # spec-json → job id
    curl -sf -X POST "http://$addr/v1/jobs" -d "$1" >"$workdir/submit.json" \
        || { echo "placed_smoke: submit failed for $1" >&2; exit 1; }
    job_field "$workdir/submit.json" id
}

wait_state() { # id want-state
    st=""
    for _ in $(seq 1 600); do
        curl -sf "http://$addr/v1/jobs/$1" >"$workdir/status.json" || true
        st=$(job_field "$workdir/status.json" state)
        [ "$st" = "$2" ] && return 0
        case "$st" in done|failed|cancelled) break ;; esac
        sleep 0.2
    done
    echo "placed_smoke: job $1 reached '$st', wanted '$2'" >&2
    cat "$workdir/status.json" >&2
    return 1
}

# Job A: tiny deterministic spec, run to completion.
# Job B: queued behind A on the single worker, then cancelled.
# Job C: long enough (hundreds of episodes) to be caught mid-run by the
# SIGTERM drain — the anytime flow must still land a complete result.
specA='{"bench":"ibm01","scale":0.01,"zeta":8,"episodes":4,"gamma":2,"channels":4,"resblocks":1,"seed":42,"workers":1}'
specB='{"bench":"ibm06","scale":0.01,"zeta":8,"episodes":40,"gamma":16,"channels":4,"resblocks":1,"seed":43,"workers":1}'
specC='{"bench":"ibm06","scale":0.05,"zeta":16,"episodes":300,"gamma":64,"channels":8,"resblocks":1,"seed":44,"workers":1}'

echo "== submit two jobs, cancel the second"
idA=$(submit "$specA")
idB=$(submit "$specB")
echo "   submitted $idA, $idB"
curl -sf -X DELETE "http://$addr/v1/jobs/$idB" >/dev/null \
    || { echo "placed_smoke: cancel $idB failed" >&2; exit 1; }
wait_state "$idA" done
wait_state "$idB" cancelled
echo "   $idA done, $idB cancelled"

echo "== event stream replays to completion"
events=$(curl -sfN "http://$addr/v1/jobs/$idA/events")
echo "$events" | grep -q '"type":"state","data":"done"' \
    || { echo "placed_smoke: event stream missing terminal state:" >&2; echo "$events" >&2; exit 1; }

echo "== result persisted"
resultA="$workdir/jobs/$idA/result.json"
[ -f "$resultA" ] || { echo "placed_smoke: $resultA not written" >&2; exit 1; }
daemon_hpwl=$(job_field "$resultA" hpwl)
[ -n "$daemon_hpwl" ] || { echo "placed_smoke: no hpwl in $resultA" >&2; exit 1; }
echo "   hpwl $daemon_hpwl"

echo "== metrics cover the job lifecycle"
metrics=$(curl -sf "http://$addr/metrics")
echo "$metrics" | grep -q '^macroplace_serve_jobs_submitted_total 2' \
    || { echo "placed_smoke: submitted counter wrong" >&2; echo "$metrics" | grep serve >&2; exit 1; }
echo "$metrics" | grep -q '^macroplace_serve_jobs_cancelled_total 1' \
    || { echo "placed_smoke: cancelled counter wrong" >&2; echo "$metrics" | grep serve >&2; exit 1; }

echo "== SIGTERM drains an in-flight job and exits 0"
idC=$(submit "$specC")
wait_state "$idC" running
kill -TERM "$pid"
set +e
wait "$pid"
status=$?
set -e
[ "$status" -eq 0 ] || { echo "placed_smoke: daemon exited $status, want 0:" >&2; cat "$log" >&2; exit 1; }
[ -f "$workdir/jobs/$idC/result.json" ] \
    || { echo "placed_smoke: drained job $idC left no result.json" >&2; cat "$log" >&2; exit 1; }
[ -f "$workdir/placed-summary.json" ] \
    || { echo "placed_smoke: daemon run summary not written" >&2; exit 1; }
grep -q '"command": "placed"' "$workdir/placed-summary.json" \
    || { echo "placed_smoke: summary missing command field" >&2; cat "$workdir/placed-summary.json" >&2; exit 1; }
grep -q '"jobs": 3' "$workdir/placed-summary.json" \
    || { echo "placed_smoke: summary missing job counts" >&2; cat "$workdir/placed-summary.json" >&2; exit 1; }

echo "placed_smoke: OK"
