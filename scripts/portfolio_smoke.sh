#!/bin/sh
# portfolio_smoke.sh — end-to-end smoke test of the portfolio racing
# layer: race three backends on a small design through the mctsplace
# CLI, assert the winner's placement is legal (zero macro overlap) and
# the leaderboard fields land in the run summary, then submit the same
# race as a daemon "race" job and check the result, the race.json
# leaderboard (every raced backend converged), and the SSE incumbent
# stream agree. (Both entry points run the race through
# serve.RunDesign, so CLI/daemon equality holds by construction and is
# not re-checked here.)
#
# Usage: scripts/portfolio_smoke.sh
set -eu

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
log="$workdir/placed.log"
pid=""
trap '[ -n "$pid" ] && kill "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

lineup="mincut,maskplace,se"

echo "== build"
go build -o "$workdir/mctsplace" ./cmd/mctsplace
go build -o "$workdir/placed" ./cmd/placed

echo "== CLI race ($lineup)"
"$workdir/mctsplace" -bench ibm01 -scale 0.01 -portfolio "$lineup" \
    -effort 0.05 -seed 7 -zeta 8 -episodes 8 -gamma 2 -workers 1 \
    -channels 4 -resblocks 1 \
    -run-summary "$workdir/cli.json" >"$workdir/cli.out" 2>/dev/null

field() { # json-file field → raw value
    grep -o "\"$2\": *[^,}]*" "$1" | head -n 1 | sed "s/\"$2\": *//; s/\"//g"
}

winner=$(field "$workdir/cli.json" winner)
cli_hpwl=$(field "$workdir/cli.json" hpwl)
overlap=$(field "$workdir/cli.json" macro_overlap)
[ -n "$winner" ] || { echo "portfolio_smoke: no winner in run summary" >&2; cat "$workdir/cli.json" >&2; exit 1; }
[ -n "$cli_hpwl" ] || { echo "portfolio_smoke: no hpwl in run summary" >&2; exit 1; }
grep -q "winner: $winner" "$workdir/cli.out" \
    || { echo "portfolio_smoke: CLI output missing winner line" >&2; cat "$workdir/cli.out" >&2; exit 1; }
# Legality: the winning placement must carry (numerically) zero macro
# overlap — the conformance suite's hard invariant, re-checked here on
# the real CLI artifact.
awk -v ov="$overlap" 'BEGIN { exit !(ov + 0 <= 1e-6) }' \
    || { echo "portfolio_smoke: winner $winner has macro overlap $overlap" >&2; exit 1; }
echo "   winner $winner hpwl=$cli_hpwl overlap=$overlap"

echo "== launch daemon"
"$workdir/placed" -addr 127.0.0.1:0 -workers 1 -queue 4 -dir "$workdir/jobs" >"$log" 2>&1 &
pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's#^placed: listening on http://\([^ ]*\) .*#\1#p' "$log" | head -n 1)
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "portfolio_smoke: daemon died early:" >&2; cat "$log" >&2; exit 1; }
    sleep 0.2
done
[ -n "$addr" ] || { echo "portfolio_smoke: no listen address in output:" >&2; cat "$log" >&2; exit 1; }
echo "   bound to $addr"

echo "== daemon race job"
spec='{"bench":"ibm01","scale":0.01,"race":["mincut","maskplace","se"],"effort":0.05,"seed":7,"zeta":8,"episodes":8,"gamma":2,"workers":1,"channels":4,"resblocks":1}'
curl -sf -X POST "http://$addr/v1/jobs" -d "$spec" >"$workdir/submit.json" \
    || { echo "portfolio_smoke: submit failed" >&2; exit 1; }
id=$(field "$workdir/submit.json" id)
[ -n "$id" ] || { echo "portfolio_smoke: no job id" >&2; cat "$workdir/submit.json" >&2; exit 1; }

st=""
for _ in $(seq 1 600); do
    curl -sf "http://$addr/v1/jobs/$id" >"$workdir/status.json" || true
    st=$(field "$workdir/status.json" state)
    [ "$st" = "done" ] && break
    case "$st" in failed|cancelled) break ;; esac
    sleep 0.2
done
[ "$st" = "done" ] || { echo "portfolio_smoke: job $id reached '$st', wanted done" >&2; cat "$workdir/status.json" >&2; exit 1; }

result="$workdir/jobs/$id/result.json"
board="$workdir/jobs/$id/race.json"
[ -f "$result" ] || { echo "portfolio_smoke: $result not written" >&2; exit 1; }
[ -f "$board" ] || { echo "portfolio_smoke: leaderboard $board not written" >&2; exit 1; }

daemon_winner=$(field "$result" winner)
daemon_hpwl=$(field "$result" hpwl)
[ -n "$daemon_winner" ] || { echo "portfolio_smoke: no winner in $result" >&2; cat "$result" >&2; exit 1; }

echo "== leaderboard JSON covers the full lineup"
board_winner=$(field "$board" winner)
[ "$board_winner" = "$daemon_winner" ] \
    || { echo "portfolio_smoke: race.json winner $board_winner != result winner $daemon_winner" >&2; cat "$board" >&2; exit 1; }
for b in mincut maskplace se; do
    grep -q "\"backend\": *\"$b\"" "$board" \
        || { echo "portfolio_smoke: race.json missing backend $b" >&2; cat "$board" >&2; exit 1; }
done

echo "== every raced backend converged"
outcomes=$(sed -n '/"outcomes": \[/,/"incumbents":/p' "$board")
rows=$(echo "$outcomes" | grep -c '"backend":' || true)
conv=$(echo "$outcomes" | grep -c '"converged": true' || true)
[ "$rows" -eq 3 ] && [ "$conv" -eq 3 ] \
    || { echo "portfolio_smoke: $conv of $rows race.json outcomes converged, want 3 of 3" >&2; cat "$board" >&2; exit 1; }
echo "   $conv of $rows backends converged"

echo "== SSE stream carries incumbent events"
events=$(curl -sfN "http://$addr/v1/jobs/$id/events")
echo "$events" | grep -q '"type":"incumbent"' \
    || { echo "portfolio_smoke: no incumbent events in stream:" >&2; echo "$events" >&2; exit 1; }
echo "$events" | grep -q '"type":"state","data":"done"' \
    || { echo "portfolio_smoke: event stream missing terminal state" >&2; exit 1; }

echo "   winner $daemon_winner hpwl=$daemon_hpwl"
echo "portfolio_smoke: OK"
