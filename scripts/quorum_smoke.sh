#!/usr/bin/env bash
# quorum_smoke.sh — end-to-end quorum failover smoke over a real 3-node
# group: a sync-ack primary and two WAL-backed followers, all separate
# processes with race-enabled daemons, under an armed open-loop load run.
#
#   1. primary on :18180 with -peers -repl-sync=quorum (admissions park
#      until a group majority holds the WAL frame)
#   2. both followers run the in-process watchdog; their -watch-misses
#      are staggered (2 vs 10) so the fast one elects first and the slow
#      one only gets a turn if the fast one is vote-denied for being the
#      less caught-up candidate — whichever wins, exactly one lineage
#   3. gridbwload drives all three endpoints with -fail-on armed while
#      the primary is SIGKILLed mid-plateau: the gate stays green only
#      if the client re-converges on the majority-promoted follower
#
# The script exits nonzero if no follower promotes, if both do (split
# brain), if the promoted follower is not at epoch 2, if a bare
# `curl -X POST …/v1/replication/promote` of the losing follower is
# answered anything but 409 (the election sits with the daemon, so no
# caller walks around it), or if the load run's gate trips.
set -euo pipefail
cd "$(dirname "$0")/.."

P_ADDR=127.0.0.1:18180
F1_ADDR=127.0.0.1:18181
F2_ADDR=127.0.0.1:18182
P="http://${P_ADDR}"
F1="http://${F1_ADDR}"
F2="http://${F2_ADDR}"

WORK="$(mktemp -d)"
PIDS=()
cleanup() {
	kill ${PIDS[@]+"${PIDS[@]}"} 2>/dev/null || true
	wait 2>/dev/null || true
	rm -rf "${WORK}"
}
trap cleanup EXIT

wait_healthz() {
	for _ in $(seq 1 100); do
		curl -fsS "$1/v1/healthz" >/dev/null 2>&1 && return 0
		sleep 0.1
	done
	echo "timeout waiting for $1/v1/healthz" >&2
	return 1
}

repl_status() {
	curl -fsS "$1/v1/replication/status" 2>/dev/null || true
}

echo "== build (daemon race-enabled) =="
go build -race -o "${WORK}/gridbwd" ./cmd/gridbwd
go build -o "${WORK}/gridbwload" ./cmd/gridbwload

echo "== start the 3-node group =="
"${WORK}/gridbwd" -addr "${P_ADDR}" -wal "${WORK}/pwal" \
	-ingress 1GB/s,1GB/s -egress 1GB/s,1GB/s \
	-repl-id "${P}" -peers "${F1},${F2}" \
	-repl-sync=quorum -repl-sync-timeout 5s \
	>"${WORK}/p.log" 2>&1 &
PRIMARY_PID=$!
PIDS+=("${PRIMARY_PID}")
wait_healthz "${P}"

"${WORK}/gridbwd" -addr "${F1_ADDR}" -wal "${WORK}/f1wal" \
	-ingress 1GB/s,1GB/s -egress 1GB/s,1GB/s \
	-follow "${P}" -repl-id "${F1}" \
	-watch -watch-interval 250ms -watch-misses 2 -peers "${P},${F2}" \
	>"${WORK}/f1.log" 2>&1 &
PIDS+=($!)

"${WORK}/gridbwd" -addr "${F2_ADDR}" -wal "${WORK}/f2wal" \
	-ingress 1GB/s,1GB/s -egress 1GB/s,1GB/s \
	-follow "${P}" -repl-id "${F2}" \
	-watch -watch-interval 250ms -watch-misses 10 -peers "${P},${F1}" \
	>"${WORK}/f2.log" 2>&1 &
PIDS+=($!)

wait_healthz "${F1}"
wait_healthz "${F2}"

echo "== start the armed load run across all three endpoints =="
"${WORK}/gridbwload" -target "${P},${F1},${F2}" \
	-vus 400 -rate 100 -ramp-up 1s -duration 12s -ramp-down 1s \
	-timeout 2s -retries 8 \
	-output "${WORK}/quorum_smoke.json" \
	-fail-on 'errors<30%,p50<1s,drops<=10%' \
	>"${WORK}/load.log" 2>&1 &
LOAD_PID=$!

sleep 4
echo "== SIGKILL the primary mid-plateau =="
kill -9 "${PRIMARY_PID}"

NEW=""
for _ in $(seq 1 150); do
	for cand in "${F1}" "${F2}"; do
		if repl_status "${cand}" | grep -q '"role":"primary"'; then
			NEW="${cand}"
			break 2
		fi
	done
	sleep 0.1
done
if [ -z "${NEW}" ]; then
	echo "no follower promoted within 15s of the kill" >&2
	tail -20 "${WORK}/f1.log" "${WORK}/f2.log" >&2
	exit 1
fi
echo "majority-promoted: ${NEW}"

if ! repl_status "${NEW}" | grep -q '"epoch":2'; then
	echo "promoted follower is not at fencing epoch 2:" >&2
	repl_status "${NEW}" >&2
	exit 1
fi

# Exactly one lineage: the follower that lost (or never ran) the election
# must still be a follower, held by the majority gate.
OTHER="${F2}"
if [ "${NEW}" = "${F2}" ]; then
	OTHER="${F1}"
fi
sleep 2
if repl_status "${OTHER}" | grep -q '"role":"primary"'; then
	echo "split brain: both followers claim primary" >&2
	repl_status "${F1}" >&2
	repl_status "${F2}" >&2
	exit 1
fi
# ... and stays one when an operator leans on it: the winner is a live
# primary and votes no, so the loser's own round is denied.
CODE="$(curl -s -o "${WORK}/bare_promote.json" -w '%{http_code}' -X POST "${OTHER}/v1/replication/promote")"
if [ "${CODE}" != "409" ] || repl_status "${OTHER}" | grep -q '"role":"primary"'; then
	echo "bare promote of the losing follower answered HTTP ${CODE}, want a 409 refusal:" >&2
	cat "${WORK}/bare_promote.json" >&2
	repl_status "${OTHER}" >&2
	exit 1
fi
echo "bare promote of ${OTHER} refused: $(cat "${WORK}/bare_promote.json")"

if ! wait "${LOAD_PID}"; then
	echo "gridbwload gate violated across the kill/promote cycle:" >&2
	tail -20 "${WORK}/load.log" >&2
	exit 1
fi
tail -5 "${WORK}/load.log"

echo "quorum smoke OK: one majority-gated promotion to epoch 2, load gate green through the failover"
