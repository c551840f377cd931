#!/usr/bin/env bash
# router_smoke.sh — end-to-end router-tier smoke over two real shard
# groups: shard s0 is a 3-node quorum group (sync-ack primary, two
# watchdog followers), shard s1 a single WAL-backed daemon, with a
# gridbwrouter consistent-hashing 4×4 access-point pairs across them.
#
#   1. all daemons and the router run race-enabled as separate processes
#   2. gridbwload drives the ROUTER with -history armed: same-shard pairs
#      proxy straight through, cross-shard pairs commit via the HTTP
#      two-phase hold protocol
#   3. s0's primary is SIGKILLed mid-plateau: the router's failover
#      client must re-converge on the majority-promoted follower and the
#      load gate must stay green
#   4. gridbwctl check replays the client history against BOTH surviving
#      WALs (promoted follower's + s1's, in ring order): per-shard
#      no-oversubscription and idempotency on decoded local IDs, every
#      cross-shard hold committed on both owners or neither, every
#      cross_shard-acked admission backed by a committed ingress hold
#
# The script exits nonzero on a failed promotion, a promoted follower that
# is not at fencing epoch 2, a second s0 follower claiming primary two
# seconds later (split brain), a losing s0 follower whose vote record
# (voted_epoch) still moves once it follows the winner, a bare promote of
# the losing s0 follower answered anything but 409, a tripped load gate,
# any checker violation, or
# a run that exercised no cross-shard pair (which would mean the ring or
# the marker plumbing is broken). It is the one real-process smoke of a
# quorum group failing over.
set -euo pipefail
cd "$(dirname "$0")/.."

P_ADDR=127.0.0.1:18190
F1_ADDR=127.0.0.1:18191
F2_ADDR=127.0.0.1:18192
S1_ADDR=127.0.0.1:18193
RT_ADDR=127.0.0.1:18194
P="http://${P_ADDR}"
F1="http://${F1_ADDR}"
F2="http://${F2_ADDR}"
S1="http://${S1_ADDR}"
RT="http://${RT_ADDR}"

CAPS=1GB/s,1GB/s,1GB/s,1GB/s

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

echo "== build (daemon and router race-enabled) =="
go build -race -o "${WORK}/gridbwd" ./cmd/gridbwd
go build -race -o "${WORK}/gridbwrouter" ./cmd/gridbwrouter
go build -o "${WORK}/gridbwload" ./cmd/gridbwload
go build -o "${WORK}/gridbwctl" ./cmd/gridbwctl

echo "== start shard s0: 3-node quorum group =="
"${WORK}/gridbwd" -addr "${P_ADDR}" -wal "${WORK}/pwal" \
	-ingress "${CAPS}" -egress "${CAPS}" \
	-repl-id "${P}" -peers "${F1},${F2}" \
	-repl-sync=quorum -repl-sync-timeout 5s \
	>"${WORK}/p.log" 2>&1 &
PRIMARY_PID=$!
PIDS+=("${PRIMARY_PID}")
wait_healthz "${P}"

"${WORK}/gridbwd" -addr "${F1_ADDR}" -wal "${WORK}/f1wal" \
	-ingress "${CAPS}" -egress "${CAPS}" \
	-follow "${P}" -repl-id "${F1}" \
	-watch -watch-interval 250ms -watch-misses 2 -peers "${P},${F2}" \
	>"${WORK}/f1.log" 2>&1 &
PIDS+=($!)

"${WORK}/gridbwd" -addr "${F2_ADDR}" -wal "${WORK}/f2wal" \
	-ingress "${CAPS}" -egress "${CAPS}" \
	-follow "${P}" -repl-id "${F2}" \
	-watch -watch-interval 250ms -watch-misses 10 -peers "${P},${F1}" \
	>"${WORK}/f2.log" 2>&1 &
PIDS+=($!)

echo "== start shard s1: single daemon =="
"${WORK}/gridbwd" -addr "${S1_ADDR}" -wal "${WORK}/s1wal" \
	-ingress "${CAPS}" -egress "${CAPS}" \
	>"${WORK}/s1.log" 2>&1 &
PIDS+=($!)

wait_healthz "${F1}"
wait_healthz "${F2}"
wait_healthz "${S1}"

echo "== start the router over both shard groups =="
"${WORK}/gridbwrouter" -addr "${RT_ADDR}" \
	-shard "s0=${P},${F1},${F2}" -shard "s1=${S1}" \
	-timeout 2s \
	>"${WORK}/rt.log" 2>&1 &
PIDS+=($!)
wait_healthz "${RT}"

echo "== start the armed load run through the router =="
"${WORK}/gridbwload" -target "${RT}" \
	-vus 200 -rate 80 -ramp-up 1s -duration 12s -ramp-down 1s \
	-ingress-points 4 -egress-points 4 \
	-timeout 2s -retries 8 \
	-history "${WORK}/history.jsonl" \
	-output "${WORK}/router_smoke.json" \
	-fail-on 'errors<30%,p50<1s,drops<=10%' \
	>"${WORK}/load.log" 2>&1 &
LOAD_PID=$!

sleep 4
echo "== SIGKILL shard s0's primary mid-plateau =="
kill -9 "${PRIMARY_PID}"

NEW=""
NEW_WAL=""
for _ in $(seq 1 150); do
	if repl_status "${F1}" | grep -q '"role":"primary"'; then
		NEW="${F1}" NEW_WAL="${WORK}/f1wal"
		break
	fi
	if repl_status "${F2}" | grep -q '"role":"primary"'; then
		NEW="${F2}" NEW_WAL="${WORK}/f2wal"
		break
	fi
	sleep 0.1
done
if [ -z "${NEW}" ]; then
	echo "no s0 follower promoted within 15s of the kill" >&2
	tail -20 "${WORK}/f1.log" "${WORK}/f2.log" >&2
	exit 1
fi
echo "s0 majority-promoted: ${NEW}"

if ! repl_status "${NEW}" | grep -q '"epoch":2'; then
	echo "promoted s0 follower is not at fencing epoch 2:" >&2
	repl_status "${NEW}" >&2
	exit 1
fi

# Exactly one lineage in s0: the follower that lost (or never ran) the
# election is still a follower once its own watchdog has had its turn ...
OTHER="${F2}"
if [ "${NEW}" = "${F2}" ]; then
	OTHER="${F1}"
fi
sleep 2
if repl_status "${OTHER}" | grep -q '"role":"primary"'; then
	echo "split brain: both s0 followers claim primary" >&2
	repl_status "${F1}" >&2
	repl_status "${F2}" >&2
	exit 1
fi
# ... and stops campaigning once it follows the winner: its watchdog probes
# the primary its pull loop follows, not the dead -follow URL, so no more
# vote rounds run and its durable vote record holds still ...
voted_epoch() {
	repl_status "$1" | python3 -c 'import json, sys; print(json.load(sys.stdin).get("voted_epoch", 0))'
}
for _ in $(seq 1 100); do
	repl_status "${OTHER}" | grep -q "\"source\":\"${NEW}\"" && break
	sleep 0.1
done
V0="$(voted_epoch "${OTHER}")"
sleep 2
V1="$(voted_epoch "${OTHER}")"
if [ "${V0}" != "${V1}" ]; then
	echo "the losing s0 follower kept voting for itself: voted_epoch ${V0} -> ${V1} in 2s" >&2
	repl_status "${OTHER}" >&2
	exit 1
fi
echo "losing s0 follower settled: voted_epoch ${V1} held for 2s"
# ... and stays one when an operator leans on it: its bare promote runs the
# same vote round, the winner is a live primary and votes no, 409.
CODE="$(curl -s -o "${WORK}/bare_promote.json" -w '%{http_code}' -X POST "${OTHER}/v1/replication/promote")"
if [ "${CODE}" != "409" ] || repl_status "${OTHER}" | grep -q '"role":"primary"'; then
	echo "split brain: bare promote of the losing s0 follower answered HTTP ${CODE}, want a 409 refusal:" >&2
	cat "${WORK}/bare_promote.json" >&2
	exit 1
fi

if ! wait "${LOAD_PID}"; then
	echo "gridbwload gate violated across the kill/promote cycle:" >&2
	tail -20 "${WORK}/load.log" >&2
	exit 1
fi
tail -5 "${WORK}/load.log"

if ! grep -q '"routed":"cross_shard"' "${WORK}/history.jsonl"; then
	echo "no cross-shard admission in the whole run: ring or marker plumbing is broken" >&2
	exit 1
fi
echo "cross-shard admissions observed: $(grep -c '"routed":"cross_shard"' "${WORK}/history.jsonl")"

echo "== replay the client history against both surviving WALs =="
# Ring order = the router's -shard order: s0 (the promoted follower's
# replicated WAL is its history of record), then s1.
"${WORK}/gridbwctl" check -history "${WORK}/history.jsonl" \
	-wal "${NEW_WAL}" -wal "${WORK}/s1wal" \
	-ingress "${CAPS}" -egress "${CAPS}"

echo "router smoke OK: one majority-gated promotion to epoch 2, gate green through the failover, multi-WAL invariants clean"
