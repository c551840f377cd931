#!/usr/bin/env bash
# chaos_smoke.sh — end-to-end chaos smoke over a real 3-node quorum
# group with every boundary perturbed at once:
#
#   1. primary on :18280 with -repl-sync=quorum; follower f1 pulls its
#      replication stream THROUGH a gridbwctl chaos TCP proxy and runs with
#      -chaos-disk armed (seeded fsync failures and short writes on its
#      own WAL); follower f2 pulls through a second, healthy proxy
#   2. gridbwload drives durable submissions through a third chaos proxy
#      in front of the primary, recording every client-observed
#      operation with -history
#   3. mid-plateau the f1 replication link gets latency+jitter, then a
#      full partition, then heals — all via the gridbwctl chaos admin API
#   4. while the primary still runs, gridbwctl tail reads its live WAL
#      directory: the output must be non-empty JSON lines, one event each
#   5. after the run, gridbwctl check replays the client history against the
#      primary's WAL: every "replicated" ack must be in the log, no
#      idempotency key admitted twice, no capacity oversubscribed
#
# The script exits nonzero if the load gate trips or the checker finds
# any invariant violation.
set -euo pipefail
cd "$(dirname "$0")/.."

P_ADDR=127.0.0.1:18280
F1_ADDR=127.0.0.1:18281
F2_ADDR=127.0.0.1:18282
CLIENT_LINK=127.0.0.1:18283
F1_LINK=127.0.0.1:18284
F2_LINK=127.0.0.1:18285
CHAOS_ADMIN=127.0.0.1:18286
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

chaos_rules() { # link, json rules
	curl -fsS -X PUT -d "$2" "http://${CHAOS_ADMIN}/v1/links/$1/rules" >/dev/null
}

echo "== build (daemon race-enabled) =="
go build -race -o "${WORK}/gridbwd" ./cmd/gridbwd
go build -o "${WORK}/gridbwload" ./cmd/gridbwload
go build -o "${WORK}/gridbwctl" ./cmd/gridbwctl

echo "== start the chaos proxies =="
"${WORK}/gridbwctl" chaos -admin "${CHAOS_ADMIN}" \
	-link "client=>${CLIENT_LINK}=>${P_ADDR}" \
	-link "pull-f1=>${F1_LINK}=>${P_ADDR}" \
	-link "pull-f2=>${F2_LINK}=>${P_ADDR}" \
	>"${WORK}/chaos.log" 2>&1 &
PIDS+=($!)
for _ in $(seq 1 50); do
	curl -fsS "http://${CHAOS_ADMIN}/v1/links" >/dev/null 2>&1 && break
	sleep 0.1
done

echo "== start the 3-node group (f1 with seeded disk faults) =="
"${WORK}/gridbwd" -addr "${P_ADDR}" -wal "${WORK}/pwal" \
	-ingress 1GB/s,1GB/s -egress 1GB/s,1GB/s \
	-repl-id "${P}" -peers "${F1},${F2}" \
	-repl-sync=quorum -repl-sync-timeout 5s \
	>"${WORK}/p.log" 2>&1 &
PIDS+=($!)
wait_healthz "${P}"

"${WORK}/gridbwd" -addr "${F1_ADDR}" -wal "${WORK}/f1wal" \
	-ingress 1GB/s,1GB/s -egress 1GB/s,1GB/s \
	-follow "http://${F1_LINK}" -repl-id "${F1}" \
	-chaos-disk "seed=7,fsync=0.02,short=0.01" \
	>"${WORK}/f1.log" 2>&1 &
PIDS+=($!)

"${WORK}/gridbwd" -addr "${F2_ADDR}" -wal "${WORK}/f2wal" \
	-ingress 1GB/s,1GB/s -egress 1GB/s,1GB/s \
	-follow "http://${F2_LINK}" -repl-id "${F2}" \
	>"${WORK}/f2.log" 2>&1 &
PIDS+=($!)

wait_healthz "${F1}"
wait_healthz "${F2}"

echo "== start the armed durable load run through the client chaos link =="
"${WORK}/gridbwload" -target "http://${CLIENT_LINK}" \
	-vus 200 -rate 50 -ramp-up 1s -duration 12s -ramp-down 1s \
	-timeout 6s -retries 8 -durable \
	-history "${WORK}/history.jsonl" \
	-output "${WORK}/chaos_smoke.json" \
	-fail-on 'errors<30%,drops<=10%' \
	>"${WORK}/load.log" 2>&1 &
LOAD_PID=$!

sleep 3
echo "== perturb the f1 replication link: latency, then partition, then heal =="
# latency/jitter are Go time.Duration values: nanoseconds (20ms + 30ms).
chaos_rules pull-f1 '{"latency":20000000,"jitter":30000000}'
sleep 3
chaos_rules pull-f1 '{"cut_to_target":true,"cut_to_client":true}'
sleep 3
curl -fsS -X POST "http://${CHAOS_ADMIN}/v1/heal" >/dev/null

if ! wait "${LOAD_PID}"; then
	echo "gridbwload gate violated under chaos:" >&2
	tail -20 "${WORK}/load.log" >&2
	exit 1
fi
tail -5 "${WORK}/load.log"

echo "== gridbwctl tail on the live primary's WAL directory =="
"${WORK}/gridbwctl" tail -wal "${WORK}/pwal" >"${WORK}/tail.jsonl"
if ! python3 - "${WORK}/tail.jsonl" <<'PY'
import json, sys
lines = open(sys.argv[1]).read().splitlines()
events = [json.loads(l) for l in lines]
assert events, "gridbwctl tail printed nothing"
assert all(isinstance(e, dict) and e.get("kind") for e in events), "an event without a kind"
print(f"gridbwctl tail: {len(events)} events, {sum(e['kind'] == 'accept' for e in events)} accepts")
PY
then
	echo "gridbwctl tail output is empty or not JSON lines:" >&2
	head -5 "${WORK}/tail.jsonl" >&2
	exit 1
fi

echo "== stop the group and run the invariant checker =="
kill ${PIDS[@]+"${PIDS[@]}"} 2>/dev/null || true
wait 2>/dev/null || true
PIDS=()

if ! "${WORK}/gridbwctl" check -history "${WORK}/history.jsonl" -wal "${WORK}/pwal" \
	-ingress 1GB/s,1GB/s -egress 1GB/s,1GB/s; then
	echo "invariant checker found violations; daemon logs:" >&2
	tail -20 "${WORK}/p.log" "${WORK}/f1.log" >&2
	exit 1
fi

echo "chaos smoke OK: durable load through partitions and disk faults, client history clean"
