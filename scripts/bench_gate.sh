#!/usr/bin/env bash
# bench_gate.sh — re-run the server-path benchmarks and fail if their
# allocations regressed against the committed perf-trajectory snapshot.
#
# Usage:
#   scripts/bench_gate.sh [name] [go-bench-regex]
#
#   name    snapshot to gate against: BENCH_<name>.json (default: server)
#   regex   forwarded to bench.sh (default: bench.sh's own default)
#
# Environment:
#   ALLOC_SLACK  absolute allocs/op headroom (default 2), on top of 10%.
#                allocs/op is machine-independent, so it is the only side
#                that fails the gate: a reintroduced per-op allocation
#                fails CI everywhere.
#   TOLERANCE    fractional ns/op headroom before a row is marked (default
#                0.60). ns/op is advisory: printed, marked "(advisory)",
#                never fatal. The committed snapshot was taken on one box
#                and the gate runs on another — on a 2-core VM the snapshot's
#                own commit lands outside any tolerance tight enough to mean
#                something — so timing claims go through bench/run.sh's
#                calibrated, paired runs instead.
#   BENCHTIME, COUNT  forwarded to bench.sh (defaults 200x / 3).
#
# Exit status is nonzero on an allocs/op regression, a missing benchmark,
# or a malformed snapshot; the delta table is always printed.
set -euo pipefail
cd "$(dirname "$0")/.."

NAME="${1:-server}"
BASE="BENCH_${NAME}.json"
if [ ! -f "${BASE}" ]; then
	echo "bench_gate: no committed snapshot ${BASE}" >&2
	exit 1
fi

FRESH="gate_${NAME}"
cleanup() { rm -f "BENCH_${FRESH}.json"; }
trap cleanup EXIT
if [ $# -ge 2 ]; then
	scripts/bench.sh "${FRESH}" "$2"
else
	scripts/bench.sh "${FRESH}"
fi

python3 - "${BASE}" "BENCH_${FRESH}.json" <<'EOF'
import json, os, sys

base = {b["name"]: b for b in json.load(open(sys.argv[1]))["benchmarks"]}
fresh = {b["name"]: b for b in json.load(open(sys.argv[2]))["benchmarks"]}
tol = float(os.environ.get("TOLERANCE", "0.60"))
slack = float(os.environ.get("ALLOC_SLACK", "2"))

failures, slow = [], []
print(f"{'benchmark':<36} {'ns/op':>10} {'base':>10} {'delta':>8}  {'allocs':>6} {'base':>6}")
for name, b in base.items():
    f = fresh.get(name)
    if f is None:
        failures.append(f"{name}: present in snapshot, missing from fresh run")
        continue
    ns, bns = f["ns_per_op"], b["ns_per_op"]
    al, bal = f["allocs_per_op"], b["allocs_per_op"]
    delta = (ns - bns) / bns * 100 if bns else 0.0
    mark = ""
    if ns > bns * (1 + tol):
        slow.append(f"{name}: {ns:.0f} ns/op vs committed {bns:.0f} (> +{tol:.0%} tolerance)")
        mark = "  << ns/op (advisory)"
    if al > bal * 1.1 + slack:
        failures.append(f"{name}: {al:.0f} allocs/op vs committed {bal:.0f} (> +10% +{slack:g})")
        mark = "  << allocs/op"
    print(f"{name:<36} {ns:>10.0f} {bns:>10.0f} {delta:>+7.1f}%  {al:>6.0f} {bal:>6.0f}{mark}")

if slow:
    print("\nbench_gate: slower than " + sys.argv[1] + " (advisory, not fatal):", file=sys.stderr)
    for f in slow:
        print("  " + f, file=sys.stderr)
if failures:
    print("\nbench_gate: regressions against " + sys.argv[1] + ":", file=sys.stderr)
    for f in failures:
        print("  " + f, file=sys.stderr)
    sys.exit(1)
print("\nbench_gate: allocs/op within tolerance of " + sys.argv[1])
EOF
