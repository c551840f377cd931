#!/usr/bin/env bash
# bench.sh — run the server-path benchmarks and normalize the output into
# a committed perf-trajectory snapshot, BENCH_<name>.json.
#
# Usage:
#   scripts/bench.sh [name] [go-bench-regex]
#
#   name    suffix of the output file (default: server → BENCH_server.json)
#   regex   benchmark selector (default: the server/client admission path)
#
# Environment:
#   BENCHTIME  -benchtime value (default 200x: iteration-pinned, so the
#              run costs seconds and ns/op is comparable across runs)
#   COUNT      -count value; the snapshot keeps the minimum ns/op across
#              repetitions, the standard noise floor for trend lines
#
# The JSON shape is stable and diff-friendly:
#   {"schema":1,"go":"go1.22.x","benchtime":"200x",
#    "machine":{"goos":...,"goarch":...,"cpu":...,"num_cpu":N,"gomaxprocs":N},
#    "benchmarks":[
#     {"name":"ServerAdmit","ns_per_op":...,"b_per_op":...,"allocs_per_op":...}]}
#
# "machine" is the box the numbers came from: goos, goarch and the CPU
# model as `go test` prints them, the online CPU count, and the GOMAXPROCS
# the benchmarks ran with (the -N suffix of their names; 1 when absent).
#
# Benchmarks that report a custom p99-ns/op metric (the sync-ack admission
# path) get an extra "p99_ns_per_op" field, taken from the same repetition
# as the minimum ns/op.
#
# Compare snapshots across commits to see the trajectory; CI re-runs this
# script to make sure it still produces a well-formed snapshot.
set -euo pipefail
cd "$(dirname "$0")/.."

NAME="${1:-server}"
REGEX="${2:-BenchmarkServerAdmit|BenchmarkServerParallelSubmit|BenchmarkServerBatchHTTP|BenchmarkClientSubmitRetry|BenchmarkProfileReserveRelease|BenchmarkProfileMaxUsed|BenchmarkBatchCodec|BenchmarkEventQueue}"
BENCHTIME="${BENCHTIME:-200x}"
COUNT="${COUNT:-3}"
OUT="BENCH_${NAME}.json"

GOVER="$(go env GOVERSION)"
NUMCPU="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)"

go test -run='^$' -bench "${REGEX}" -benchmem -benchtime "${BENCHTIME}" -count "${COUNT}" . |
	tee /dev/stderr |
	awk -v go="${GOVER}" -v benchtime="${BENCHTIME}" -v numcpu="${NUMCPU}" '
	/^goos: / { goos = $2 }
	/^goarch: / { goarch = $2 }
	/^cpu: / { cpu = $0; sub(/^cpu: /, "", cpu); gsub(/["\\]/, "", cpu) }
	/^Benchmark/ && NF >= 7 {
		name = $1
		sub(/^Benchmark/, "", name)
		procs = 1
		if (match(name, /-[0-9]+$/)) procs = substr(name, RSTART + 1) + 0
		sub(/-[0-9]+$/, "", name)
		# Walk unit labels instead of fixed columns: benchmarks may emit
		# custom metrics (e.g. submissions/op) between the standard ones.
		ns = ""; b = ""; allocs = ""; p99 = ""
		for (i = 2; i < NF; i++) {
			if ($(i + 1) == "ns/op") ns = $i
			else if ($(i + 1) == "B/op") b = $i
			else if ($(i + 1) == "allocs/op") allocs = $i
			else if ($(i + 1) == "p99-ns/op") p99 = $i
		}
		if (ns == "" || b == "" || allocs == "") next
		# Keep the minimum ns/op across -count repetitions.
		if (!(name in best) || ns + 0 < best[name] + 0) {
			best[name] = ns; bytes[name] = b; alloc[name] = allocs; tail[name] = p99
			if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
		}
	}
	END {
		printf "{\n  \"schema\": 1,\n  \"go\": \"%s\",\n  \"benchtime\": \"%s\",\n", go, benchtime
		printf "  \"machine\": {\"goos\": \"%s\", \"goarch\": \"%s\", \"cpu\": \"%s\", \"num_cpu\": %d, \"gomaxprocs\": %d},\n", \
			goos, goarch, cpu, numcpu, procs
		printf "  \"benchmarks\": [\n"
		for (i = 1; i <= n; i++) {
			name = order[i]
			extra = ""
			if (tail[name] != "") extra = sprintf(", \"p99_ns_per_op\": %s", tail[name])
			printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"b_per_op\": %s, \"allocs_per_op\": %s%s}%s\n", \
				name, best[name], bytes[name], alloc[name], extra, (i < n ? "," : "")
		}
		printf "  ]\n}\n"
	}' >"${OUT}"

echo "wrote ${OUT}" >&2
