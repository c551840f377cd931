#!/usr/bin/env bash
# stages.sh — snapshot the stage budget of a submit into BENCH_stages.json.
#
# Usage:
#   scripts/stages.sh COLUMN
#
# Runs the stage benchmarks (BenchmarkStages: decode, the global section,
# the idempotency lookup, admit.At on a dense and on a sparse pair, the WAL
# record's encode, WAL append, the stream's read of the record, the
# record's decode, encode; the loopback floor and the call plumbing over
# net.Pipe and over loopback) and the wholes they add up to
# (RouterDirectSubmit, RouterSameShardSubmit, RouterCrossShardSubmit,
# ReplSyncAckAdmit) in one go
# through scripts/bench.sh, and merges the run into BENCH_stages.json as the
# column named COLUMN (e.g. "parent" on a checkout of the parent commit,
# "change" on the change), replacing a column of that name. Each column
# carries, per path, the loopback floor, the call plumbing and the named
# stages it passes through, the measured whole and the remainder: what none
# of them accounts for. Sums and wholes of a column come from the same run.
#
# Environment: BENCHTIME (default 2000x) and COUNT (default 3), as for
# scripts/bench.sh. The derivation lives in stages_test.go, whose
# TestStagesSnapshot also checks the committed file; it gates no timing.
set -euo pipefail
cd "$(dirname "$0")/.."

COLUMN="${1:?usage: scripts/stages.sh COLUMN}"
REGEX='BenchmarkStages|BenchmarkRouterDirectSubmit|BenchmarkRouterSameShardSubmit|BenchmarkRouterCrossShardSubmit|BenchmarkReplSyncAckAdmit'
RUN="stages-run-${COLUMN}"
trap 'rm -f "BENCH_${RUN}.json"' EXIT

BENCHTIME="${BENCHTIME:-2000x}" COUNT="${COUNT:-3}" scripts/bench.sh "${RUN}" "${REGEX}"
go test -count=1 -run '^TestStagesSnapshot$' . -args \
	-stages-column "${COLUMN}" -stages-from "BENCH_${RUN}.json"
