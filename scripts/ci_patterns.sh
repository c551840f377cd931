#!/usr/bin/env bash
# ci_patterns.sh — check that every -run and -fuzz pattern a `go test` line of
# .github/workflows/ci.yml selects by names at least one test, benchmark or
# fuzz target in each package that line lists (`go test -list`), so a renamed
# test cannot turn a CI step into a vacuous `ok`. Patterns that select
# nothing on purpose (NONE, ^$) are skipped.
set -euo pipefail
cd "$(dirname "$0")/.."

python3 - .github/workflows/ci.yml <<'PY'
import re, shlex, subprocess, sys

text = open(sys.argv[1]).read()
bad, checked = [], 0
for cmd in re.split(r"&&|\n", text):
    if "go test" not in cmd:
        continue
    words = shlex.split(cmd[cmd.index("go test"):])[2:]
    patterns, pkgs = [], []
    i = 0
    while i < len(words):
        w = words[i]
        for flag in ("-run", "-fuzz"):
            if w == flag and i + 1 < len(words):
                patterns.append(words[i + 1])
                i += 1
            elif w.startswith(flag + "="):
                patterns.append(w[len(flag) + 1:])
        if w.startswith("./") or w == ".":
            pkgs.append(w)
        i += 1
    for pat in patterns:
        if pat in ("NONE", "^$") or not pkgs:
            continue
        for pkg in pkgs:
            out = subprocess.run(["go", "test", "-list", pat, pkg], capture_output=True, text=True)
            names = [l for l in out.stdout.splitlines() if l and not l.startswith(("ok ", "ok\t", "?"))]
            checked += 1
            if out.returncode != 0 or not names:
                bad.append(f"{pat!r} in {pkg}: {out.stderr.strip() or 'matches nothing'}")
for b in bad:
    print("ci_patterns: " + b, file=sys.stderr)
print(f"ci_patterns: {checked} pattern/package pairs checked, {len(bad)} select nothing")
sys.exit(1 if bad else 0)
PY
