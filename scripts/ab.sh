#!/usr/bin/env bash
# Paired A/B of the ledger: a parent revision against the working tree.
#
#   scripts/ab.sh PARENT_REV [--workload W] [--seed N] [--pairs K]
#                 [--seconds S] [--expect-digest-change]
#
# Builds the ledger (benchmark/) twice under target/ab: PARENT_REV's
# committed files, exported with `git archive` (nothing is registered in
# the repository, and an interrupted run leaves no worktree behind), and
# the working tree, each in its own target directory. Then runs K
# (default 10) alternating pairs of `dtcs-benchmark --workload W --seed N
# --seconds S` (defaults: every workload, seed 42, 3 s), the parent first
# in odd pairs and the change first in even ones, so drift in the host's
# speed falls on both sides alike.
#
# Prints a markdown table per workload: for each end-to-end metric of
# BENCHMARK.json, both medians with their q1 / q3, the change in the
# median, and in how many pairs the change did better; then whether the
# two sides' sim_digests are equal. Exits 1 when a digest differs and
# --expect-digest-change was not given, or when a run fails its checks.
set -euo pipefail

usage() {
    echo "usage: $0 PARENT_REV [--workload W] [--seed N] [--pairs K] [--seconds S] [--expect-digest-change]" >&2
    exit 2
}
[ $# -ge 1 ] || usage
rev=$1
shift
workload="" seed=42 pairs=10 seconds=3 expect=0
while [ $# -gt 0 ]; do
    case $1 in
        --workload) workload=${2:?}; shift 2 ;;
        --seed) seed=${2:?}; shift 2 ;;
        --pairs) pairs=${2:?}; shift 2 ;;
        --seconds) seconds=${2:?}; shift 2 ;;
        --expect-digest-change) expect=1; shift ;;
        *) usage ;;
    esac
done

root=$(cd "$(dirname "$0")/.." && pwd)
work=$root/target/ab
commit=$(git -C "$root" rev-parse --verify "$rev^{commit}")
rm -rf "$work/parent-src" "$work/runs"
mkdir -p "$work/parent-src" "$work/runs"
git -C "$root" archive "$commit" | tar -x -C "$work/parent-src"

build() { # source dir, target dir
    CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet --manifest-path "$1/benchmark/Cargo.toml"
}
echo "building parent ${commit:0:12} and the working tree" >&2
build "$work/parent-src" "$work/parent"
build "$root" "$work/change"

args=(--seed "$seed" --seconds "$seconds")
[ -n "$workload" ] && args+=(--workload "$workload")
run() { # side, pair
    "$work/$1/release/dtcs-benchmark" "${args[@]}" >"$work/runs/$1.$2" || true
}
for i in $(seq "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then run parent "$i"; run change "$i"; else run change "$i"; run parent "$i"; fi
    echo "pair $i of $pairs done" >&2
done

python3 - "$work/runs" "$pairs" "$root/BENCHMARK.json" "$expect" "${commit:0:12}" "$seed" <<'EOF'
import json, statistics, sys

runs, pairs, spec, expect, commit, seed = sys.argv[1:]
pairs, expect = int(pairs), expect == "1"
metrics = json.load(open(spec))["end_to_end"]

def read(path):
    """{workload: (digest, result object)} from one ledger run."""
    out, name, digest = {}, None, None
    for line in open(path):
        if "(sim_digest " in line:
            name = line.split()[0]
            digest = line.split("(sim_digest ")[1].split(",")[0].rstrip(")\n")
        elif line.startswith('{"correct"'):
            out[name] = (digest, json.loads(line))
    return out

sides = {s: [read(f"{runs}/{s}.{i}") for i in range(1, pairs + 1)] for s in ("parent", "change")}
bad = False
def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

for w in sides["parent"][0]:
    got = {s: [r[w] for r in sides[s] if w in r] for s in sides}
    if any(len(v) != pairs for v in got.values()):
        print(f"{w}: a run produced no result")
        bad = True
        continue
    print(f"\n{w}, seed {seed}, {pairs} pairs, parent {commit} vs working tree\n")
    print("| metric | parent median | parent q1 / q3 | change median | change q1 / q3 | Δ median | change better |")
    print("|---|---|---|---|---|---|---|")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        p = [r["metrics"][name]["value"] for _, r in got["parent"]]
        c = [r["metrics"][name]["value"] for _, r in got["change"]]
        pm, cm = statistics.median(p), statistics.median(c)
        wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        delta = (cm - pm) / pm * 100 if pm else 0.0
        (p1, p3), (c1, c3) = quartiles(p), quartiles(c)
        print(f"| {name} | {pm:.4g} | {p1:.4g} / {p3:.4g} | {cm:.4g} | {c1:.4g} / {c3:.4g} "
              f"| {delta:+.1f} % | {wins} of {pairs} |")
    digests = {s: sorted({d for d, _ in got[s]}) for s in got}
    failed = {s: sum(r["failed"] for _, r in got[s]) for s in got}
    same = digests["parent"] == digests["change"]
    print(f"\nsim_digest: parent {' '.join(digests['parent'])}, change {' '.join(digests['change'])}"
          f" ({'equal' if same else 'DIFFERENT'}); failed checks: parent {failed['parent']}, change {failed['change']}")
    if len(digests["parent"]) > 1 or len(digests["change"]) > 1:
        print("a side's digest varied between its runs")
        bad = True
    bad |= (not same and not expect) or failed["change"] > 0
sys.exit(1 if bad else 0)
EOF
