#!/usr/bin/env bash
# Repeatability: two full untraced sets of the same binary, one table row
# per (workload, metric) with both medians, their relative gap and the
# bound from BENCHMARK.json. Exits 1 when a gap exceeds its bound, when a
# simulated value or sim_digest differs between the sets, or when a check
# failed. Arguments are passed on (e.g. --seed 7 --seconds 25).
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline
bin="${CARGO_TARGET_DIR:-target}/release/dtcs-benchmark"
mkdir -p out
echo "commit: $(git rev-parse HEAD 2>/dev/null || echo unknown)"
"$bin" "$@" | tee out/set_a.txt
"$bin" "$@" | tee out/set_b.txt
python3 - out/set_a.txt out/set_b.txt ../BENCHMARK.json <<'EOF'
import json, sys

def read(path):
    """{workload: (digest, result object)} from one set's output."""
    sets, name, digest = {}, None, None
    for line in open(path):
        if "(sim_digest " in line:
            name = line.split()[0]
            digest = line.split("(sim_digest ")[1].split(",")[0].rstrip(")\n")
        elif line.startswith('{"correct"'):
            sets[name] = (digest, json.loads(line))
    return sets

a, b = read(sys.argv[1]), read(sys.argv[2])
spec = {m["name"]: m for m in json.load(open(sys.argv[3]))["end_to_end"]}
bad = False
print(f'{"workload":14} {"metric":14} {"set A":>12} {"set B":>12} {"gap":>8} {"bound":>7}')
for w in a:
    (da, ra), (db, rb) = a[w], b[w]
    if da != db or not (ra["correct"] and rb["correct"]) or ra["failed"] != rb["failed"]:
        print(f"{w}: sim_digest {da} vs {db}, correct {ra['correct']} vs {rb['correct']}")
        bad = True
    for name, m in spec.items():
        va, vb = ra["metrics"][name]["value"], rb["metrics"][name]["value"]
        gap = abs(vb - va) / va
        # Host times may differ within the bound; simulated values may not differ.
        over = gap > m["bound"] if m["unit"] in ("s", "MiB") else va != vb
        bad |= over
        print(f'{w:14} {name:14} {va:12.5f} {vb:12.5f} {gap:8.2%} {m["bound"]:7.0%}'
              + ("  DISAGREE" if over else ""))
sys.exit(1 if bad else 0)
EOF
