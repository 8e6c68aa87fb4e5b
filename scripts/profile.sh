#!/usr/bin/env bash
# Where a ledger workload spends its CPU time, by sampling.
#
#   scripts/profile.sh WORKLOAD [--arm A] [--runs N]
#
# Builds the ledger (benchmark/) with frame pointers and line tables in
# target/profile, compiles scripts/sampler.c, and runs N (default 4)
# single iterations `dtcs-benchmark --child WORKLOAD [--arm A] --seed 42`
# with the sampler preloaded. The sampler is a profiling timer on the
# child's own process (setitimer(ITIMER_PROF), one sample per ms of its
# CPU time) and a frame-pointer walk; nothing system-wide, no perf_event.
# Prints, over all samples, each function's self share (it is the
# innermost frame, inlining expanded by `addr2line -i`) and inclusive share
# (it is anywhere on the stack; outside the binary, only as the leaf),
# then the self share per innermost source file and file:line, and for each
# of the ten hottest innermost files outside crates/ (std's B-tree search,
# cmp.rs, libc) the innermost crates/ frames on its stacks: who called it.
# A share is samples / total; with S samples its 2 sigma is at most
# 100/sqrt(S) points, printed beside the sample count.
set -euo pipefail

usage() {
    echo "usage: $0 WORKLOAD [--arm A] [--runs N]" >&2
    exit 2
}
[ $# -ge 1 ] || usage
workload=$1
shift
arm="" runs=4
while [ $# -gt 0 ]; do
    case $1 in
        --arm) arm=${2:?}; shift 2 ;;
        --runs) runs=${2:?}; shift 2 ;;
        *) usage ;;
    esac
done

root=$(cd "$(dirname "$0")/.." && pwd)
work=$root/target/profile
mkdir -p "$work"
# The release profile strips line tables; addr2line needs them.
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
    CARGO_TARGET_DIR=$work cargo build --release --offline --quiet \
    --manifest-path "$root/benchmark/Cargo.toml"
bin=$work/release/dtcs-benchmark
gcc -O2 -shared -fPIC -o "$work/sampler.so" "$root/scripts/sampler.c" -ldl

samples=$work/samples-$workload${arm:+-$arm}
rm -rf "$samples"
mkdir -p "$samples"
args=(--child "$workload" --seed 42)
[ -n "$arm" ] && args+=(--arm "$arm")
for _ in $(seq "$runs"); do
    SAMPLER_OUT=$samples/run LD_PRELOAD=$work/sampler.so "$bin" "${args[@]}" >/dev/null
done

python3 - "$bin" "$samples" <<'EOF'
import collections, glob, os, re, subprocess, sys

binary, samples_dir = sys.argv[1], sys.argv[2]
stacks = []  # per sample: [(run, address)], leaf first
where = {}   # (run, address) -> (object, offset, dynamic symbol)
paths = sorted(glob.glob(os.path.join(samples_dir, "run.*")))
for run, path in enumerate(paths):
    for line in open(path):
        kind, *rest = line.split()
        if kind == "s":
            stacks.append([(run, int(a, 16)) for a in rest])
        elif kind == "a":
            addr, obj, off, sym = rest[0], rest[1], rest[2], " ".join(rest[3:])
            where[(run, int(addr, 16))] = (obj, int(off, 16), sym)
if not stacks:
    sys.exit("no samples: did the child run?")

def is_binary(obj):
    return os.path.basename(obj) == os.path.basename(binary)

# A return address points after its call: look up the call itself.
lookups = set()
for stack in stacks:
    for depth, key in enumerate(stack):
        obj, off, _ = where.get(key, ("?", 0, "?"))
        if is_binary(obj):
            lookups.add(off - (depth > 0))
order = sorted(lookups)
chains = {}  # offset -> [(function, file:line)], innermost first
if order:
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", binary] + [hex(o) for o in order],
        capture_output=True, text=True, check=True).stdout.splitlines()
    # Each address line is followed by (function, file:line) pairs.
    cur, fn = None, None
    for line in out:
        if line.startswith("0x"):
            cur, fn = int(line, 16), None
            chains[cur] = []
        elif fn is None:
            fn = re.sub(r"::h[0-9a-f]{16}$", "", line)
        else:
            chains[cur].append((fn, line))
            fn = None

def frames(depth, key):
    """Inline-expanded (function, file:line) of one frame, innermost first."""
    obj, off, sym = where.get(key, ("?", 0, "?"))
    if is_binary(obj):
        return chains.get(off - (depth > 0)) or [("??", "??:0")]
    name = sym if sym != "?" else "[%s]" % os.path.basename(obj)
    return [(name, "[%s]" % os.path.basename(obj))]

self_fn, incl_fn = collections.Counter(), collections.Counter()
self_file, self_line = collections.Counter(), collections.Counter()
# Innermost file outside crates/ -> innermost crates/ frame -> samples.
callers = collections.defaultdict(collections.Counter)
for stack in stacks:
    leaf = frames(0, stack[0])[0]
    self_fn[leaf[0]] += 1
    loc = leaf[1]
    self_line[re.sub(r" \(discriminator \d+\)$", "", loc)] += 1
    self_file[loc.rsplit(":", 1)[0]] += 1
    if "/crates/" not in loc:
        chain = (f for depth, key in enumerate(stack) for f in frames(depth, key))
        caller = next((f for f in chain if "/crates/" in f[1]), ("(no crates/ frame)", ""))
        callers[loc.rsplit(":", 1)[0]][caller] += 1
    # Outside the binary a frame counts only as a leaf: the C runtime
    # under `main` is on every stack and says nothing.
    seen = {leaf[0]}
    for depth, key in enumerate(stack):
        if is_binary(where.get(key, ("?",))[0]):
            seen.update(fn for fn, _ in frames(depth, key))
    incl_fn.update(seen)

n = len(stacks)
def short(path):
    for cut in ("/crates/", "/library/", "/src/"):
        if cut in path:
            return path[path.index(cut) + 1:]
    return path
print(f"{n} samples over {len(paths)} runs; a share is good to "
      f"±{100 / n ** 0.5:.1f} points (2 sigma)")
print(f"\n{'incl %':>7} {'self %':>7}  function (by inclusive share)")
# Functions on nine stacks in ten with no time of their own are the entry
# chain down to the workload (`main`, the harness); they say nothing.
shown = [(fn, c) for fn, c in incl_fn.most_common() if self_fn[fn] or c < 0.9 * n]
for fn, c in shown[:30]:
    print(f"{100 * c / n:7.1f} {100 * self_fn[fn] / n:7.1f}  {fn[:110]}")
print(f"\n{'self %':>7}  function (by self share)")
for fn, c in self_fn.most_common(20):
    print(f"{100 * c / n:7.1f}  {fn[:110]}")
print(f"\n{'self %':>7}  innermost source file")
for f, c in self_file.most_common(15):
    print(f"{100 * c / n:7.1f}  {short(f)}")
print(f"\n{'self %':>7}  innermost file:line")
for f, c in self_line.most_common(20):
    print(f"{100 * c / n:7.1f}  {short(f)}")
print(f"\n{'self %':>7}  innermost file outside crates/, then its innermost crates/ frames")
for f in sorted(callers, key=lambda f: -self_file[f])[:10]:
    print(f"{100 * self_file[f] / n:7.1f}  {short(f)}")
    for (fn, loc), c in callers[f].most_common(3):
        print(f"{100 * c / n:11.1f}  {fn[:80]}  {short(loc)}")
EOF
