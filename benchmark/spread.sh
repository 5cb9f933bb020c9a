#!/usr/bin/env bash
# Measures the benchmark's run-to-run spread.
#
#   benchmark/spread.sh [-k RUNS] [-s SEED] [-v] [WORKLOAD...]
#
#   -k RUNS  runs per workload (default 5)
#   -s SEED  seed of every run, or of the first run with -v (default 1)
#   -v       vary the seed: run i uses SEED+i, so the spread includes the
#            inputs' effect (the way a regression gate samples seeds)
#
# Builds once, runs each workload RUNS times untraced, and prints for every
# end-to-end metric its median, quartiles, IQR / median and largest
# relative deviation from the median next to its BENCHMARK.json bound.
# With a fixed seed it also checks that every work counter (all per-op
# counts and cache.hit_rate; not exec.utilization) repeats exactly.
# Run from the repository root. Raw outputs go to benchmark/out/spread/.
set -euo pipefail

runs=5 seed=1 vary=0
while getopts "k:s:v" opt; do
  case $opt in
    k) runs=$OPTARG ;;
    s) seed=$OPTARG ;;
    v) vary=1 ;;
    *) sed -n '2,16p' "$0"; exit 2 ;;
  esac
done
shift $((OPTIND - 1))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  workloads=(tub_exact mcf_worst failure_sweep frontier)
fi

cargo build --release --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/dcn-benchmark"
out=benchmark/out/spread
mkdir -p "$out"

status=0
for w in "${workloads[@]}"; do
  files=()
  for ((i = 0; i < runs; i++)); do
    s=$seed
    if [ "$vary" = 1 ]; then s=$((seed + i)); fi
    f="$out/$w-run$i.txt"
    "$bin" --workload "$w" --seed "$s" > "$f"
    files+=("$f")
  done
  python3 - "$w" "$vary" "${files[@]}" <<'EOF' || status=1
import json, statistics, sys

workload, vary, files = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
runs = []
for path in files:
    lines = open(path).read().splitlines()
    summary = json.loads(lines[-1])
    if not summary["correct"] or summary["failed"]:
        print(f"{workload}: {path} reports failed ops")
        sys.exit(1)
    values = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3 and not line.startswith("#"):
            values[parts[0]] = float(parts[1])
    runs.append(values)

print(f"== {workload}: {len(runs)} runs, {'seeds vary' if vary else 'one seed'}")
print(f"{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'maxdev':>8} {'bound':>6}")
ok = True
for name, bound in bounds.items():
    xs = [r[name] for r in runs]
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
    iqr = (q3 - q1) / med
    maxdev = max(abs(x - med) for x in xs) / med
    flag = ""
    if iqr > bound:
        flag, ok = "  OVER BOUND", False
    elif iqr > bound / 3:
        flag = "  above bound/3"
    print(f"{name:<14} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {iqr:>8.2%} {maxdev:>8.2%} {bound:>6}{flag}")

if not vary:
    counters = [k for k in runs[0] if k not in bounds and k != "exec.utilization"]
    differing = [k for k in counters if len({r.get(k) for r in runs}) > 1]
    if differing:
        ok = False
        print(f"counters differ between runs: {', '.join(differing)}")
    else:
        print(f"all {len(counters)} work counters repeat exactly")
sys.exit(0 if ok else 1)
EOF
done
exit $status
