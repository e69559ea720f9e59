#!/usr/bin/env bash
# A/A check: runs the same commit several times and reports how much
# each end-to-end metric moves when nothing changed.
#
#   benchmark/aa.sh [runs-per-set=10] [sets=2] [seconds=run_seconds]
#
# Each set runs every workload once per seed 1..runs. For each metric x
# workload it prints, per set, the median and the spread (distance
# between the first and third quartile as a share of the median, from
# statistics.quantiles(n=4)), then how far the last set's median is
# worse than the first's, and a proposed bound = max(10 %, 2 x spread).
# A metric whose spread exceeds a third of its bound in BENCHMARK.json
# is flagged: demote it to the per-layer list rather than loosen it.
set -euo pipefail
cd "$(dirname "$0")/.."
runs=${1:-10}
sets=${2:-2}
seconds=${3:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
results=$(mktemp)
trap 'rm -f "$results"' EXIT

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for set in $(seq 1 "$sets"); do
    for workload in $workloads; do
        for seed in $(seq 1 "$runs"); do
            echo "set $set $workload seed $seed" >&2
            line=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
                --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
            echo "$set $workload $line" >>"$results"
        done
    done
done

python3 - "$results" <<'EOF'
import json, statistics, sys

spec = json.load(open("BENCHMARK.json"))
metrics = {m["name"]: m for m in spec["end_to_end"]}
values = {}  # (workload, metric) -> set -> [values]
failed = 0
for row in open(sys.argv[1]):
    s, workload, line = row.split(" ", 2)
    result = json.loads(line)
    failed += result["failed"] + (not result["correct"])
    for name, m in result["metrics"].items():
        values.setdefault((workload, name), {}).setdefault(int(s), []).append(m["value"])

def spread(v):
    if len(v) < 2:
        return 0.0
    q = statistics.quantiles(v, n=4)
    return (q[2] - q[0]) / statistics.median(v)

print(f"{'workload':<13} {'metric':<20} {'median':>14} {'spread/set':<22} {'drift':>7} {'bound':>6} {'propose':>7}")
flagged = []
for (workload, name), by_set in sorted(values.items()):
    m = metrics[name]
    spreads = [spread(v) for _, v in sorted(by_set.items())]
    medians = [statistics.median(v) for _, v in sorted(by_set.items())]
    worse = (medians[-1] - medians[0]) / medians[0]
    if m["better"] == "higher":
        worse = -worse
    propose = max(0.10, 2 * max(spreads))
    flag = ""
    if name != "setup_s" and max(spreads) > m["bound"] / 3:
        flag = "  <- spread above bound/3"
        flagged.append((workload, name))
    if len(medians) > 1 and worse > m["bound"]:
        flag += "  <- drift above bound"
        flagged.append((workload, name))
    print(f"{workload:<13} {name:<20} {medians[0]:>14.4f} "
          f"{' '.join(f'{s:.3f}' for s in spreads):<22} {worse:>+7.3f} {m['bound']:>6.2f} {propose:>7.2f}{flag}")
print(f"failed operations over all runs: {failed}")
if flagged:
    print("flagged:", ", ".join(f"{w}/{n}" for w, n in sorted(set(flagged))))
    sys.exit(1)
EOF
