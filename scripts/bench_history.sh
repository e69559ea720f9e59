#!/usr/bin/env bash
# Keeps a trajectory: runs the BENCHMARK.json command once per workload
# (untraced, seed 1, the declared run length) and appends one row per
# run to BENCH_history.jsonl at the repository root — commit, date,
# nproc, CPU model, and the four end-to-end metrics — then runs every
# crates/bench target (the paper's Figure 2 and Tables 3/4, the
# ablations, and the benches scripts/ci.sh gates) at full length and
# appends one row per target under the same stamp, with every metric
# the target recorded (a target that records nothing gets no row; one
# that exits non-zero, as a gate may on a loaded host, gets its row
# marked `"failed": true`, and this script exits 1 after the rest have
# run). Rows are appended together once everything has run, so an
# aborted script leaves no partial stamp. The file is append-only: rows
# are never rewritten, so a number that moved can be traced to the
# commit and the machine it moved on, and nothing reads a number back
# out of it to judge a build (scripts/ci.sh "one measurement system").
#
#   scripts/bench_history.sh [note] [checkout]
#
# `note` is free text stored with each row. `checkout` is the tree to
# build and measure (default: this one); rows always land in this
# repository's history, which is how a parent commit cloned elsewhere
# gets its row. A tree with uncommitted changes is recorded as
# `<commit>-dirty`.
#
# One run per workload is a data point, not a comparison: this host
# wanders by tens of percent over minutes (benchmark/README.md), and a
# claim needs alternating pairs (benchmark/aa.sh shows the spread).
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
note=${1:-}
checkout="$(cd "${2:-$root}" && pwd)"

python3 - "$root/BENCH_history.jsonl" "$checkout" "$note" <<'EOF'
import json, os, re, subprocess, sys, tempfile

history, checkout, note = sys.argv[1:4]
spec = json.load(open(f"{checkout}/BENCHMARK.json"))

def git(*args):
    return subprocess.run(["git", "-C", checkout, *args], check=True,
                          capture_output=True, text=True).stdout.strip()

commit = git("rev-parse", "HEAD") + ("-dirty" if git("status", "--porcelain") else "")

rows = []

for workload in (w["name"] for w in spec["workloads"]):
    print(f"{workload} ...", file=sys.stderr)
    run = subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", "1",
                           "--seconds", str(spec["run_seconds"]), "--trace", "0"],
        cwd=checkout, check=True, capture_output=True, text=True)
    lines = run.stdout.splitlines()
    host = dict(re.findall(r'(\w+)=("[^"]*"|\S+)', lines[0]))
    result = json.loads(lines[-1])
    row = {"commit": commit, "date": host["date"], "nproc": int(host["nproc"]),
           "cpu": host["cpu"].strip('"'), "workload": workload}
    row.update({m["name"]: result["metrics"][m["name"]]["value"] for m in spec["end_to_end"]})
    row["failed"] = result["failed"]
    rows.append(row)

# The crates/bench reporters, stamped like the last workload row.
stamp = {k: row[k] for k in ("commit", "date", "nproc", "cpu")}
gate_failed = False
benches = sorted(f[:-3] for f in os.listdir(f"{checkout}/crates/bench/benches") if f.endswith(".rs"))
for bench in benches:
    print(f"{bench} ...", file=sys.stderr)
    with tempfile.NamedTemporaryFile(suffix=".jsonl") as recorded:
        failed = subprocess.run(
            ["cargo", "bench", "-q", "--offline", "-p", "vcode-bench", "--bench", bench],
            cwd=checkout, stdout=sys.stderr,
            env={**os.environ, "VCODE_BENCH_JSON": recorded.name, "VCODE_SMOKE": "0"}).returncode != 0
        metrics = dict((m["metric"], m["value"]) for m in map(json.loads, recorded))
    if failed:
        gate_failed = True
        rows.append({**stamp, "bench": bench, "metrics": metrics, "failed": True})
    elif metrics:
        rows.append({**stamp, "bench": bench, "metrics": metrics})

with open(history, "a") as f:
    for row in rows:
        if note:
            row["note"] = note
        f.write(json.dumps(row) + "\n")
        print(json.dumps(row))
sys.exit(gate_failed)
EOF
