#!/usr/bin/env bash
# A/B protocol for a performance claim (choosing-metrics §8): build a parent
# commit and the working tree into separate scratch copies, run alternating
# pairs of the BENCHMARK.json command, and print what a claim needs.
#
#   scripts/ab_bench.sh <parent-ref> [workload ...]
#
# Environment (all optional):
#   AB_PAIRS    pairs per workload and seed (default 10, the minimum)
#   AB_SEEDS    space-separated workload seeds (default "77")
#   AB_SCRATCH  where copies, target dirs and logs go
#               (default ${TMPDIR:-/tmp}/hris-ab-bench)
#
# Per workload x gated metric it prints both sides' median and quartiles,
# pairs won, whether the median gap exceeds the parent's inter-quartile
# distance, and whether the change is worse than the BENCHMARK.json bound;
# per workload the answer checksums per seed, `failed`, how many runs were
# `correct: false` and every distinct note the runs gave (why a run was
# incorrect: an unresolved percentile, the off-thread share, an answer that
# differs from `Hris`, ...), and for ingest_live the published-chunk count,
# minimum, median and quartiles (the benchmark needs >= 100).
# Then three traced passes per side and workload (first seed, sides
# alternating) attribute the gap to layers: each `per_layer` row's median
# and min-max per side. A row is flagged as moved only when the two sides'
# ranges do not overlap and the medians differ by more than 10 %; flagged
# rows, every `*.share` row, `trace.coverage` and
# `router.identity_mismatches` are printed.
#
# Nothing is written inside the checkout: both sides are built from copies,
# so the frozen perfbench/Cargo.lock stays clean.
set -euo pipefail

if [[ $# -lt 1 ]]; then
    sed -n '2,8p' "$0" >&2
    exit 2
fi
parent_ref=$1
shift

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
pairs=${AB_PAIRS:-10}
# One traced run per side flags untouched rows as moved by 13-59 %; the
# attribution compares ranges over this many runs per side instead.
traced_passes=3
seeds=${AB_SEEDS:-77}
scratch=${AB_SCRATCH:-${TMPDIR:-/tmp}/hris-ab-bench}
if (( pairs < 10 )); then
    echo "AB_PAIRS=$pairs: a claim needs at least 10 pairs" >&2
    exit 2
fi
case "$(realpath -m "$scratch")/" in
    "$repo"/*) echo "AB_SCRATCH must be outside the checkout" >&2; exit 2 ;;
esac

if [[ $# -gt 0 ]]; then
    workloads=("$@")
else
    mapfile -t workloads < <(python3 -c '
import json, sys
print("\n".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))
' "$repo/BENCHMARK.json")
fi
# The benchmark's own command line, run from each copy's root.
mapfile -t bench_cmd < <(python3 -c '
import json, sys
print("\n".join(json.load(open(sys.argv[1]))["command"]))
' "$repo/BENCHMARK.json")

mkdir -p "$scratch"
logs=$scratch/logs
rm -rf "$scratch/parent" "$scratch/change" "$logs"
mkdir -p "$scratch/parent" "$scratch/change" "$logs"
git -C "$repo" archive "$parent_ref" | tar -x -C "$scratch/parent"
# The change is the working tree: tracked and untracked-but-not-ignored
# files, so an uncommitted edit is measured too.
(cd "$repo" && git ls-files -co --exclude-standard -z \
    | while IFS= read -r -d '' f; do [[ -e $f ]] && printf '%s\0' "$f"; done \
    | tar --null -T - -cf -) | tar -x -C "$scratch/change"
# Both sides run the parent's benchmark files: a claim may not edit them.
rm -rf "$scratch/change/perfbench" "$scratch/change/BENCHMARK.json"
cp -r "$scratch/parent/perfbench" "$scratch/parent/BENCHMARK.json" "$scratch/change/"

run_side() { # side workload seed [trace] -> appends the run's stdout to its log
    local side=$1 workload=$2 seed=$3 trace=${4:-0} log
    log=$logs/$side.$workload.$seed.log
    if (( trace )); then log=$logs/$side.$workload.trace.log; fi
    (cd "$scratch/$side" && CARGO_TARGET_DIR=$scratch/target-$side \
        "${bench_cmd[@]}" --workload "$workload" --seed "$seed" --trace "$trace") \
        >>"$log" 2>>"$logs/$side.stderr.log" || echo "RUN FAILED" >>"$log"
}

echo "building parent ($parent_ref) and change into $scratch ..." >&2
for side in parent change; do
    (cd "$scratch/$side" && CARGO_TARGET_DIR=$scratch/target-$side \
        cargo build --release --offline --quiet \
        --manifest-path perfbench/Cargo.toml --bin bench)
done

for workload in "${workloads[@]}"; do
    for seed in $seeds; do
        for ((i = 0; i < pairs; i++)); do
            # Alternate which side goes first.
            if (( i % 2 == 0 )); then order=(parent change); else order=(change parent); fi
            for side in "${order[@]}"; do
                run_side "$side" "$workload" "$seed"
            done
            echo "  $workload seed $seed: pair $((i + 1))/$pairs" >&2
        done
    done
    for ((i = 0; i < traced_passes; i++)); do
        if (( i % 2 == 0 )); then order=(parent change); else order=(change parent); fi
        for side in "${order[@]}"; do
            run_side "$side" "$workload" "${seeds%% *}" 1
        done
        echo "  $workload: traced pass $((i + 1))/$traced_passes" >&2
    done
done

python3 - "$repo/BENCHMARK.json" "$logs" "$seeds" "${workloads[@]}" <<'PY'
import collections, json, statistics, sys
from pathlib import Path

bench, logs, seeds = json.load(open(sys.argv[1])), Path(sys.argv[2]), sys.argv[3].split()
workloads = sys.argv[4:]


def runs(side, workload, tag):
    """One dict per run: the driver's JSON (last line) plus the detail line."""
    out, detail = [], None
    for line in (logs / f"{side}.{workload}.{tag}.log").read_text().splitlines():
        if line.startswith("detail "):
            detail = json.loads(line[len("detail "):])
        elif line.startswith('{"correct"'):
            out.append({**json.loads(line), "detail": detail or {}})
            detail = None
        elif line == "RUN FAILED":
            out.append(None)
    return out


for workload in workloads:
    for seed in seeds:
        sides = {s: runs(s, workload, seed) for s in ("parent", "change")}
        n = min(len(v) for v in sides.values())
        print(f"\n== {workload}  seed {seed}  {n} pairs ==")
        if n == 0 or any(r is None for v in sides.values() for r in v):
            print("  a run failed to produce a result line; see", logs)
            continue
        print(f"  {'metric':<16}{'parent med [q1, q3]':>38}{'change med [q1, q3]':>38}"
              f"{'won':>7}  gap>IQR  vs bound")
        for m in bench["end_to_end"]:
            name, higher = m["name"], m["better"] == "higher"
            p = [r["metrics"][name]["value"] for r in sides["parent"][:n]]
            c = [r["metrics"][name]["value"] for r in sides["change"][:n]]
            (p1, pm, p3), (c1, cm, c3) = (statistics.quantiles(xs, n=4) for xs in (p, c))
            won = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
            gain = (cm - pm) if higher else (pm - cm)
            worse = -gain / abs(pm) if pm else 0.0
            verdict = "WORSE" if worse > m["bound"] else "ok"
            print(f"  {name:<16}{pm:>13.4f} [{p1:>10.4f}, {p3:>10.4f}]"
                  f"{cm:>13.4f} [{c1:>10.4f}, {c3:>10.4f}]{won:>4}/{n:<2}"
                  f"  {'yes' if gain > (p3 - p1) else 'no':<7}  {verdict} ({-worse:+.1%})")
        for side, rs in sides.items():
            fnv = sorted({r["detail"].get("answers_fnv", "?") for r in rs})
            incorrect = sum(not r["correct"] for r in rs)
            failed = sum(r["failed"] for r in rs)
            print(f"  {side}: correct: false in {incorrect}/{len(rs)} runs, failed={failed}"
                  f" answers_fnv={','.join(fnv)}")
            notes = collections.Counter(n for r in rs for n in r["detail"].get("notes", []))
            for note, runs_with in sorted(notes.items()):
                print(f"    note in {runs_with} run(s): {note}")
        same = {r["detail"].get("answers_fnv") for v in sides.values() for r in v}
        if workload == "ingest_live":
            print("  checksums: live archive, answers checked by the run's end-state check")
            for side, rs in sides.items():
                chunks = [row["samples"] for r in rs for row in r["detail"].get("extra", [])
                          if row["name"] == "ingest_lag_p90_ms"]
                low = min(chunks, default=0)
                q1, med, q3 = statistics.quantiles(chunks, n=4) if len(chunks) > 1 else [low] * 3
                warn = "  WARNING: below 105, the benchmark fails a run under 100" if low < 105 else ""
                print(f"  {side}: published chunks min {low} median {med:g}"
                      f" [{q1:g}, {q3:g}]{warn}")
        else:
            print(f"  checksums: {'identical' if len(same) == 1 else 'DIFFER'}")

    # Where the gap was made: the traced passes, parent -> change.
    traced = {s: runs(s, workload, "trace") for s in ("parent", "change")}
    print(f"\n== {workload}  traced passes, seed {seeds[0]} ==")
    if any(not v or None in v for v in traced.values()):
        print("  a traced pass failed to produce a result line; see", logs)
        continue
    print(f"  {'per_layer row':<44}{'parent med [min, max]':>36}{'change med [min, max]':>36}")
    always = ("trace.coverage", "router.identity_mismatches")
    for m in bench["per_layer"]:
        name = m["name"]
        p, c = ([r["metrics"][name]["value"] for r in traced[s]] for s in ("parent", "change"))
        pm, cm = statistics.median(p), statistics.median(c)
        apart = max(p) < min(c) or max(c) < min(p)
        moved = apart and (abs(cm - pm) > 0.10 * abs(pm) if pm else cm != 0)
        if moved or name.endswith(".share") or name in always:
            rel = f"{(cm - pm) / abs(pm):+.1%}" if pm else "n/a"
            print(f"  {name:<44}{pm:>14.4f} [{min(p):>8.4g}, {max(p):>8.4g}]"
                  f"{cm:>14.4f} [{min(c):>8.4g}, {max(c):>8.4g}] {m['unit']:<6} {rel:>8}"
                  f"{'  MOVED' if moved else ''}")
    for side, rs in traced.items():
        incorrect = sum(not r["correct"] for r in rs)
        print(f"  {side}: correct: false in {incorrect}/{len(rs)} traced runs,"
              f" failed={sum(r['failed'] for r in rs)}")
        notes = collections.Counter(n for r in rs for n in r["detail"].get("notes", []))
        for note, runs_with in sorted(notes.items()):
            print(f"    note in {runs_with} run(s): {note}")
PY
