#!/usr/bin/env bash
# Fails when the committed figure CSVs under results/ are not what the code
# prints today.
#
#   scripts/check_results.sh
#
# Runs `experiments all --out <tmpdir>` (quick scenario, seeded, ~30 s in
# release) and compares every CSV it writes with results/<same name>:
#
#   - CSVs without a timing column (accuracy tables, the ablation, the
#     extensions) must match byte for byte;
#   - figure_13b must match in its key column and its two `kNN` columns
#     (search counts repeat exactly; its two `time` columns do not);
#   - the timing CSVs (figure_9b/10b/11b/12b/14b) must match in header, row
#     count and key column.
#
# A CSV present on one side only is a failure too. To re-bless after an
# intended change: `experiments all --out results`, and say in
# EXPERIMENTS.md which cells moved and why.
#
# Nothing is written inside the checkout except cargo's own target directory.
set -euo pipefail

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
fresh=$(mktemp -d)
trap 'rm -rf "$fresh"' EXIT

if ! (cd "$repo" && cargo run --release --offline --quiet -p hris-eval --bin experiments -- \
    all --out "$fresh") >"$fresh/stdout.txt" 2>"$fresh/stderr.txt"; then
    cat "$fresh/stderr.txt" >&2
    exit 1
fi

# Columns that must repeat exactly; empty means the whole file.
exact_columns() {
    case $1 in
        figure_13b.csv) echo 1,4,5 ;;
        figure_9b.csv | figure_10b.csv | figure_11b.csv | figure_12b.csv | figure_14b.csv) echo 1 ;;
        *) echo "" ;;
    esac
}

status=0
for new in "$fresh"/*.csv; do
    name=$(basename "$new")
    old=$repo/results/$name
    if [[ ! -f $old ]]; then
        echo "MISSING  results/$name: \`experiments all\` writes it, the checkout does not have it"
        status=1
        continue
    fi
    columns=$(exact_columns "$name")
    if [[ -z $columns ]]; then
        if ! diff -u --label "results/$name" --label "fresh/$name" "$old" "$new"; then
            echo "STALE    results/$name"
            status=1
        fi
    elif [[ $(head -n 1 "$old") != $(head -n 1 "$new") ]] \
        || ! diff -u --label "results/$name [columns $columns]" --label "fresh/$name" \
            <(cut -d, -f"$columns" "$old") <(cut -d, -f"$columns" "$new"); then
        echo "STALE    results/$name (header, rows or columns $columns)"
        status=1
    fi
done
for old in "$repo"/results/*.csv; do
    name=$(basename "$old")
    if [[ ! -f $fresh/$name ]]; then
        echo "ORPHAN   results/$name: \`experiments all\` no longer writes it"
        status=1
    fi
done

if ((status == 0)); then
    echo "results/ matches \`experiments all\` ($(find "$fresh" -name '*.csv' | wc -l) CSVs)"
fi
exit $status
