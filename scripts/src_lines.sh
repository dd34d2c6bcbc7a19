#!/usr/bin/env bash
# The line count the ROADMAP wants to shrink: non-test lines of library code.
#
#   scripts/src_lines.sh          # the working tree
#   scripts/src_lines.sh <ref>    # <ref>, the working tree, and the difference
#
# Per crate and in total: lines of crates/<crate>/src/**/*.rs up to (not
# including) each file's first `#[cfg(test)]`. Below the total, and not in
# it, a `vendor` row counts vendor/*/src/**/*.rs the same way. Files at
# <ref> are read with `git show`; nothing is written in the checkout.
set -euo pipefail

cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

# stdin: `<dir>/<crate>/src/...rs` paths; $@: the command that prints one.
# stdout: `<crate> <lines>` per crate, sorted by crate.
per_crate() {
    local path
    while IFS= read -r path; do
        printf '%s ' "$(cut -d/ -f2 <<<"$path")"
        "$@" "$path" | awk '/^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 } !tests { n++ } END { print n + 0 }'
    done | awk '{ n[$1] += $2 } END { for (c in n) print c, n[c] }' | sort
}

show_at_ref() { git show "$ref:$1"; }

# $1: `crates` or `vendor`. stdout: per-crate lines in the working tree.
lines_now() {
    git ls-files --cached --others --exclude-standard -- "$1/*/src/*.rs" |
        while IFS= read -r f; do [[ -f $f ]] && echo "$f"; done | per_crate cat
}

# $1: `crates` or `vendor`. stdout: per-crate lines at $ref.
lines_at_ref() {
    git ls-tree -r --name-only "$ref" -- "$1" |
        grep -E "^$1/[^/]+/src/.*\.rs\$" | per_crate show_at_ref
}

total() { awk '{ t += $2 } END { print t + 0 }'; }

now=$(lines_now crates)
vendor_now=$(lines_now vendor | total)

ref=${1:-}
if [[ -z $ref ]]; then
    awk -v vendor="$vendor_now" '
        BEGIN { printf "%-10s %8s\n", "crate", "lines" }
        { printf "%-10s %8d\n", $1, $2; t += $2 }
        END { printf "%-10s %8d\n%-10s %8d\n", "total", t, "vendor", vendor }' <<<"$now"
    exit
fi

before=$(lines_at_ref crates)
vendor_before=$(lines_at_ref vendor | total)
join -a1 -a2 -e0 -o 0,1.2,2.2 <(echo "$before") <(echo "$now") |
    awk -v ref="$ref" -v vb="$vendor_before" -v vn="$vendor_now" '
        BEGIN { printf "%-10s %8.8s %8s %8s\n", "crate", ref, "now", "diff" }
        { printf "%-10s %8d %8d %+8d\n", $1, $2, $3, $3 - $2; o += $2; w += $3 }
        END {
            printf "%-10s %8d %8d %+8d\n", "total", o, w, w - o
            printf "%-10s %8d %8d %+8d\n", "vendor", vb, vn, vn - vb
        }'
