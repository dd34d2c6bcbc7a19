#!/usr/bin/env bash
# The line count the ROADMAP wants to shrink: non-test lines of library code.
#
#   scripts/src_lines.sh          # the working tree
#   scripts/src_lines.sh <ref>    # <ref>, the working tree, and the difference
#
# Per crate and in total: lines of crates/<crate>/src/**/*.rs up to (not
# including) each file's first `#[cfg(test)]`. Files at <ref> are read with
# `git show`; nothing is written in the checkout.
set -euo pipefail

cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

# stdin: `crates/<crate>/src/...rs` paths; $@: the command that prints one.
# stdout: `<crate> <lines>` per crate, sorted by crate.
per_crate() {
    local path
    while IFS= read -r path; do
        printf '%s ' "$(cut -d/ -f2 <<<"$path")"
        "$@" "$path" | awk '/^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 } !tests { n++ } END { print n + 0 }'
    done | awk '{ n[$1] += $2 } END { for (c in n) print c, n[c] }' | sort
}

show_at_ref() { git show "$ref:$1"; }

now=$(git ls-files --cached --others --exclude-standard -- 'crates/*/src/*.rs' |
    while IFS= read -r f; do [[ -f $f ]] && echo "$f"; done | per_crate cat)

ref=${1:-}
if [[ -z $ref ]]; then
    awk 'BEGIN { printf "%-10s %8s\n", "crate", "lines" }
         { printf "%-10s %8d\n", $1, $2; t += $2 }
         END { printf "%-10s %8d\n", "total", t }' <<<"$now"
    exit
fi

before=$(git ls-tree -r --name-only "$ref" -- crates |
    grep -E '^crates/[^/]+/src/.*\.rs$' | per_crate show_at_ref)
join -a1 -a2 -e0 -o 0,1.2,2.2 <(echo "$before") <(echo "$now") |
    awk -v ref="$ref" '
        BEGIN { printf "%-10s %8.8s %8s %8s\n", "crate", ref, "now", "diff" }
        { printf "%-10s %8d %8d %+8d\n", $1, $2, $3, $3 - $2; o += $2; w += $3 }
        END { printf "%-10s %8d %8d %+8d\n", "total", o, w, w - o }'
