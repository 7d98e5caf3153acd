#!/usr/bin/env bash
# Counts the product lines of crates/core/src and crates/net/src: non-blank
# lines that do not start with `//` (after indentation), up to each file's
# first `#[cfg(test)]` that opens a `mod`. Prints one count per file, then
# the total. Informational: nothing gates on it.
#
#   scripts/product_lines.sh            # the two product crates
#   scripts/product_lines.sh FILE...    # the given files only
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -gt 0 ]]; then
    files=("$@")
else
    files=(crates/core/src/*.rs crates/net/src/*.rs)
fi

awk '
    FNR == 1 { held = 0 }
    # A `#[cfg(test)]` is held back one line: followed by `mod`, the rest of
    # the file is tests; followed by anything else, it is a product line.
    stop[FILENAME] { next }
    held {
        held = 0
        if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod /) { stop[FILENAME] = 1; next }
        count[FILENAME]++
    }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = 1; next }
    /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    { count[FILENAME]++ }
    END {
        for (i = 1; i < ARGC; i++) {
            f = ARGV[i]
            printf "%6d  %s\n", count[f], f
            total += count[f]
        }
        printf "%6d  total\n", total
    }
' "${files[@]}"
