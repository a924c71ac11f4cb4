#!/usr/bin/env bash
# Lines of first-party Rust per crate, then the total: every `.rs` file
# git tracks (or would track) outside vendor/ (stand-ins for upstream
# crates) and perfbench/ (the wall-clock benchmark, a workspace of its
# own). The root package — src/, tests/ and examples/ — counts as one
# crate. This is the "least code" ledger.
#
# Usage: scripts/loc.sh [<base-rev>]
#
# With a base revision, prints each crate's lines at the base, in the
# working tree and the difference, counting both sides the same way.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

paths=('*.rs' ':!vendor' ':!perfbench')

# "<path>:<lines>" per file of the working tree, or of revision $1.
count() {
  if [ $# -eq 0 ]; then
    git grep --untracked -c '' -- "${paths[@]}"
  else
    git grep -c '' "$1" -- "${paths[@]}" | cut -d: -f2-
  fi
}

{
  if [ $# -gt 0 ]; then
    count "$1" | sed 's/^/base:/'
  fi
  count | sed 's/^/tree:/'
} | awk -F: -v diff=$# '
  {
    split($2, part, "/")
    crate = part[1] == "crates" ? "crates/" part[2] : "speedybox (src, tests, examples)"
    lines[$1, crate] += $3
    total[$1] += $3
    crates[crate] = 1
  }
  END {
    if (diff) printf "%7s %7s %7s  %s\n", "base", "tree", "delta", "crate"
    for (crate in crates) {
      if (diff) {
        row = sprintf("%7d %7d %+7d  %s", lines["base", crate], lines["tree", crate],
                      lines["tree", crate] - lines["base", crate], crate)
      } else {
        row = sprintf("%7d  %s", lines["tree", crate], crate)
      }
      print row | "sort -k" (diff ? 4 : 2)
    }
    close("sort -k" (diff ? 4 : 2))
    if (diff) printf "%7d %7d %+7d  total\n", total["base"], total["tree"], total["tree"] - total["base"]
    else printf "%7d  total\n", total["tree"]
  }'
