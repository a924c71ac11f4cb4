#!/usr/bin/env bash
# Lines of first-party Rust per crate, then the total: every tracked `.rs`
# file outside vendor/ (stand-ins for upstream crates) and perfbench/ (the
# wall-clock benchmark, a workspace of its own). The root package — src/,
# tests/ and examples/ — counts as one crate. This is the "least code"
# ledger; compare it before and after a change.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

git ls-files -z -- '*.rs' ':!vendor' ':!perfbench' |
  xargs -0 wc -l |
  awk '$2 != "total" {
         split($2, part, "/")
         crate = part[1] == "crates" ? "crates/" part[2] : "speedybox (src, tests, examples)"
         lines[crate] += $1
         total += $1
       }
       END {
         for (crate in lines) printf "%7d  %s\n", lines[crate], crate | "sort -k2"
         close("sort -k2")
         printf "%7d  total\n", total
       }'
