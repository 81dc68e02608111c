#!/usr/bin/env bash
# size.sh — the two numbers every simplicity PR reports (ROADMAP aim 2), so
# that they are counted the same way each time: lines of non-test Go, and the
# independently settable option fields.
#
# size.sh --check also compares them with the ceilings below and fails above
# either (the CI lint job runs it that way). The ceilings are the results of the
# last PR that moved them: a PR that grows the tree says so by editing them,
# where a reviewer sees it; one that shrinks it lowers them.
set -euo pipefail
cd "$(dirname "$0")/.."

# PR 23 raised it by 218: 71 are replaceonly's new golden fixture (testdata is
# counted), ~70 the contract text on the three Gets, Recycler and the package
# docs, the rest the recycler, the inline Updates and the analyzer's new
# sources against the three deleted copies and the CommitTraced fold.
max_lines=25610  # non-test Go outside benchmark/ (PR 23)
max_fields=77    # option fields (PR 21)

lines() { find . -name '*.go' ! -name '*_test.go' "$@" -print0 | xargs -0 cat | wc -l; }
outside=$(lines ! -path './benchmark/*')
echo "non-test Go lines, whole tree:          $(lines)"
echo "non-test Go lines, outside benchmark/:  $outside"

# Exported fields of the eight option structs (a line "A, B int" is two).
total=0
for s in "zeus Options" "zeus/internal/cluster Options" "zeus/internal/core Config" \
	"zeus/internal/ownership Config" "zeus/internal/commit Config" "zeus/internal/viewsvc Config" \
	"zeus/internal/transport ReliableConfig" "zeus/internal/netsim Config"; do
	# shellcheck disable=SC2086 # package and symbol are two arguments
	n=$(go doc $s | awk '
		/^}/ { exit }
		/^\t[A-Z]/ { n++; for (i = 1; $i ~ /,$/; i++) n++ }
		END { print n + 0 }')
	printf '  %-40s %3d\n' "${s/ /.}" "$n"
	total=$((total + n))
done
echo "option fields:                          $total"

if [ "${1:-}" = --check ]; then
	fail=0
	if [ "$outside" -gt "$max_lines" ]; then
		echo "size.sh: $outside non-test lines outside benchmark/, ceiling $max_lines" >&2
		fail=1
	fi
	if [ "$total" -gt "$max_fields" ]; then
		echo "size.sh: $total option fields, ceiling $max_fields" >&2
		fail=1
	fi
	exit $fail
fi
