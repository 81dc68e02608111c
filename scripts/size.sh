#!/usr/bin/env bash
# size.sh — the two numbers every simplicity PR reports (ROADMAP aim 2), so
# that they are counted the same way each time: lines of non-test Go, and the
# independently settable option fields.
set -euo pipefail
cd "$(dirname "$0")/.."

lines() { find . -name '*.go' ! -name '*_test.go' "$@" -print0 | xargs -0 cat | wc -l; }
echo "non-test Go lines, whole tree:          $(lines)"
echo "non-test Go lines, outside benchmark/:  $(lines ! -path './benchmark/*')"

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
