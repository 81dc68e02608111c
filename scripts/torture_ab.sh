#!/usr/bin/env bash
# torture_ab.sh — run the same tests N times on a parent commit and on the
# working tree, interleaved, and print how often each side failed, by class.
#
#   scripts/torture_ab.sh <ref> -run <regex> -n N [-race] [-pkg PKG]
#
# PKG defaults to ./internal/cluster, where the protocol tortures live; the
# reliable transport's TestReliableTortureLossSweep needs -pkg ./internal/transport.
#
# It builds two test binaries with `go test -c`: the change's from the working
# tree, the parent's from <ref>, exported with `git archive` into a scratch
# directory (an export, not a worktree: an interrupted run leaves nothing
# registered in .git). Run k starts with the parent when k is even and with the
# change when it is odd, so drift of the host hits both sides alike. Every run
# gets -test.timeout 5m, so a hang panics with every goroutine's stack instead
# of stalling the table.
#
# A failing run's log is kept in a fresh directory under $TMPDIR, printed at
# the end, and sorted into one class: the first pattern of the
# table below that matches the log. A failure no pattern matches is counted
# as unknown, never dropped. The table prints each class parent → change,
# with a one-sided Fisher exact p-value for "the change fails more often".
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
	echo "usage: $0 <ref> -run <regex> -n N [-race] [-pkg PKG]" >&2
	exit 2
}
[ $# -ge 1 ] || usage
ref=$1
shift
run='' n=0 race='' pkg=./internal/cluster
while [ $# -gt 0 ]; do
	case $1 in
	-run) run=$2; shift 2 ;;
	-n) n=$2; shift 2 ;;
	-race) race=-race; shift ;;
	-pkg) pkg=$2; shift 2 ;;
	*) usage ;;
	esac
done
[ -n "$run" ] && [ "$n" -gt 0 ] || usage
out=$(mktemp -d "${TMPDIR:-/tmp}/torture_ab.XXXXXX")

# The failure classes, first match wins: name, then an extended regex over the
# failing run's log.
classes=(
	hang 'panic: test timed out'
	data-race 'WARNING: DATA RACE'
	wedge 'policy exhausted|WedgeDump|wedged'
	lost-update 'lost update|lost increments|duplicate.version'
	cycle-tear 'cycle|torn'
	barrier-timeout 'recovery barrier'
	reclaim-timeout 'reclaim'
	lease-before-install 'installed after only'
)

parent_src=$(mktemp -d "${TMPDIR:-/tmp}/torture_ab_parent.XXXXXX")
trap 'rm -rf "$parent_src"' EXIT
git archive "$ref" | tar -x -C "$parent_src"
echo "building $pkg ($ref → working tree) ${race:+with -race}" >&2
(cd "$parent_src" && go test -c $race -o "$out/parent.test" "$pkg")
go test -c $race -o "$out/change.test" "$pkg"

declare -A fails
runs() { # side k
	local dir=. log="$out/$1-$2.log"
	[ "$1" = parent ] && dir=$parent_src
	if (cd "$dir/$pkg" && "$out/$1.test" -test.run "$run" -test.count 1 -test.timeout 5m) >"$log" 2>&1; then
		rm -f "$log"
		return
	fi
	local class=unknown i
	for ((i = 0; i < ${#classes[@]}; i += 2)); do
		if grep -qE "${classes[i + 1]}" "$log"; then
			class=${classes[i]}
			break
		fi
	done
	fails[$1,$class]=$((${fails[$1,$class]:-0} + 1))
	fails[$1,any]=$((${fails[$1,any]:-0} + 1))
	echo "run $2: $1 failed ($class), log $log" >&2
}
for ((k = 0; k < n; k++)); do
	if ((k % 2 == 0)); then runs parent "$k"; runs change "$k"; else runs change "$k"; runs parent "$k"; fi
done

# fisher a b n: P(change fails ≥ b of n | parent failed a of n, same totals),
# from the hypergeometric distribution, in log space.
fisher() {
	awk -v a="$1" -v b="$2" -v n="$3" '
		function lf(x,  s, i) { s = 0; for (i = 2; i <= x; i++) s += log(i); return s }
		BEGIN {
			k = a + b; p = 0
			for (x = b; x <= k && x <= n; x++)
				if (k - x <= n)
					p += exp(lf(k) - lf(x) - lf(k - x) + lf(2*n - k) - lf(n - x) - lf(n - k + x) - lf(2*n) + lf(n) + lf(n))
			printf "%.3g", (p > 1 ? 1 : p)
		}'
}
printf '%s, -run %q, %d runs a side %s\n' "$ref → working tree" "$run" "$n" "${race:+(-race)}"
printf '%-22s %8s %8s %8s\n' class parent change p
for ((i = 0; i <= ${#classes[@]}; i += 2)); do
	c=${classes[i]:-unknown}
	p=${fails[parent,$c]:-0} ch=${fails[change,$c]:-0}
	printf '%-22s %8d %8d %8s\n' "$c" "$p" "$ch" "$(fisher "$p" "$ch" "$n")"
done
printf '%-22s %8d %8d %8s\n' "any failure" "${fails[parent,any]:-0}" "${fails[change,any]:-0}" \
	"$(fisher "${fails[parent,any]:-0}" "${fails[change,any]:-0}" "$n")"
echo "logs of failing runs: $out" >&2
