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

# PR 24 raised it by 78 (the issue's prototype: +73): 36 are the ownership
# engine's three emission chunks with take/validate and the doc of what a move
# now makes, 23 queue.pushAll beside push (a direct push is 8 ns cheaper than a
# batch of one), 14 the counted-ack counter the two de-flaked coalescing tests
# read, 12 the Decoder's six ownership chunks and their retention bound; the
# hub's free-list machinery (-45) and the generic put folding Decoder.ack/val/
# settle (-24) are already netted out of mem.go, codec.go and decoder.go.
# Raised by 251 for Set's adoption of the caller's bytes: 125 are replaceonly's
# frozen-after-Set rule (alias links to a root variable, fresh assignments,
# the after/loop/closure test, one write walk shared with the payload rule)
# and 90 its golden fixture; 3 the Decoder's lease chunk; the rest is the new
# contract's doc on Set, Slot, Chunk and the two reordered ownership records.
# The write path itself (Set adopting val, the Slot taken from a chunk, the
# resend deadline as an offset) is net zero lines.
# Lowered by 623 to 25316 when testdata/ stopped being counted (the lint
# fixtures are golden inputs, not shipped code), then raised by 136 for what a
# replica costs: 100 in internal/store (code: the open-addressing index with
# backward-shift deletion, ~48, and the history record behind one pointer plus
# the unpacked o_ts/o_replicas with their accessors and setters, ~31; docs: the
# index paragraph of the package doc and the record's new layout, 21), 10 for Seed
# adopting data (the clip, and the contract on three Seed docs) and 26 for
# replaceonly's table of adopting calls, which now holds Seed as well as Set.
# Lowered by 535 to 24917: zeuslint went from six analyzers to four (obsrecord
# deleted, three hand-off rules merged into frozen); the ceiling first written
# for it, 24882, was 35 below what that tree counts, so --check failed on it.
# Raised by 20 for the 96-byte store.Object: 19 in internal/store (code: the
# yield behind the cold pointer, cleared and its lone record dropped on the next
# local grant, ~6; docs: the record's cost in the package doc, why the yield
# lives in the cold record, what drop and recover clear, ~13) and 1 for
# retry.TimerGranularity's lock-free probe.
# Raised by 68 for the 80-byte store.Object, all in internal/store: 28 code
# (the cold records' pool with the helpers that take one and give it back once
# empty, the arbitration reached through the cold record, the payload's two
# string-view conversions), 33 docs (what the cold record now holds and when it
# goes back, why the payload needs no capacity word), 7 blank. Then by 5 for
# empty values reading as nil: 3 in the ring's publish (an empty payload is
# stored as nil there too), 2 in the Get docs of core.Tx and dbapi.Txn.
# Raised by 21 for shard tables that fill their allocation, all in
# internal/store: 8 code (home's fastrange and next's wrap, which a table
# whose length is not a power of two needs in place of a mask), 11 docs (the
# growth rule and the malloc header in the package doc, home, next, grow), 2
# blank.
# Lowered by 49 to 24982 when knobs that only one value reached became the
# code's own: ownership's attempt timeout, acquire deadline and back-off are
# package constants, the cluster's lease is View.Lease alone, the view
# service's heartbeat is derived only, core.Config carries a latency observer
# instead of a whole ownership.Config, NewNode registers an endpoint's
# transport counters for both node builders, and two dead lines went.
# Lowered by 79 to 24903 when a node's configuration became one declaration:
# cluster.Options embeds core.Config instead of re-declaring eight of its
# fields and copying them back in startNode, storage and registry are NewNode
# arguments, the 3/8 defaults live in Config.WithDefaults alone (zeus.New
# leaves them to cluster.New, zeusd's flags read them), one DefaultReaders
# replaces the cluster's
# and Node.Placement's two copies of the reader rule, memstorage's Recover
# reopens the store (Reopen and its probe went), and the ZEUS_WEDGE_DUMP hook
# became a plain WedgeDump call. No knob was removed.
# Lowered by 122 to 24781 when the knobs no caller set left the public API and
# the simulated fabric kept one send path and one fault path: Reliable's
# per-message send path (sendNoDelay and its branches in Send, SendBatch,
# Multicast, the MinRTO floor, flushLoop's start and the counted-ack rule),
# netsim's shared RNG stream beside the hashed one (DeterministicDrops), the
# Transport/Reliable/DispatchShards/SafeTimeInterval fields with their
# plumbing, and the transport experiment's second run. The 122 are net of 5
# for the fix that counts a netsim frame delivered before its receiver can
# hold it.
# Lowered by 306 to 24475 when the distributed-commit baseline served each
# request with one function, local or remote: internal/baseline 680 → 509
# (the five local fast paths, the per-kind handlers, call and reply went;
# serve, ask and Handle remain), internal/wire msgs + codec 1565 → 1430 (four
# reply kinds folded into BResp, the requests' unread From field, and
# EncodedSize with its two helpers), examples/gateway −10 and bench −3 (no
# Router to build for a baseline node); Figure 13's one-server blocking store
# as its own helper, +12.
# Lowered by 13 to 24462 when a restart became a new member: core's state sync
# lost the claim/hint fences, their wire class and ReclaimLocked's hint branch
# (sync.go −77, store −5), and the view service's removedAt (−6) gave way to a
# join-epoch record with its codec (+44 in viewsvc and wire); the reclaim's
# deadline-bounded AcquireOwnershipBy (+11), the history checker's exact
# real-time pass, with one writer index and one check path for both of its
# entry points (±0), and WedgeDump's ownership half (+20) ride along.
# Raised by 8 to 24470: OwnReq/OwnInv.Holds and GrantLocked's refusals, net of the replica-set inference and BareGrants.
# Lowered by 296 to 24174 when a restart stopped pulling: the state-sync protocol, its quiet period, its two wire kinds and transport.Broadcast went.
# Held at 24174 when a lease per worker replaced the round robin and Tx recycling (dbapi.Recycler, Recycle, parked, nextWorker), net of its docs, Begin's random start and the SLO experiment's per-lane workers; GrantLocalLocked's holder re-grant and dbapi's unused RunWith/RunROWith went.
# Lowered by 399 to 23775 when one experiments.Table and its registry replaced seventeen result types, printers and wrappers, net of Begin's exact busy answer.
# Lowered by 116 to 23659 when a replayed R-INV became a slot on an adopted pipe and only an R-ACK acknowledges a slot: the replay table, its resend half and the AppliedWM sweep went, net of the follower's retry of a failed WAL append and Figure 7's note.
# Lowered by 674 to 22985 when read-only transactions kept one path: snapshot reads, the safe-time exchange, the hybrid clock, the version ring and the commit timestamps went, net of Get's refusal of a dropped replica and readscale's reader pacing.
# Raised by 81 to 23066 (the tree grew by 82 from 22 984) for the 64-byte
# store.Object and the bounds that make its narrowed fields structural: 26 in
# internal/store (the cold side table's get and put, with the two o_state bits
# that keep hot paths off it, o_state's setter and mask, the yield a grant
# ends when ownership leaves, the payload's pointer-and-length setter and
# reader, and their docs, net of the two sync.Pools, their helpers and
# pendingRec), 26 in internal/core (MaxWorkers and NewNode's refusal; Set's
# and CreateObject's refusal of writes one R-INV cannot carry, with the
# transaction's running size), 12 in internal/cluster (Seed's refusal and the
# error it returns through SeedAt and SeedRange), 12 in internal/wire (MaxBlob
# exported, MaxMsg, UpdateSize, their docs), 3 in cmd/zeusd (-workers checked)
# and 3 in zeus.go (Seed's error, the bound in the docs of Set and Seed).
# Raised by 261 to 23327 when a pipe's R-ACKs and R-VALs left as one message
# each per flush, one bit a slot: 210 in internal/commit (the window and its
# add, the list flushOut emits from, enqueue split into queue and arm, the
# two sealers, the window paths of ackDurable, completeSlot, handleAck and
# handleVal, the five counters; 63 of the 210 are comments and blanks), 29 in internal/wire
# (CommitAck/CommitVal.More, its codec, Slots and the two docs), 13 in
# commit's dump and metrics, 9 in zeuslint (ackdurable's doc names the new
# emission site, frozen's table holds queue).
# Lowered by 19 to 23308 when the hub handed every message over by pointer:
# its Decoder, decMu, decode and roundtrip's marshal/decode branches went
# (mem.go −55), net of wire.Size sizing every kind (+18 over CommitSize), the
# view service's two lease-record chunks (+12), cluster's fabric seam for
# tests (+3) and the docs of the one rule (+3). Then raised by 157 to 23465
# for three ownership fixes and a shared fixture: 55 in internal/ownership (a
# data source ACKs a replayed INV only once its Write value committed,
# ackOnceCommitted on a goroutine of its own, 36; an INV refused for an
# arbitration of an earlier epoch replays it, and a replay of an earlier
# epoch gives way, 11; isSource shared by buildAck, 8), 35 in internal/store
# (the TLeaving flag on t_state: set by InvalidateLocked on a replica the INV
# drops, carried by the commit transitions, cleared by the grant; 19 of the
# 35 are docs), 3 in core's and viewsvc's docs, and 64 for
# internal/wire/wiretest, the all-kinds message fixture that wire's and
# transport's tests share instead of each keeping a copy.
# Raised by 127 to 23592 when a returned write became durable: 50 in
# internal/commit (Slot.Wait and ErrClosed, the pipe's sync.Cond with the
# broadcasts of completeSlot and Close, newOutPipe, WaitIdle sleeping on the
# Cond instead of polling), 36 in internal/core (CommitDurable with the commit
# it shares with Commit, and a closed node's Begin answering ErrClosed, so an
# Update retrying conflicts at Close stops instead of retrying for 30 s), 13
# in zeus.go (the DB whose Commit is CommitDurable, net of WaitIdle,
# WaitReplication and Durable), 22 in internal/ownership (an arb-replay whose
# data source died takes a live reader as source, the rule handleReq applies
# to a fresh request, now one function both call), 7 for dbapi.Run's doc,
# and -1 in the quickstart.
max_lines=23592  # non-test Go outside benchmark/, testdata/ excluded
# Lowered from 77 by those five fields: ownership.Config's AttemptTimeout,
# Deadline and Retry, cluster.Options.Lease and viewsvc.Config.Heartbeat.
# Lowered from 72 to 62 by de-duplication, not by removing a knob: the eight
# core.Config fields cluster.Options re-declared (Degree, Workers,
# DispatchShards, OnOwnershipLatency, the snapshot-read switch, SafeTimeInterval,
# TraceSample, WatchdogAge) are counted once, in core.Config, and core.Config's
# Storage and Obs are per-node NewNode arguments (cluster.Options.Storage and
# Observability still set them). Every value a caller could set is settable.
# Lowered from 62 to 54 by deleting every option no caller in the tree set:
# zeus.Options' DispatchShards, Transport and SafeTimeInterval,
# cluster.Options.Reliable, core.Config's DispatchShards (derived:
# min(Workers, GOMAXPROCS)) and SafeTimeInterval (a 50µs constant),
# ReliableConfig.NoDelay and netsim.Config.DeterministicDrops (each with the
# second code path it selected).
# Lowered from 54 to 49 with the snapshot-read mode: zeus.Options' and
# core.Config's switches, commit.Config's Timestamps and Clock, and
# ownership.Config's Clock.
max_fields=49    # option fields

# testdata/ is what the go tool itself never builds (the lint fixtures).
lines() { find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' "$@" -print0 | xargs -0 cat | wc -l; }
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
