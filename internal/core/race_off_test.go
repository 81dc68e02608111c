//go:build !race

package core_test

// raceEnabled reports whether the race detector instruments this build. The
// one wall-time bound in this package (TestLargeReadOnlyAudit) is skipped
// under race: half a million instrumented atomic loads take 50× longer and
// say nothing about the access set.
const raceEnabled = false
