//go:build race

package transport

// raceEnabled reports whether the race detector instruments this build.
// See race_off_test.go for why allocation assertions consult it.
const raceEnabled = true
