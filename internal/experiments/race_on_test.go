//go:build race

package experiments

// raceEnabled reports whether the race detector instruments this build.
// See race_off_test.go for why checks consult it.
const raceEnabled = true
