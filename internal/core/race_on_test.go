//go:build race

package core_test

// raceEnabled reports whether the race detector instruments this build.
// See race_off_test.go.
const raceEnabled = true
