//go:build race

package checker

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
