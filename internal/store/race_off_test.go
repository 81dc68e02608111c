//go:build !race

package store

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
