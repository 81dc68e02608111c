//go:build !race

package transport

// raceEnabled reports whether the race detector instruments this build.
// Allocation-count assertions skip under it: the detector allocates on its
// own.
const raceEnabled = false
