//go:build !race

package experiments

// raceEnabled reports whether the race detector instruments this build.
// Timing-sensitive checks (the replicated-versus-unreplicated goodput margin
// at the tiny test scale) loosen their thresholds under race: the
// instrumentation slows one side's measurement enough to invert it, which is
// measurement noise, not a regression.
const raceEnabled = false
