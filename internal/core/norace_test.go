//go:build !race

package core_test

// raceEnabled reports whether the race detector is compiled in; the
// reference-oracle matrix shrinks under instrumentation.
const raceEnabled = false
