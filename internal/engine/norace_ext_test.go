//go:build !race

package engine_test

// raceEnabled reports whether the race detector is compiled in; the
// larger differential sweeps shrink their workload sets under -race so
// the instrumented suite stays within CI budgets, and the allocation
// budgets skip (race builds change allocation counts).
const raceEnabled = false
