//go:build race

package hold

// raceEnabled reports whether the race detector is active: its
// instrumentation allocates, so the allocation fence skips itself under
// -race, and the model checker explores a smaller bound.
const raceEnabled = true
