//go:build race

package client

// raceEnabled reports whether the race detector is active: its
// instrumentation moves values to the heap that a normal build keeps on the
// stack, so allocation counts are meaningless under -race.
const raceEnabled = true
