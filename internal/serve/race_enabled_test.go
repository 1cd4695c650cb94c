//go:build race

package serve

// raceEnabled reports whether the race detector is active; allocation
// guards skip under it because instrumentation changes alloc counts.
const raceEnabled = true
