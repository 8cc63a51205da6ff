//go:build race

package bench

// raceEnabled reports whether the race detector is compiled in; its shadow
// bookkeeping makes process-wide allocation counts meaningless.
const raceEnabled = true
