//go:build race

package loadgen

// raceEnabled reports whether the race detector is compiled in; its shadow
// bookkeeping makes allocation counts meaningless.
const raceEnabled = true
