//go:build !race

package loadgen

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
