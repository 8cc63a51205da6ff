//go:build !race

package metrics

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
