//go:build !race

package histogram

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
