//go:build race

package memnet

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
