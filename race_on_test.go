//go:build race

package softbarrier

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
