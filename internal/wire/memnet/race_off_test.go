//go:build !race

package memnet

// raceEnabled reports whether the race detector is compiled in. The strict
// allocation gate is skipped under -race: the detector instruments every
// allocation site and the counts stop meaning anything.
const raceEnabled = false
