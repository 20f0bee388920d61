//go:build !race

package softbarrier

// raceEnabled reports whether the race detector is compiled in. The strict
// allocation gates are skipped under -race: the detector instruments every
// allocation site and the counts stop meaning anything.
const raceEnabled = false
