package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"

	"softbarrier"
	"softbarrier/internal/loadmodel"
	"softbarrier/internal/stats"
)

// schedLen is how many distinct episodes a schedule holds; a run cycles
// through them, so every input of every episode is fixed by the seed.
const schedLen = 2048

// schedule is a workload's seeded input: per-episode arrival offsets,
// per-member contributions, and the oracle's expected fold of each
// episode. The program under test sees only offsets (as arrival times)
// and contributions.
type schedule struct {
	p     int
	width int     // contribution bytes per member; 0 for plain arrivals
	offs  []int64 // schedLen*p arrival offsets, ns; each episode's minimum is 0
	data  []byte  // schedLen*p*width contributions, big-endian like the built-in ops
	want  []byte  // schedLen*width expected folds
	slow  []int   // persistent stragglers, ascending id
	op    softbarrier.Op
}

// splitSeed derives independent generator seeds for the parts of a
// schedule, so adding a part never shifts another's stream.
func splitSeed(seed uint64, part uint64) uint64 {
	z := seed + part*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// skewSchedule draws arrival offsets from loadmodel.StaticSkew over
// IID{p, Normal(0, sigma)} with nSlow persistent stragglers at +3σ, and
// float64 contributions for op. nSlow must divide p.
func skewSchedule(seed uint64, p int, sigma float64, nSlow int, op softbarrier.Op) *schedule {
	s := &schedule{p: p, width: op.Width, op: op}
	// One straggler per block of p/nSlow ids, so every driver's slice of
	// members holds the same number of them whatever the seed. When one
	// driver owns them all, the other finishes its arrivals early and
	// parks in AwaitResult, and each episode then pays a wake-up of an idle
	// CPU (~60µs on a 2-vCPU VM): a different regime, which the seed must
	// not choose.
	srng := stats.NewRNG(splitSeed(seed, 1))
	block := p / nSlow
	for j := 0; j < nSlow; j++ {
		s.slow = append(s.slow, j*block+srng.Intn(block))
	}
	skew := make([]float64, p)
	for _, id := range s.slow {
		skew[id] = 3 * sigma
	}
	gen := loadmodel.StaticSkew{Base: loadmodel.IID{N: p, Dist: stats.Normal{Sigma: sigma}}, Offsets: skew}
	rng := stats.NewRNG(splitSeed(seed, 2))
	s.offs = make([]int64, schedLen*p)
	t := make([]float64, p)
	for k := 0; k < schedLen; k++ {
		gen.Times(k, rng, t)
		lo := slices.Min(t)
		for i, x := range t {
			s.offs[k*p+i] = int64(math.Round((x - lo) * 1e9))
		}
	}
	crng := stats.NewRNG(splitSeed(seed, 3))
	s.fill(func(b []byte) {
		binary.BigEndian.PutUint64(b, math.Float64bits((crng.Float64()-0.5)*2000))
	})
	return s
}

// burstSchedule is a back-to-back schedule: every member is due at the
// episode's start (offsets all zero), contributing one seeded 8-byte value
// (op.Width must be 8); a zero-width op makes plain arrivals.
func burstSchedule(seed uint64, p int, op softbarrier.Op) *schedule {
	s := &schedule{p: p, width: op.Width, op: op}
	s.offs = make([]int64, schedLen*p)
	if op.Width == 0 {
		return s
	}
	crng := stats.NewRNG(splitSeed(seed, 3))
	s.fill(func(b []byte) { binary.BigEndian.PutUint64(b, crng.Uint64()) })
	return s
}

// fill draws every contribution with draw and computes the oracle folds.
func (s *schedule) fill(draw func([]byte)) {
	s.data = make([]byte, schedLen*s.p*s.width)
	s.want = make([]byte, schedLen*s.width)
	for k := 0; k < schedLen; k++ {
		for i := 0; i < s.p; i++ {
			draw(s.contrib(k, i))
		}
		s.foldInto(s.want[k*s.width:(k+1)*s.width], k)
	}
}

// foldInto is the oracle: the sequential ascending-id fold of episode k's
// contributions with the op's own Fold.
func (s *schedule) foldInto(dst []byte, k int) {
	copy(dst, s.contrib(k, 0))
	for i := 1; i < s.p; i++ {
		s.op.Fold(dst, s.contrib(k, i))
	}
}

func (s *schedule) contrib(k, i int) []byte {
	off := (k*s.p + i) * s.width
	return s.data[off : off+s.width : off+s.width]
}

func (s *schedule) expected(k int) []byte {
	return s.want[k*s.width : (k+1)*s.width]
}

// check reports whether got is episode k's oracle fold.
func (s *schedule) check(k int, got []byte) bool {
	return bytes.Equal(got, s.expected(k))
}

// encode is the schedule's canonical byte form: the same seed must give
// the same bytes.
func (s *schedule) encode() []byte {
	var b []byte
	for _, o := range s.offs {
		b = binary.BigEndian.AppendUint64(b, uint64(o))
	}
	for _, id := range s.slow {
		b = binary.BigEndian.AppendUint32(b, uint32(id))
	}
	b = append(b, s.data...)
	return append(b, s.want...)
}
