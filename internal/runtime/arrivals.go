package runtime

import (
	"sync/atomic"
	"time"
)

// arrivalShardSize is how many participant counters share one shard — one
// 64-byte cache line's worth of uint64s, so a shard is exactly one line.
const arrivalShardSize = 8

// arrivalShard is one cache line of arrival counters. Participants
// id*8 … id*8+7 share it.
type arrivalShard struct {
	v [arrivalShardSize]atomic.Uint64
}

// arrivalSet is one epoch's counters: p participants packed 8 per shard
// line. p is carried separately because the last shard may be partial.
type arrivalSet struct {
	p      int
	shards []arrivalShard
}

func newArrivalSet(p int) *arrivalSet {
	return &arrivalSet{p: p, shards: make([]arrivalShard, (p+arrivalShardSize-1)/arrivalShardSize)}
}

func (s *arrivalSet) at(id int) *atomic.Uint64 {
	return &s.shards[id/arrivalShardSize].v[id%arrivalShardSize]
}

// Arrivals is a set of per-participant arrival counters, sharded eight to
// a cache line. It is the shared substrate of the package's stall
// detection: each participant (or, for a networked barrier, the goroutine
// reading that participant's socket) bumps its own counter with Note, and
// a monitor goroutine — the WithWatchdog poller, or a remote coordinator
// reporting per-client progress — reads across all counters with
// Snapshot/Scan. The counters are exported so that remote barrier servers
// can surface "who has arrived how often" without reaching into a
// barrier's internals.
//
// Sharding choice: each counter is written once per episode by its owner
// but read p-at-a-time by every watchdog scan, so the counters are packed
// shard-per-cache-line (eight participants per 64-byte line) rather than
// padded one-per-line — a scan at p participants touches p/8 lines instead
// of p, cutting the monitor's cross-core traffic 8× at high p, while the
// writers' false sharing costs one line bounce per arrival at worst.
//
// The shard slice sits behind an atomic pointer so an elastic barrier can
// Resize the participant count at an episode boundary while the watchdog
// goroutine keeps scanning: readers always see either the old or the new
// set, never a torn one.
type Arrivals struct {
	set atomic.Pointer[arrivalSet]
}

// NewArrivals returns counters for p participants, all zero.
func NewArrivals(p int) *Arrivals {
	a := &Arrivals{}
	a.set.Store(newArrivalSet(p))
	return a
}

// Resize replaces the counters with p fresh zeroed slots. It must run at a
// quiescent point (no participant between Note calls for the same
// episode); all counts restart from zero so a concurrent Scan sees a
// uniform baseline rather than phantom laggards.
func (a *Arrivals) Resize(p int) {
	a.set.Store(newArrivalSet(p))
}

// Len returns the number of participants.
func (a *Arrivals) Len() int { return a.set.Load().p }

// Note records one arrival of participant id. Each id's counter is written
// by its owner only; Note is safe against concurrent readers.
func (a *Arrivals) Note(id int) { a.set.Load().at(id).Add(1) }

// Count returns participant id's arrival count.
func (a *Arrivals) Count(id int) uint64 { return a.set.Load().at(id).Load() }

// Snapshot copies the current counts into dst, which is grown as needed,
// and returns it. Pass a reused buffer to avoid per-call allocation.
func (a *Arrivals) Snapshot(dst []uint64) []uint64 {
	s := a.set.Load()
	if cap(dst) < s.p {
		dst = make([]uint64, s.p)
	}
	dst = dst[:s.p]
	for i := range dst {
		dst[i] = s.at(i).Load()
	}
	return dst
}

// Scan snapshots the counters and classifies the step since prev (a
// snapshot from an earlier Scan; nil on the first call): changed reports
// whether any counter moved, equal whether all counters now agree. A
// watchdog treats "changed" as progress and "equal" as quiescence between
// episodes; a scan that is neither — frozen while unequal — is a stalled
// episode. The returned slice holds the new snapshot and must be passed to
// the next Scan. A Resize between scans changes the slot count; Scan then
// reallocates and reports progress, restarting the watchdog's clock for
// the new epoch.
func (a *Arrivals) Scan(prev []uint64) (next []uint64, changed, equal bool) {
	s := a.set.Load()
	if len(prev) != s.p {
		prev = make([]uint64, s.p)
		changed = true // membership changed: that is progress
	}
	hi, lo := uint64(0), ^uint64(0)
	for i := range prev {
		v := s.at(i).Load()
		if v != prev[i] {
			changed = true
		}
		prev[i] = v
		if v > hi {
			hi = v
		}
		if v < lo {
			lo = v
		}
	}
	equal = hi == lo
	return prev, changed, equal
}

// Reset zeroes every counter. Only meaningful at a quiescent point.
func (a *Arrivals) Reset() {
	s := a.set.Load()
	for i := 0; i < s.p; i++ {
		s.at(i).Store(0)
	}
}

// Missing returns, in ascending order, the participant ids whose count in
// counts is strictly below the maximum — the participants that had not
// arrived at the episode the snapshot caught in flight.
func Missing(counts []uint64) []int {
	hi := uint64(0)
	for _, v := range counts {
		if v > hi {
			hi = v
		}
	}
	ids := make([]int, 0, len(counts))
	for i, v := range counts {
		if v < hi {
			ids = append(ids, i)
		}
	}
	return ids
}

// Watch is the stall detector every watchdog in the module runs — the
// in-process barriers' WithWatchdog and the networked sessions' — polling
// a's counters a few times per period d until stop is closed. An episode
// is stalled when the counters are frozen while unequal: someone arrived
// (its count leads) and the others made no progress. Frozen-equal
// counters mean the barrier is idle between episodes — participants off
// doing step work arbitrarily long — which is never reported. After d of
// no movement, stalled receives the absent ids and how long nothing
// moved, so the error it raises can say who to go debug. While paused
// reports true (a poisoned barrier) nothing is scanned and the clock
// restarts.
func Watch(a *Arrivals, d time.Duration, stop <-chan struct{}, paused func() bool, stalled func(missing []int, waited time.Duration)) {
	tick := d / 4
	if tick < 100*time.Microsecond {
		tick = 100 * time.Microsecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	var prev []uint64
	last := time.Now() // when progress (or quiescence) was last observed
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		if paused() {
			last = time.Now()
			continue
		}
		var changed, equal bool
		prev, changed, equal = a.Scan(prev)
		if changed || equal {
			last = time.Now()
			continue
		}
		if waited := time.Since(last); waited >= d {
			stalled(Missing(prev), waited)
		}
	}
}
