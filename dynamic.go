package softbarrier

import (
	"context"
	"sync"
	"sync/atomic"

	rt "softbarrier/internal/runtime"
	"softbarrier/internal/topology"
)

// DynamicBarrier is the paper's dynamic-placement barrier (§5.1, Fig. 7):
// an MCS-style combining tree in which a participant that completes a
// counter above its own — meaning it arrived last in that counter's whole
// subtree — swaps into that counter's local slot as it climbs, displacing
// the slot's previous occupant (the victim) into the position the victor
// just vacated. Under systemic load imbalance, or fuzzy barriers with
// enough slack, the consistently slow participant migrates to the root
// and synchronizes in O(1) counter updates instead of O(log p).
//
// The swap protocol follows the paper's two-phase scheme: the victor
// writes its id into the counter's Local entry and its previous first
// counter into the Destination entry; at its next episode the victim
// notices it was displaced, reads Destination (the one extra
// communication, paid by the faster processor) and adopts it. Swap writes
// happen during the ascent, before the victor updates the parent counter,
// so they are always ordered before the episode's release.
//
// Release and telemetry run on the shared internal/runtime core; an
// installed Observer additionally sees the cumulative swap count per
// episode.
type DynamicBarrier struct {
	p        int
	tree     *topology.Tree
	counters []dynCounter
	first    []rt.PaddedUint64 // per-participant first counter (owner-written)
	ringOf   []int

	gate  rt.Gate
	myGen []rt.PaddedUint64

	swaps atomic.Uint64
	rec   *rt.Recorder
	red   *rt.Reducer // payload reducer; nil without WithCollective
	poisonCore
}

// dynCounter is a tree node's counter plus the dynamic-placement fields.
type dynCounter struct {
	mu    sync.Mutex
	count int
	fanIn int
	// local is the participant occupying the counter's local slot, or
	// topology.NoProc (the ring merge root accepts no migrants). For
	// internal counters it always names the participant whose first
	// counter this is.
	local int
	// evicted/destination implement the victim hand-off: evicted names the
	// displaced participant (one-shot, cleared on consumption) and
	// destination its new first counter.
	evicted     int
	destination int
	ring        int
	parent      int
	internal    bool
	_           [8]byte
}

// NewDynamic returns a dynamic-placement barrier for p participants over
// an MCS-style tree of the given degree.
func NewDynamic(p, degree int, opts ...Option) *DynamicBarrier {
	return NewDynamicFromTree(topology.NewMCS(p, degree), opts...)
}

// NewDynamicRing returns a dynamic-placement barrier whose tree is
// ring-constrained (one subtree per ring merged by an extra root), as used
// on the KSR1: swaps never cross ring boundaries.
func NewDynamicRing(ringSizes []int, degree int, opts ...Option) *DynamicBarrier {
	return NewDynamicFromTree(topology.NewRing(ringSizes, degree), opts...)
}

// NewDynamicFromTree builds the barrier over an explicit topology. Use
// topology.NewMCS or topology.NewRing; classic trees have no local slots
// and would never migrate anyone.
func NewDynamicFromTree(tree *topology.Tree, opts ...Option) *DynamicBarrier {
	o := applyOptions(opts)
	tree = placeTree(tree, o.placeOrder)
	b := &DynamicBarrier{
		p:        tree.P,
		tree:     tree,
		counters: make([]dynCounter, len(tree.Counters)),
		first:    make([]rt.PaddedUint64, tree.P),
		ringOf:   make([]int, tree.P),
		myGen:    make([]rt.PaddedUint64, tree.P),
	}
	for i := range b.counters {
		c := &tree.Counters[i]
		b.counters[i] = dynCounter{
			fanIn:       c.FanIn(),
			local:       c.Local,
			evicted:     topology.NoProc,
			destination: topology.NoCounter,
			ring:        c.RingID,
			parent:      c.Parent,
			internal:    len(c.Children) > 0,
		}
	}
	for id := 0; id < tree.P; id++ {
		b.first[id].V = uint64(tree.FirstCounter(id))
		b.ringOf[id] = tree.RingOf(id)
	}
	b.gate.Init(o.policy)
	b.rec = o.recorder(tree.P, false)
	b.red = o.reducer(tree.P, len(tree.Counters))
	b.initPoison(tree.P, o.watchdog,
		func() { b.gate.Poison() },
		func() {
			// Drop the aborted episode's partial counts. The placement
			// state (local slots, pending evictions) survives: it is a
			// consistent placement at every ascent boundary, and pending
			// victims adopt their destination on their next arrival.
			for i := range b.counters {
				c := &b.counters[i]
				c.mu.Lock()
				c.count = 0
				c.mu.Unlock()
			}
			if b.red != nil {
				b.red.Reset()
			}
			b.gate.Unpoison()
		})
	return b
}

// Participants returns P.
func (b *DynamicBarrier) Participants() int { return b.p }

// Degree returns the tree's construction degree.
func (b *DynamicBarrier) Degree() int { return b.tree.Degree }

// Swaps returns the total number of placement swaps performed so far.
func (b *DynamicBarrier) Swaps() uint64 { return b.swaps.Load() }

// FirstCounterOf returns participant id's current first counter. It is
// meaningful only at a quiescent point (no Wait/Arrive in flight); the
// slot is owner-written without cross-goroutine synchronization.
func (b *DynamicBarrier) FirstCounterOf(id int) int {
	checkID(id, b.p)
	return int(b.first[id].V)
}

// DepthOf returns the number of counters participant id currently updates
// per episode (its synchronization path length). Like FirstCounterOf it
// must be called at a quiescent point. A pending eviction the participant
// has not consumed yet is resolved as the victim itself would resolve it.
func (b *DynamicBarrier) DepthOf(id int) int {
	c := b.FirstCounterOf(id)
	if dc := &b.counters[c]; dc.evicted == id {
		c = dc.destination
	}
	n := 0
	for c != topology.NoCounter {
		n++
		c = b.counters[c].parent
	}
	return n
}

// Wait blocks until all participants arrive.
func (b *DynamicBarrier) Wait(id int) {
	b.Arrive(id)
	b.Await(id)
}

// Arrive performs the dynamic-placement ascent for participant id. On a
// poisoned barrier it is a no-op.
func (b *DynamicBarrier) Arrive(id int) {
	checkID(id, b.p)
	if b.poisoned() {
		return
	}
	b.noteArrive(id)
	gen := b.gate.Seq()
	b.rec.Arrive(id, gen)
	b.myGen[id].V = gen

	// Victim side (Fig. 6d): if we were displaced last episode, our stale
	// counter's Evicted entry names us; adopt the Destination and, when it
	// is an internal counter, take over its local slot.
	fc := int(b.first[id].V)
	cn := &b.counters[fc]
	cn.mu.Lock()
	if cn.evicted == id {
		cn.evicted = topology.NoProc
		dest := cn.destination
		cn.mu.Unlock()
		nc := &b.counters[dest]
		nc.mu.Lock()
		if nc.internal {
			nc.local = id
		}
		nc.mu.Unlock()
		fc = dest
		b.first[id].V = uint64(fc)
	} else {
		cn.mu.Unlock()
	}

	b.ascend(id, fc)
}

// ascend climbs from counter c, swapping into each completed counter above
// the participant's own (victor side, Fig. 6c), and releases the episode
// if the root completes.
func (b *DynamicBarrier) ascend(id, c int) {
	for c != topology.NoCounter {
		tc := &b.counters[c]
		tc.mu.Lock()
		tc.count++
		last := tc.count == tc.fanIn
		if last {
			tc.count = 0
		}
		tc.mu.Unlock()
		if !last {
			return
		}
		// id arrived last in c's whole subtree: position itself here
		// before touching the parent, so the swap is ordered before any
		// possible release.
		if fc := int(b.first[id].V); c != fc {
			tc.mu.Lock()
			if tc.local != topology.NoProc && tc.ring == b.ringOf[id] {
				tc.evicted = tc.local
				tc.destination = fc
				tc.local = id
				tc.mu.Unlock()
				b.first[id].V = uint64(c)
				b.swaps.Add(1)
			} else {
				tc.mu.Unlock()
			}
		}
		c = tc.parent
	}
	// Root completed: measure while the arrival slots are quiescent, then
	// release everyone.
	b.rec.Release(b.gate.Seq(), rt.Extra{Swaps: b.swaps.Load(), Degree: b.tree.Degree})
	b.gate.Open()
}

// AllReduce contributes in, completes one episode, and copies the
// reduction of all p contributions into out — TreeBarrier.AllReduce over
// the dynamic-placement ascent. Under systemic imbalance the placement
// migration is itself the σ-aware reduction policy: the consistently late
// participant ends up adjacent to the root, so its contribution folds
// last and the post-arrival critical path shrinks to O(1) folds.
func (b *DynamicBarrier) AllReduce(id int, in, out []byte) error {
	if b.red == nil {
		return ErrNoCollective
	}
	gen, ok := b.arriveColl(id, in, reduceMode(b.red.Op()), 0)
	return b.finishColl(id, gen, ok, out)
}

// Reduce is AllReduce with the result delivered only to root.
func (b *DynamicBarrier) Reduce(id, root int, in, out []byte) error {
	if b.red == nil {
		return ErrNoCollective
	}
	checkID(root, b.p)
	gen, ok := b.arriveColl(id, in, reduceMode(b.red.Op()), 0)
	if id != root {
		out = nil
	}
	return b.finishColl(id, gen, ok, out)
}

// Broadcast completes one episode delivering root's buf into every other
// participant's buf.
func (b *DynamicBarrier) Broadcast(id, root int, buf []byte) error {
	if b.red == nil {
		return ErrNoCollective
	}
	checkID(root, b.p)
	gen, ok := b.arriveColl(id, buf, collBcast, root)
	if id == root {
		buf = nil
	}
	return b.finishColl(id, gen, ok, buf)
}

// ArriveReduce is the fuzzy half of AllReduce: contribute and ascend
// without waiting; collect with AwaitResult.
func (b *DynamicBarrier) ArriveReduce(id int, in []byte) error {
	if b.red == nil {
		return ErrNoCollective
	}
	b.arriveColl(id, in, reduceMode(b.red.Op()), 0)
	return nil
}

// AwaitResult blocks until ArriveReduce's episode completes and copies
// its reduction into out (nil discards it).
func (b *DynamicBarrier) AwaitResult(id int, out []byte) error {
	if b.red == nil {
		return ErrNoCollective
	}
	checkID(id, b.p)
	return b.finishColl(id, b.myGen[id].V, true, out)
}

// arriveColl is Arrive carrying a payload; see TreeBarrier.arriveColl.
func (b *DynamicBarrier) arriveColl(id int, in []byte, mode uint8, root int) (gen uint64, ok bool) {
	checkID(id, b.p)
	checkContribution(b.red, in)
	if b.poisoned() {
		return 0, false
	}
	b.noteArrive(id)
	gen = b.gate.Seq()
	b.rec.Arrive(id, gen)
	b.myGen[id].V = gen
	switch mode {
	case collCells:
		b.red.Deposit(gen, id, in)
	case collBcast:
		if id == root {
			b.red.Deposit(gen, id, in)
		}
	}

	// Victim adoption, as in Arrive.
	fc := int(b.first[id].V)
	cn := &b.counters[fc]
	cn.mu.Lock()
	if cn.evicted == id {
		cn.evicted = topology.NoProc
		dest := cn.destination
		cn.mu.Unlock()
		nc := &b.counters[dest]
		nc.mu.Lock()
		if nc.internal {
			nc.local = id
		}
		nc.mu.Unlock()
		fc = dest
		b.first[id].V = uint64(fc)
	} else {
		cn.mu.Unlock()
	}

	var carry []byte
	if mode == collGreedy {
		carry = in
	}
	b.ascendColl(id, fc, carry, mode, root, gen)
	return gen, true
}

// ascendColl is ascend with the payload fold threaded through the swap
// protocol: the fold shares each counter's critical section, and swaps
// proceed exactly as in the plain ascent — a greedy carry is attached to
// the ascending participant, not to a tree position, so migration cannot
// drop or double-fold a contribution.
func (b *DynamicBarrier) ascendColl(id, c int, carry []byte, mode uint8, root int, gen uint64) {
	for c != topology.NoCounter {
		tc := &b.counters[c]
		tc.mu.Lock()
		if mode == collGreedy {
			b.red.FoldNode(c, carry)
		}
		tc.count++
		last := tc.count == tc.fanIn
		if last {
			tc.count = 0
			if mode == collGreedy {
				carry = b.red.TakeNode(c)
			}
		}
		tc.mu.Unlock()
		if !last {
			return
		}
		if fc := int(b.first[id].V); c != fc {
			tc.mu.Lock()
			if tc.local != topology.NoProc && tc.ring == b.ringOf[id] {
				tc.evicted = tc.local
				tc.destination = fc
				tc.local = id
				tc.mu.Unlock()
				b.first[id].V = uint64(c)
				b.swaps.Add(1)
			} else {
				tc.mu.Unlock()
			}
		}
		c = tc.parent
	}
	switch mode {
	case collGreedy:
		b.red.PublishCarry(gen, carry)
	case collCells:
		b.red.FinishCells(gen, b.p)
	case collBcast:
		b.red.PublishCell(gen, root)
	}
	b.rec.Release(b.gate.Seq(), rt.Extra{Swaps: b.swaps.Load(), Degree: b.tree.Degree})
	b.gate.Open()
}

// finishColl awaits the episode and copies its result out; see
// TreeBarrier.finishColl.
func (b *DynamicBarrier) finishColl(id int, gen uint64, contributed bool, out []byte) error {
	b.Await(id)
	if err := b.Err(); err != nil {
		return err
	}
	if contributed && out != nil {
		b.red.CopyResult(gen, out)
	}
	return nil
}

// Await blocks participant id until the episode it arrived in completes
// or the barrier is poisoned.
func (b *DynamicBarrier) Await(id int) {
	checkID(id, b.p)
	b.gate.Await(b.myGen[id].V)
}

// WaitCtx is Wait with cancellation: if ctx ends while the wait is in
// flight the barrier is poisoned, and the poison error is returned.
func (b *DynamicBarrier) WaitCtx(ctx context.Context, id int) error {
	checkID(id, b.p)
	return b.waitCtx(ctx, func() { b.Wait(id) })
}

// AwaitCtx is Await with cancellation, with WaitCtx's poison semantics.
func (b *DynamicBarrier) AwaitCtx(ctx context.Context, id int) error {
	checkID(id, b.p)
	return b.waitCtx(ctx, func() { b.Await(id) })
}

var _ PhasedBarrier = (*DynamicBarrier)(nil)
var _ ContextBarrier = (*DynamicBarrier)(nil)
var _ Collective = (*DynamicBarrier)(nil)
