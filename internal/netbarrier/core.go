package netbarrier

import (
	"sync"
	"sync/atomic"

	"softbarrier/internal/reconfig"
	rt "softbarrier/internal/runtime"
	"softbarrier/internal/topology"
)

// core is a session's combining tree, driven by its members' arrival
// frames: the paper's counters and nothing else. An arrival climbs from
// its participant's first counter until it meets a counter whose fan-in is
// still incomplete; the arrival that completes the root completes the
// episode. There is no gate and no waiter — members wait on their
// sockets — and an arrival counts toward the frame episode the session
// already validated, never a generation read from shared state: an
// arrival for episode k+1 racing the tail of episode k's release lands in
// k+1's recorder and reducer slots by construction.
//
// Everything an arrival touches sits behind one atomic pointer to a
// per-epoch header. The session replaces it only at its episode boundary,
// a quiescent point: every arrival of the episode is in, and no member
// can send the next one before it receives the release the boundary
// broadcasts after publishing the new header.
type core struct {
	hdr atomic.Pointer[header]
	mcs bool // build MCS trees even without dynamic placement (a placement policy needs depth diversity)
}

// header is one epoch of the core: the tree, its counters, the
// participant → first-counter table, and the session's shared recorder,
// reducer and arrival counters (re-sized, not replaced, when membership
// changes). A placement publishes a copy of the header with a relabelled
// first table; tree and counters are shared with the original.
type header struct {
	p        int
	tree     *topology.Tree
	counters []counter
	// first[id] is the counter participant id starts its climb at: the
	// tree's own table for the natural placement, else a relabelled copy.
	// It is never written once published — except in dynamic headers,
	// whose private copy the paper's swaps rearrange during the climb.
	first []int
	// local, for dynamic headers only, names the participant in each
	// counter's local slot; the swap target's occupant is the victim.
	local []int
	// order is the placement order first was relabelled with, nil for the
	// natural ascending-id placement; slots is tree.SlotsByDepth(),
	// computed on the epoch's first placement and carried forward.
	order []int
	slots []int

	greedy bool         // commutative op: fold during the climb, not in id order at the root
	red    *rt.Reducer  // nil for a plain session
	rec    *rt.Recorder // arrival times, for the σ estimate and placement lags
	arr    *rt.Arrivals // per-participant arrival counts, for the watchdog
}

// counter is one tree node's arrival counter.
type counter struct {
	mu     sync.Mutex
	count  int
	fanIn  int
	parent int
	_      [32]byte // separate counters across cache lines
}

// newCore builds the core for the session's initial plan over its shared
// recorder, reducer (nil for a plain session) and arrival counters.
func newCore(plan reconfig.Plan, mcs bool, red *rt.Reducer, rec *rt.Recorder, arr *rt.Arrivals) *core {
	c := &core{mcs: mcs}
	greedy := red != nil && red.Op().Commutative
	c.hdr.Store(&header{p: plan.P, greedy: greedy, red: red, rec: rec, arr: arr})
	c.rebuild(plan, nil)
	return c
}

// rebuild publishes a fresh header for plan — a re-plan or a membership
// change — with its participants placed by order (nil: natural), and
// re-sizes the shared recorder, reducer and arrival counters to match.
// Boundary-only. A plan with dynamic placement, or a core armed for a
// placement policy, builds the MCS shape: classic trees put every
// participant at the same leaf depth, leaving nothing to move.
func (c *core) rebuild(plan reconfig.Plan, order []int) {
	prev := c.hdr.Load()
	var tree *topology.Tree
	if c.mcs || plan.Dynamic {
		tree = topology.NewMCS(plan.P, plan.Degree)
	} else {
		tree = topology.NewClassic(plan.P, plan.Degree)
	}
	h := &header{
		p: plan.P, tree: tree, counters: make([]counter, len(tree.Counters)), first: tree.FirstCounters(),
		greedy: prev.greedy, red: prev.red, rec: prev.rec, arr: prev.arr,
	}
	for i := range h.counters {
		h.counters[i].fanIn = tree.Counters[i].FanIn()
		h.counters[i].parent = tree.Counters[i].Parent
	}
	if plan.Dynamic {
		h.first = append([]int(nil), h.first...)
		h.local = locals(tree, h.first)
	}
	if order != nil {
		h = h.withPlacement(order)
	}
	if plan.P != prev.p {
		h.rec.Resize(plan.P)
		h.arr.Resize(plan.P)
	}
	h.red.Resize(plan.P, len(h.counters))
	c.hdr.Store(h)
}

// place publishes the running epoch relabelled by order. Boundary-only:
// every counter is back at zero there and the reducer's node
// accumulators are empty, so only the first table changes.
func (c *core) place(order []int) { c.hdr.Store(c.hdr.Load().withPlacement(order)) }

// withPlacement returns a copy of h whose participants are relabelled by
// order: order[k] takes the k-th shallowest attachment slot,
// topology.PlaceByDepth's assignment. h itself is untouched.
func (h *header) withPlacement(order []int) *header {
	next := *h
	if next.slots == nil {
		next.slots = h.tree.SlotsByDepth()
	}
	next.first = topology.Relabel(next.slots, order)
	next.order = order
	if h.local != nil {
		next.local = locals(h.tree, next.first)
	}
	return &next
}

// locals derives the local-slot occupants from a first table: an internal
// MCS counter has exactly one attached participant, the one starting at
// it. (Leaf entries name one of their participants; swaps never target a
// leaf, so which one is immaterial.)
func locals(tree *topology.Tree, first []int) []int {
	local := make([]int, len(tree.Counters))
	for id, c := range first {
		local[c] = id
	}
	return local
}

// arrive applies participant id's arrival at episode ep, carrying in (the
// op's contribution; nil for a plain session), and reports whether it
// completed the root. ep must be the frame episode the session
// validated: it selects the recorder and reducer parity slots. On
// completion the episode's fold is published (Reducer.Result(ep)) and its
// arrival times are in the recorder; the caller then owns the quiescent
// point until it lets the next episode's arrivals in.
func (c *core) arrive(id int, ep uint64, in []byte) bool {
	h := c.hdr.Load()
	h.arr.Note(id)
	h.rec.Arrive(id, ep)
	var carry []byte
	if h.greedy {
		carry = in
	} else if h.red != nil {
		h.red.Deposit(ep, id, in)
	}
	for n := h.first[id]; n != topology.NoCounter; {
		tc := &h.counters[n]
		tc.mu.Lock()
		if h.greedy {
			h.red.FoldNode(n, carry)
		}
		tc.count++
		last := tc.count == tc.fanIn
		if last {
			tc.count = 0
			if h.greedy {
				carry = h.red.TakeNode(n)
			}
			if h.local != nil {
				h.swap(id, n)
			}
		}
		tc.mu.Unlock()
		if !last {
			return false
		}
		n = tc.parent
	}
	if h.greedy {
		h.red.PublishCarry(ep, carry)
	} else if h.red != nil {
		h.red.FinishCells(ep, h.p)
	}
	return true
}

// swap is the paper's dynamic placement (§5.1): id arrived last in
// counter n's whole subtree, so when n lies above id's own counter, id
// takes n's local slot and the slot's occupant (the victim) takes id's old
// counter. The victim has already arrived this episode — n could not have
// completed otherwise — and reads its entry again only after the release,
// so the two-phase victim hand-off of softbarrier.DynamicBarrier collapses
// into a direct swap of two first-table entries. Called under n's lock.
func (h *header) swap(id, n int) {
	from := h.first[id]
	if n == from {
		return
	}
	victim := h.local[n]
	h.first[id], h.first[victim] = n, from
	h.local[n], h.local[from] = id, victim
}

// depths returns each participant's synchronization path length in the
// current header, or nil for a dynamic one (its placement moves every
// episode, and only arrivals may read its first table).
func (c *core) depths() []int {
	h := c.hdr.Load()
	if h.local != nil {
		return nil
	}
	d := make([]int, h.p)
	for id := range d {
		d[id] = h.tree.Depth(h.first[id])
	}
	return d
}
