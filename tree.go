package softbarrier

import (
	"context"
	"sync"

	rt "softbarrier/internal/runtime"
	"softbarrier/internal/topology"
)

// TreeBarrier is a software combining-tree barrier: a tree of counters,
// each protected by its own lock, so that at most degree+1 participants
// ever contend on the same cache line. A participant updates its first
// counter; whoever completes a counter's fan-in proceeds to the parent,
// and completing the root releases the episode.
//
// Construct with NewCombiningTree (participants at the leaves only, the
// Yew/Tzeng/Lawrie structure) or NewMCSTree (one participant attached to
// every counter, the Mellor-Crummey & Scott structure the paper's §5
// builds on).
//
// The release path runs on the shared internal/runtime core: waiters
// follow the configured spin→yield→park policy, and WithTreeWakeup swaps
// the broadcast gate for an MCS-style binary wakeup tree whose flags park
// the same way.
type TreeBarrier struct {
	p        int
	tree     *topology.Tree
	counters []treeCounter

	gate  rt.Gate
	myGen []rt.PaddedUint64

	// Tree wakeup (optional): instead of the broadcast gate, the releaser
	// wakes participant 0, and each woken participant wakes its two
	// children in a binary heap layout — the MCS-style wakeup tree that
	// bounds the number of waiters per flag.
	treeWakeup bool
	policy     rt.WaitPolicy
	wakeFlag   []rt.Cell

	rec *rt.Recorder
	red *rt.Reducer // payload reducer; nil without WithCollective
	poisonCore
}

// treeCounter is one tree node's arrival counter.
type treeCounter struct {
	mu    sync.Mutex
	count int
	fanIn int
	_     [32]byte // separate counters across cache lines
}

// NewCombiningTree returns a classic combining-tree barrier for p
// participants with the given tree degree (≥2). Degree ≥ p degenerates to
// a flat central counter.
func NewCombiningTree(p, degree int, opts ...Option) *TreeBarrier {
	return newTreeBarrier(topology.NewClassic(p, degree), opts)
}

// NewMCSTree returns an MCS-style tree barrier for p participants with the
// given degree: every counter has one statically attached participant,
// which shortens the average path (§4).
func NewMCSTree(p, degree int, opts ...Option) *TreeBarrier {
	return newTreeBarrier(topology.NewMCS(p, degree), opts)
}

func newTreeBarrier(tree *topology.Tree, opts []Option) *TreeBarrier {
	o := applyOptions(opts)
	tree = placeTree(tree, o.placeOrder)
	b := &TreeBarrier{
		p:          tree.P,
		tree:       tree,
		counters:   make([]treeCounter, len(tree.Counters)),
		myGen:      make([]rt.PaddedUint64, tree.P),
		treeWakeup: o.treeWakeup,
		policy:     o.policy,
	}
	for i := range b.counters {
		b.counters[i].fanIn = tree.Counters[i].FanIn()
	}
	b.gate.Init(o.policy)
	if b.treeWakeup {
		b.wakeFlag = make([]rt.Cell, b.p)
		rt.InitCells(b.wakeFlag)
	}
	b.rec = o.recorder(tree.P, false)
	b.red = o.reducer(tree.P, len(tree.Counters))
	b.initPoison(tree.P, o.watchdog,
		func() {
			b.gate.Poison()
			for i := range b.wakeFlag {
				b.wakeFlag[i].Poison()
			}
		},
		func() {
			for i := range b.counters {
				c := &b.counters[i]
				c.mu.Lock()
				c.count = 0
				c.mu.Unlock()
			}
			for i := range b.wakeFlag {
				b.wakeFlag[i].Reset()
			}
			if b.red != nil {
				b.red.Reset()
			}
			b.gate.Unpoison()
		})
	return b
}

// Participants returns P.
func (b *TreeBarrier) Participants() int { return b.p }

// Degree returns the tree's construction degree.
func (b *TreeBarrier) Degree() int { return b.tree.Degree }

// Levels returns the number of counter levels in the tree.
func (b *TreeBarrier) Levels() int { return b.tree.Levels }

// Depths returns each participant's synchronization path length — how
// many counters it updates per episode. The tree is immutable, so Depths
// is safe at any time; index k of the result is participant k's depth.
// With a placement applied (WithPlacement), the laggiest-ranked
// participants show the smallest depths.
func (b *TreeBarrier) Depths() []int {
	d := make([]int, b.p)
	for id := range d {
		d[id] = b.tree.Depth(b.tree.FirstCounter(id))
	}
	return d
}

// Wait blocks until all participants arrive.
func (b *TreeBarrier) Wait(id int) {
	b.Arrive(id)
	b.Await(id)
}

// Arrive performs participant id's counter ascent. If id completes the
// root counter it releases the episode before returning. On a poisoned
// barrier it is a no-op.
func (b *TreeBarrier) Arrive(id int) {
	checkID(id, b.p)
	if b.poisoned() {
		return
	}
	b.noteArrive(id)
	// The gate's generation is exactly this participant's episode index:
	// the episode cannot be released (advancing the generation) before
	// this arrival contributes to it.
	gen := b.gate.Seq()
	b.rec.Arrive(id, gen)
	b.myGen[id].V = gen
	b.ascend(b.tree.FirstCounter(id))
}

// ascend climbs the counter chain starting at counter c, releasing the
// episode if the root completes.
func (b *TreeBarrier) ascend(c int) {
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
		c = b.tree.Counters[c].Parent
	}
	// Root completed: measure while the arrival slots are quiescent, then
	// release everyone.
	b.rec.Release(b.gate.Seq(), rt.Extra{Degree: b.tree.Degree})
	gen := b.gate.Open()
	if b.treeWakeup {
		b.wakeFlag[0].Set(gen)
	}
}

// AllReduce contributes in, completes one barrier episode, and copies the
// reduction of all p contributions into out (out may alias in, or be nil
// to discard). It returns ErrNoCollective on a barrier built without
// WithCollective, and the poison cause if the episode was aborted. Every
// participant must make the same collective call for the episode.
func (b *TreeBarrier) AllReduce(id int, in, out []byte) error {
	if b.red == nil {
		return ErrNoCollective
	}
	gen, ok := b.arriveColl(id, in, reduceMode(b.red.Op()), 0)
	return b.finishColl(id, gen, ok, out)
}

// Reduce is AllReduce with the result delivered only to root; the other
// participants' out arguments are ignored.
func (b *TreeBarrier) Reduce(id, root int, in, out []byte) error {
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
// participant's buf (root's own buf is left untouched). buf must be
// Op.Width bytes for every participant.
func (b *TreeBarrier) Broadcast(id, root int, buf []byte) error {
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

// ArriveReduce is the fuzzy half of AllReduce/Reduce: it contributes in
// and performs the ascent without waiting — do slack work, then collect
// the result with AwaitResult. It returns ErrNoCollective on a barrier
// built without WithCollective; on a poisoned barrier it is a no-op (the
// matching AwaitResult reports the cause).
func (b *TreeBarrier) ArriveReduce(id int, in []byte) error {
	if b.red == nil {
		return ErrNoCollective
	}
	b.arriveColl(id, in, reduceMode(b.red.Op()), 0)
	return nil
}

// AwaitResult blocks until the episode ArriveReduce contributed to
// completes and copies its reduction into out (nil discards it).
func (b *TreeBarrier) AwaitResult(id int, out []byte) error {
	if b.red == nil {
		return ErrNoCollective
	}
	checkID(id, b.p)
	return b.finishColl(id, b.myGen[id].V, true, out)
}

// arriveColl is Arrive carrying a payload: mode selects how the
// contribution travels (greedy fold during the ascent, deposit cell for
// the releaser's id-order fold, or broadcast root deposit). It reports
// the episode generation and whether the contribution was actually made
// (false on a poisoned barrier).
func (b *TreeBarrier) arriveColl(id int, in []byte, mode uint8, root int) (gen uint64, ok bool) {
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
	var carry []byte
	if mode == collGreedy {
		carry = in
	}
	b.ascendColl(b.tree.FirstCounter(id), carry, mode, root, gen)
	return gen, true
}

// ascendColl is ascend with the payload fold threaded through: in greedy
// mode each counter's critical section additionally folds the carry, and
// the root completion publishes the episode's result before the release.
func (b *TreeBarrier) ascendColl(c int, carry []byte, mode uint8, root int, gen uint64) {
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
		c = b.tree.Counters[c].Parent
	}
	// Root completed: publish the episode's result while the cells and
	// accumulators are quiescent, then measure and release as usual.
	switch mode {
	case collGreedy:
		b.red.PublishCarry(gen, carry)
	case collCells:
		b.red.FinishCells(gen, b.p)
	case collBcast:
		b.red.PublishCell(gen, root)
	}
	b.rec.Release(b.gate.Seq(), rt.Extra{Degree: b.tree.Degree})
	g := b.gate.Open()
	if b.treeWakeup {
		b.wakeFlag[0].Set(g)
	}
}

// finishColl awaits the episode and copies its result out. contributed is
// false when the arrival was a poisoned no-op — then there is no result
// to copy, and Err carries the cause.
func (b *TreeBarrier) finishColl(id int, gen uint64, contributed bool, out []byte) error {
	b.Await(id)
	if err := b.Err(); err != nil {
		return err
	}
	if contributed && out != nil {
		b.red.CopyResult(gen, out)
	}
	return nil
}

// Await blocks participant id until the episode it arrived in completes.
func (b *TreeBarrier) Await(id int) {
	checkID(id, b.p)
	mine := b.myGen[id].V
	if b.treeWakeup {
		got := b.wakeFlag[id].AwaitAtLeast(mine+1, b.policy)
		if got == rt.PoisonValue {
			return // poison wake; siblings' flags were poisoned alongside
		}
		// Propagate the wakeup (monotone values make overlapping episodes
		// safe: a flag may carry a newer generation, which is still a
		// release of our episode's successor and therefore of ours).
		for _, child := range [2]int{2*id + 1, 2*id + 2} {
			if child < b.p {
				if cur := b.wakeFlag[child].Load(); cur < got {
					b.wakeFlag[child].Set(got)
				}
			}
		}
		return
	}
	b.gate.Await(mine)
}

// WaitCtx is Wait with cancellation: if ctx ends while the wait is in
// flight the barrier is poisoned, and the poison error is returned.
func (b *TreeBarrier) WaitCtx(ctx context.Context, id int) error {
	checkID(id, b.p)
	return b.waitCtx(ctx, func() { b.Wait(id) })
}

// AwaitCtx is Await with cancellation, with WaitCtx's poison semantics.
func (b *TreeBarrier) AwaitCtx(ctx context.Context, id int) error {
	checkID(id, b.p)
	return b.waitCtx(ctx, func() { b.Await(id) })
}

var _ PhasedBarrier = (*TreeBarrier)(nil)
var _ ContextBarrier = (*TreeBarrier)(nil)
var _ Collective = (*TreeBarrier)(nil)
