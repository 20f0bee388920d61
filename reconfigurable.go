package softbarrier

import (
	"context"
	"runtime"
	"sync/atomic"

	"softbarrier/internal/reconfig"
	rt "softbarrier/internal/runtime"
	"softbarrier/internal/topology"
)

// ReconfigurableBarrier is a combining-tree barrier whose configuration —
// tree degree and participant count — is an epoch managed by the shared
// internal/reconfig controller. Every episode the releasing participant
// folds the measured arrival spread into the EWMA σ estimate; on the
// replan cadence (and immediately when a membership change is pending)
// the controller derives a new Plan from the analytic model
// (OptimalDegree) with hysteresis, and the releaser applies it at the
// episode's quiescent point, before opening the release gate. This is the
// run-time degree adaptation the paper's conclusion proposes, extended to
// elastic membership: Grow/Shrink/RequestResize queue a participant-count
// change that lands at the next episode boundary, and Resize applies one
// immediately when the caller knows the barrier is idle.
//
// Elastic protocol, from a worker's point of view: a worker that may be
// shrunk away checks Participants after each Wait returns and stops when
// its id falls outside the membership (the swap is published before the
// release that wakes it, so the check is race-free). A newly grown worker
// waits until Participants covers its id and then calls Wait; Arrive
// internally holds it until the admitting epoch's release has happened, so
// it can never contribute to — or slip past — an episode of the epoch
// before it existed.
type ReconfigurableBarrier struct {
	tc float64

	gate  rt.Gate
	state atomic.Pointer[rcState] // replaced only at quiescent points

	ctrl *reconfig.Controller
	est  rt.SigmaEstimator // EWMA of per-episode arrival spread, seconds
	rec  *rt.Recorder      // always active: the control loop needs the spreads
	red  *rt.Reducer       // payload reducer; nil without WithCollective

	// Predictive straggler placement (WithPlacementPolicy). place and
	// lagBuf are touched only by the releasing participant.
	place  PlacementPolicy
	lagBuf []float64
	poisonCore
}

// rcState is one epoch's rebuildable configuration: the topology, its
// counters, the participant placement, and the per-participant generation
// slots. A placement change publishes a copy of the header with a new
// first table; the tree, counters and generation slots are shared.
type rcState struct {
	p        int
	degree   int
	epoch    uint64
	epochGen uint64 // gate generation at which this state becomes active
	tree     *topology.Tree
	counters []treeCounter
	// first[id] is the counter participant id starts its ascent at: the
	// tree's own table for the natural placement, or a relabelled copy.
	// It is never written once published.
	first []int
	// order is the placement order first was relabelled with, nil for
	// the natural ascending-id placement.
	order []int
	// slots lists the tree's attachment-slot counters shallowest first
	// (topology.SlotsByDepth). It is computed on the epoch's first
	// placement and carried forward by later ones, so an unplaced build
	// does not pay for it.
	slots []int
	// myGen holds each participant's episode generation. It only ever
	// grows across epochs (shrunk ids keep their slot so their final
	// Await still reads a valid generation while they drain out).
	myGen []rt.PaddedUint64
}

// ReconfigConfig tunes a ReconfigurableBarrier's replan cadence,
// hysteresis and model inputs. The zero value re-plans every episode with
// no hysteresis, starting at degree 4 with the paper's 20µs counter cost.
type ReconfigConfig struct {
	// ReplanEvery is how many episodes pass between degree
	// re-evaluations; 0 means every episode.
	ReplanEvery int
	// MinEpisodesBetween defers degree-only rebuilds until at least this
	// many episodes have passed since the last one; 0 disables the floor.
	// Membership changes are never deferred.
	MinEpisodesBetween int
	// MinDegreeDelta suppresses rebuilds whose recommended degree moved
	// by less than this; 0 means any change rebuilds.
	MinDegreeDelta int
	// Tc is the assumed counter update cost fed to the model, seconds;
	// 0 selects the paper's 20µs.
	Tc float64
	// InitialSigma is the arrival spread assumed before any episode has
	// been measured, seconds.
	InitialSigma float64
	// InitialDegree is the starting tree degree; 0 selects 4 (the
	// classic simultaneous-arrival optimum).
	InitialDegree int
}

// ReconfigStats is the unified reconfiguration telemetry every elastic
// barrier exposes — the in-process ReconfigurableBarrier and the
// netbarrier sessions report the same shape.
type ReconfigStats = reconfig.Stats

// ReconfigPlan is one epoch's configuration as planned by the controller.
type ReconfigPlan = reconfig.Plan

// Resizable is a barrier whose participant count can be changed at a
// quiescent point.
type Resizable interface {
	Participants() int
	Resize(p int) error
}

// NewReconfigurable returns an elastic adaptive barrier for p initial
// participants.
func NewReconfigurable(p int, cfg ReconfigConfig, opts ...Option) *ReconfigurableBarrier {
	if p < 1 {
		panic("softbarrier: need at least one participant")
	}
	if cfg.ReplanEvery < 0 {
		panic("softbarrier: negative replan cadence")
	}
	if cfg.Tc == 0 {
		cfg.Tc = 20e-6
	}
	if cfg.Tc < 0 {
		panic("softbarrier: negative counter update cost")
	}
	if cfg.InitialDegree == 0 {
		cfg.InitialDegree = 4
	}
	if cfg.InitialDegree < 2 {
		panic("softbarrier: tree degree must be ≥ 2")
	}
	o := applyOptions(opts)
	b := &ReconfigurableBarrier{tc: cfg.Tc, place: o.placement}
	b.gate.Init(o.policy)
	b.rec = o.recorder(p, true)
	b.est.Init(rt.DefaultSigmaWeight)
	b.ctrl = reconfig.New(
		reconfig.Config{
			ReplanEvery:        uint64(cfg.ReplanEvery),
			MinEpisodesBetween: uint64(cfg.MinEpisodesBetween),
			MinDegreeDelta:     cfg.MinDegreeDelta,
			InitialSigma:       cfg.InitialSigma,
		},
		&b.est,
		func(p int, sigma float64) (int, bool) { return OptimalDegree(p, sigma, b.tc), false },
		reconfig.Plan{P: p, Degree: cfg.InitialDegree},
	)
	st0 := newRCState(nil, b.ctrl.Current(), 0, b.place != nil)
	b.state.Store(st0)
	b.red = o.reducer(p, len(st0.counters))
	b.initPoison(p, o.watchdog, o.poisonNotify,
		func() { b.gate.Poison() },
		func() {
			st := b.state.Load()
			for i := range st.counters {
				c := &st.counters[i]
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

// newRCState builds the epoch described by plan with its natural
// placement, carrying forward the generation slots of prev (nil for the
// initial epoch). epochGen is the gate generation at which the epoch's
// first episode runs. mcs selects an MCS-shaped tree: a barrier with a
// placement policy builds MCS epochs, because a classic tree puts every
// participant at the same (leaf) depth and placement would choose
// nothing.
func newRCState(prev *rcState, plan reconfig.Plan, epochGen uint64, mcs bool) *rcState {
	var tree *topology.Tree
	if mcs {
		tree = topology.NewMCS(plan.P, plan.Degree)
	} else {
		tree = topology.NewClassic(plan.P, plan.Degree)
	}
	st := &rcState{
		p:        plan.P,
		degree:   plan.Degree,
		epoch:    plan.Epoch,
		epochGen: epochGen,
		tree:     tree,
		counters: make([]treeCounter, len(tree.Counters)),
		first:    tree.FirstCounters(),
	}
	for i := range st.counters {
		st.counters[i].fanIn = tree.Counters[i].FanIn()
	}
	n := plan.P
	if prev != nil && len(prev.myGen) > n {
		n = len(prev.myGen)
	}
	st.myGen = make([]rt.PaddedUint64, n)
	if prev != nil {
		copy(st.myGen, prev.myGen)
	}
	return st
}

// withPlacement returns a copy of st's header, active from epochGen,
// whose participants are relabelled by order: order[k] takes the k-th
// shallowest attachment slot, topology.PlaceByDepth's assignment. order
// must be a permutation of [0, st.p). st itself is untouched:
// participants still holding it keep reading its first table.
func (st *rcState) withPlacement(order []int, epochGen uint64) *rcState {
	next := *st
	next.epochGen = epochGen
	if next.slots == nil {
		next.slots = st.tree.SlotsByDepth()
	}
	next.first = make([]int, st.p)
	for k, c := range next.slots {
		next.first[order[k]] = c
	}
	next.order = order
	return &next
}

// Participants returns the current epoch's participant count. It reflects
// a committed membership change as soon as the changing episode's release
// is published, so a worker observing its id outside [0, Participants)
// after Wait returns has been shrunk away and must stop calling Wait.
func (b *ReconfigurableBarrier) Participants() int { return b.state.Load().p }

// Degree returns the current tree degree.
func (b *ReconfigurableBarrier) Degree() int { return b.state.Load().degree }

// Epoch returns the 0-based configuration epoch.
func (b *ReconfigurableBarrier) Epoch() uint64 { return b.state.Load().epoch }

// Sigma returns the current arrival-spread estimate in seconds.
func (b *ReconfigurableBarrier) Sigma() float64 { return b.est.Sigma() }

// Depths returns the current epoch's per-participant synchronization
// path lengths — how many counters each participant updates per episode.
// With a placement policy armed, predicted stragglers show the smallest
// depths after a placement. The epoch's tree and a published placement
// are immutable, so Depths is safe from any goroutine; it reflects the
// placement current at the call.
func (b *ReconfigurableBarrier) Depths() []int {
	st := b.state.Load()
	d := make([]int, st.p)
	for id := range d {
		d[id] = st.tree.Depth(st.first[id])
	}
	return d
}

// MeasuredSigma implements SigmaSource: the live σ estimate and the number
// of episodes it is based on, for feeding back into the planner.
func (b *ReconfigurableBarrier) MeasuredSigma() (sigma float64, episodes uint64) {
	return b.est.Sigma(), b.est.Episodes()
}

// Adaptations returns how many times the barrier has rebuilt its tree.
func (b *ReconfigurableBarrier) Adaptations() uint64 { return b.ctrl.Rebuilds() }

// ReconfigStats returns the unified reconfiguration telemetry: epoch and
// rebuild counts plus the last committed plan (σ at plan time included).
func (b *ReconfigurableBarrier) ReconfigStats() ReconfigStats { return b.ctrl.Stats() }

// Resize changes the participant count immediately. It may only be called
// at a quiescent point — no Wait/Arrive/Await in flight — exactly like
// Reset; use Grow/Shrink/RequestResize to change membership while the
// barrier is running.
func (b *ReconfigurableBarrier) Resize(p int) error {
	plan, err := b.ctrl.PlanResize(p)
	if err != nil {
		return err
	}
	// The new epoch is active right away: the gate generation does not
	// move at a quiescent Resize.
	b.apply(b.state.Load(), plan, b.gate.Seq())
	return nil
}

// RequestResize queues a membership change to p participants; the change
// is applied at the next episode boundary. Safe from any goroutine; the
// last request before the boundary wins.
func (b *ReconfigurableBarrier) RequestResize(p int) error { return b.ctrl.RequestP(p) }

// Grow queues the admission of n more participants at the next episode
// boundary and returns the resulting membership target. The new ids are
// the target's top n; a new worker must wait until Participants covers its
// id before its first Wait.
func (b *ReconfigurableBarrier) Grow(n int) (int, error) { return b.ctrl.RequestDelta(n) }

// Shrink queues the removal of the top n participant ids at the next
// episode boundary and returns the resulting membership target. Shrunk
// workers observe their removal when Wait returns with Participants no
// longer covering their id.
func (b *ReconfigurableBarrier) Shrink(n int) (int, error) { return b.ctrl.RequestDelta(-n) }

// Wait blocks until all participants arrive.
func (b *ReconfigurableBarrier) Wait(id int) {
	b.Arrive(id)
	b.Await(id)
}

// Arrive records the arrival time and performs the counter ascent,
// re-planning and releasing the episode if id completes the root. On a
// poisoned barrier it is a no-op, as it is for an id the current epoch has
// shrunk away (such a participant is draining out and must not touch the
// counters).
func (b *ReconfigurableBarrier) Arrive(id int) {
	st := b.state.Load()
	checkID(id, len(st.myGen))
	if id >= st.p {
		return // shrunk away; drain without contributing
	}
	// A freshly grown participant can observe the new epoch (Participants
	// covers it) before the admitting episode's release has opened the
	// gate. Entering then would stamp the old generation and unblock on
	// the wrong release, so hold until the epoch is active.
	for b.gate.Seq() < st.epochGen {
		if b.poisoned() {
			return
		}
		runtime.Gosched()
	}
	if b.poisoned() {
		return
	}
	b.noteArrive(id)
	gen := b.gate.Seq()
	b.rec.Arrive(id, gen)
	st.myGen[id].V = gen

	c := st.first[id]
	for c != topology.NoCounter {
		tc := &st.counters[c]
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
		c = st.tree.Counters[c].Parent
	}
	b.release(st)
}

// release runs on the participant that completed the root: a quiescent
// point for the counters. It folds the measured spread into the σ
// estimate (and the per-participant lags into the placement policy),
// asks the controller whether a new epoch is due, applies the plan if
// so — otherwise relabels the placement when the policy's
// predicted-straggler order changed on the replan cadence — emits the
// episode's telemetry, and opens the gate.
func (b *ReconfigurableBarrier) release(st *rcState) {
	seq := b.gate.Seq()
	m, _ := b.rec.Measure(seq)
	b.ctrl.Observe(m.Spread)
	if b.place != nil {
		if b.lagBuf = b.rec.LagsInto(seq, b.lagBuf); len(b.lagBuf) > 0 {
			b.place.Observe(b.lagBuf)
		}
	}
	if plan, ok := b.ctrl.Evaluate(); ok {
		// The new epoch's first episode runs at the generation the Open
		// below advances to.
		b.apply(st, plan, seq+1)
	} else if order := b.duePlacementOrder(st); order != nil {
		b.applyPlacement(st, order, seq+1)
	}
	cur := b.state.Load()
	b.rec.Emit(m, rt.Extra{Adaptations: b.ctrl.Rebuilds(), Degree: cur.degree, Epoch: cur.epoch})
	b.gate.Open()
}

// duePlacementOrder decides, on the replan cadence, whether the policy
// wants the running epoch's slots re-ordered: it returns the new order,
// or nil when none is due (off cadence, no policy opinion, opinion for a
// stale membership, or unchanged from the epoch's current placement).
// Order() is consumed at most once per release — hysteresis policies
// record what they emit.
func (b *ReconfigurableBarrier) duePlacementOrder(st *rcState) []int {
	if b.place == nil {
		return nil
	}
	n := b.ctrl.Episodes()
	if n == 0 || n%b.ctrl.Config().ReplanEvery != 0 {
		return nil
	}
	order := policyOrder(b.place, st.p)
	if order == nil || sameOrder(order, st.order, st.p) {
		return nil
	}
	return order
}

// apply installs plan as the running epoch. It must run at a quiescent
// point: the release path, or a caller-synchronized Resize.
func (b *ReconfigurableBarrier) apply(prev *rcState, plan reconfig.Plan, epochGen uint64) {
	order := policyOrder(b.place, plan.P)
	if order == nil && len(prev.order) == plan.P {
		// The policy has no (new) opinion for this membership; keep the
		// placement the previous epoch ran with rather than snapping back
		// to the identity order.
		order = prev.order
	}
	next := newRCState(prev, plan, epochGen, b.place != nil)
	if order != nil {
		next = next.withPlacement(order, epochGen)
	}
	if plan.P != prev.p {
		b.rec.Resize(plan.P)
		b.resizeArrivals(plan.P)
	}
	// The reducer's deposit cells and node accumulators are rebuilt for
	// the new tree; its published result buffers survive, so awaiters of
	// the pre-rebuild episode still copy their in-flight result.
	b.red.Resize(plan.P, len(next.counters))
	b.state.Store(next)
	b.ctrl.Commit(plan)
}

// applyPlacement re-places the running epoch's participants by order —
// same tree, counters and generation slots, with order[k] on the k-th
// shallowest slot — by publishing a copy of the state header with a
// relabelled first table. Like apply it runs only at the quiescent
// release point, where every counter is back at zero and the reducer's
// node accumulators are empty; ReconfigStats.Placements counts these
// relabels.
func (b *ReconfigurableBarrier) applyPlacement(prev *rcState, order []int, epochGen uint64) {
	b.state.Store(prev.withPlacement(order, epochGen))
	b.ctrl.NotePlacement()
}

// AllReduce contributes in, completes one episode, and copies the
// reduction of the epoch's contributions into out. A participant the
// current epoch has shrunk away drains without contributing and without a
// result — exactly as Wait drains it — so an elastic worker follows the
// same protocol as ever: check Participants after each collective call
// and stop once its id falls outside the membership (its final episode's
// result is then not delivered locally; netbarrier sessions deliver it in
// the Release frame instead). Epoch boundaries preserve in-flight
// contributions: the rebuild happens at the quiescent release point,
// after the episode's result is published into buffers that survive it.
func (b *ReconfigurableBarrier) AllReduce(id int, in, out []byte) error {
	if b.red == nil {
		return ErrNoCollective
	}
	b.arriveColl(id, in, reduceMode(b.red.Op()), 0)
	return b.AwaitResult(id, out)
}

// Reduce is AllReduce with the result delivered only to root. root must
// stay inside the membership for the episode.
func (b *ReconfigurableBarrier) Reduce(id, root int, in, out []byte) error {
	if b.red == nil {
		return ErrNoCollective
	}
	checkID(root, b.state.Load().p)
	b.arriveColl(id, in, reduceMode(b.red.Op()), 0)
	if id != root {
		out = nil
	}
	return b.AwaitResult(id, out)
}

// Broadcast completes one episode delivering root's buf into every other
// participant's buf.
func (b *ReconfigurableBarrier) Broadcast(id, root int, buf []byte) error {
	if b.red == nil {
		return ErrNoCollective
	}
	checkID(root, b.state.Load().p)
	b.arriveColl(id, buf, collBcast, root)
	if id == root {
		buf = nil
	}
	return b.AwaitResult(id, buf)
}

// ArriveReduce is the fuzzy half of AllReduce: contribute and ascend
// without waiting; collect with AwaitResult.
func (b *ReconfigurableBarrier) ArriveReduce(id int, in []byte) error {
	if b.red == nil {
		return ErrNoCollective
	}
	b.arriveColl(id, in, reduceMode(b.red.Op()), 0)
	return nil
}

// AwaitResult blocks until ArriveReduce's episode completes and copies
// its reduction into out (nil discards it). The copy is skipped — out is
// left untouched — when this participant is outside the membership after
// the release (it was draining, or was shrunk away at the episode's
// boundary): such a participant is no longer ordered against future
// episodes, so reading the shared result buffer would race with a later
// publish. Call AwaitResult exactly once per ArriveReduce, before the
// participant's next episode.
func (b *ReconfigurableBarrier) AwaitResult(id int, out []byte) error {
	if b.red == nil {
		return ErrNoCollective
	}
	st := b.state.Load()
	checkID(id, len(st.myGen))
	b.gate.Await(st.myGen[id].V)
	if err := b.Err(); err != nil {
		return err
	}
	// Re-load: the episode's release may have committed a new epoch, and
	// membership is judged against the post-release state.
	cur := b.state.Load()
	if out != nil && id < cur.p {
		b.red.CopyResult(cur.myGen[id].V, out)
	}
	return nil
}

// Reduced returns the published reduction of the given episode — see
// TreeBarrier.Reduced.
func (b *ReconfigurableBarrier) Reduced(episode uint64) []byte {
	if b.red == nil {
		return nil
	}
	return b.red.Result(episode)
}

// arriveColl is Arrive carrying a payload: Arrive's drain/hold protocol,
// plus the mode-selected payload step (greedy fold, deposit cell, or
// broadcast root deposit), with the episode's result published at the
// root completion before the release.
func (b *ReconfigurableBarrier) arriveColl(id int, in []byte, mode uint8, root int) {
	st := b.state.Load()
	checkID(id, len(st.myGen))
	checkContribution(b.red, in)
	if id >= st.p {
		return // shrunk away; drain without contributing
	}
	for b.gate.Seq() < st.epochGen {
		if b.poisoned() {
			return
		}
		runtime.Gosched()
	}
	if b.poisoned() {
		return
	}
	b.noteArrive(id)
	gen := b.gate.Seq()
	b.rec.Arrive(id, gen)
	st.myGen[id].V = gen
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

	c := st.first[id]
	for c != topology.NoCounter {
		tc := &st.counters[c]
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
		c = st.tree.Counters[c].Parent
	}
	// Root completed: publish the result while the cells and accumulators
	// are quiescent — before release applies any epoch rebuild, so the
	// fold runs over this episode's membership and tree.
	switch mode {
	case collGreedy:
		b.red.PublishCarry(gen, carry)
	case collCells:
		b.red.FinishCells(gen, st.p)
	case collBcast:
		b.red.PublishCell(gen, root)
	}
	b.release(st)
}

// Await blocks participant id until the episode it arrived in completes
// or the barrier is poisoned.
func (b *ReconfigurableBarrier) Await(id int) {
	st := b.state.Load()
	checkID(id, len(st.myGen))
	b.gate.Await(st.myGen[id].V)
}

// WaitCtx is Wait with cancellation: if ctx ends while the wait is in
// flight the barrier is poisoned, and the poison error is returned.
func (b *ReconfigurableBarrier) WaitCtx(ctx context.Context, id int) error {
	checkID(id, len(b.state.Load().myGen))
	return b.waitCtx(ctx, func() { b.Wait(id) })
}

// AwaitCtx is Await with cancellation, with WaitCtx's poison semantics.
func (b *ReconfigurableBarrier) AwaitCtx(ctx context.Context, id int) error {
	checkID(id, len(b.state.Load().myGen))
	return b.waitCtx(ctx, func() { b.Await(id) })
}

var _ PhasedBarrier = (*ReconfigurableBarrier)(nil)
var _ ContextBarrier = (*ReconfigurableBarrier)(nil)
var _ Collective = (*ReconfigurableBarrier)(nil)
var _ Resizable = (*ReconfigurableBarrier)(nil)
var _ SigmaSource = (*ReconfigurableBarrier)(nil)
