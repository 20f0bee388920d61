package netbarrier

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"softbarrier"
	"softbarrier/internal/reconfig"
	rt "softbarrier/internal/runtime"
	"softbarrier/internal/wire"
)

// session is one named barrier cohort: its members, the combining core
// collecting their arrivals, and the shared reconfiguration controller
// (internal/reconfig) that re-derives the tree configuration — degree, and
// in elastic mode membership — from the measured arrival spread.
//
// Concurrency design. Each member's socket is read by its own goroutine,
// which validates the arrival frame's episode and then climbs the core's
// counters directly — so at most degree+1 reader goroutines contend on any
// one counter, exactly as in the in-process case. The member whose arrival
// completes the root runs the episode boundary at the quiescent point:
// every arrival of the episode is in, and no member can send its next
// arrival until the release the boundary is about to write reaches it.
// That quiescence makes every reconfiguration a plain pointer swap: the
// boundary publishes the core's new header, advances the episode counter,
// and only then broadcasts the release, so every later arrival validates
// against the new episode and climbs the new header.
//
// Elastic sessions (Options.Elastic) additionally treat membership as part
// of the epoch: a Leave drops the member at the next boundary (with the
// session proxy-arriving for a leaver that had not arrived yet, so the
// in-flight episode still completes), and a join against a full session
// parks the connection on the pending list until the boundary admits it
// into the next epoch — late joiners are welcomed, not refused. Member ids
// are re-assigned densely at each boundary; a client learns its id from
// the JoinResp and must not assume it is stable across epochs server-side
// (the client-visible id is only used in server diagnostics). A
// fixed-membership session runs the same boundary with no joins and no
// leaves.
type session struct {
	name    string
	srv     *Server
	elastic bool

	// shard marks an inter-shard session: every member is a leaf barrierd
	// forwarding one aggregated arrival per episode (TypeShardArrive)
	// rather than a client. The kind is fixed by the session's first
	// joiner; mixing shard and client members in one session is refused.
	// Shard sessions release with TypeShardRelease, carrying the fleet-wide
	// participant count and the σ aggregated across the shards' reports.
	shard    bool
	fleetEst rt.SigmaEstimator // EWMA over the P-weighted mean of shard σ reports
	fleetP   atomic.Int64      // Σ live shards' local P, as of the last release

	ctrl  *reconfig.Controller // epoch state: degree, membership, placement; owns the σ EWMA
	op    *softbarrier.Op      // collective op, nil for a plain barrier session
	ident []byte               // op identity, proxy-contributed for plain/leaving members
	place *reconfig.Placement  // predictive straggler placement (Options.Placement); nil when off

	core    *core
	episode atomic.Uint64 // current episode index; advanced by the releaser
	dead    atomic.Bool   // poisoned: the cause broadcast has been claimed
	unwatch func()        // stops the watchdog at retirement; idempotent

	// Release fan-out scratch, releaser-only (successive releasers are
	// ordered through the episode counter): the encoded release per episode
	// parity, the count of writes still borrowing each, and the targets.
	relScratch [2][]byte
	relPending [2]atomic.Int64
	bcast      []*srvConn

	mu      sync.Mutex
	members []*srvConn // slot per id; nil = not yet joined (formation only)
	pending []*srvConn // elastic: connections awaiting admission at a boundary
	retired bool
}

func newSession(srv *Server, name string, p int, shard bool) *session {
	s := &session{
		name:    name,
		srv:     srv,
		elastic: srv.opt.Elastic,
		shard:   shard,
		members: make([]*srvConn, p),
	}
	var red *rt.Reducer
	if op := srv.opt.Op; op != nil {
		s.op = op
		s.ident = make([]byte, op.Width)
		if op.Identity != nil {
			copy(s.ident, op.Identity)
		}
		red = rt.NewReducer(*op, p, 0)
	}
	if f := srv.opt.Placement; f != nil {
		s.place = reconfig.NewPlacement(f())
	}
	s.fleetEst.Init(rt.DefaultSigmaWeight)
	// The controller's Recommender is the planner profile evaluated at the
	// epoch's membership and measured σ, on the allocation-free path: it
	// runs on the releaser every ReplanEvery episodes.
	prof := softbarrier.Profile{P: p, Sigma: srv.opt.InitialSigma, Tc: srv.opt.Tc, Systemic: srv.opt.Dynamic}
	degree, dynamic := softbarrier.RecommendConfig(prof)
	est := new(rt.SigmaEstimator)
	est.Init(rt.DefaultSigmaWeight)
	s.ctrl = reconfig.New(
		reconfig.Config{
			ReplanEvery:  uint64(srv.opt.ReplanEvery),
			InitialSigma: srv.opt.InitialSigma,
		},
		est,
		func(p int, sigma float64) (int, bool) {
			prof.P, prof.Sigma = p, sigma
			return softbarrier.RecommendConfig(prof)
		},
		reconfig.Plan{P: p, Degree: degree, Dynamic: dynamic},
	)
	arr := rt.NewArrivals(p)
	s.core = newCore(s.ctrl.Current(), s.place != nil, red, rt.New(p, nil, nil, true), arr)
	watch, unwatch := context.WithCancel(context.Background())
	s.unwatch = unwatch
	if d := srv.opt.Watchdog; d > 0 {
		go rt.Watch(arr, d, watch.Done(), s.dead.Load, func(missing []int, waited time.Duration) {
			s.poison(&softbarrier.StallError{Missing: missing, Waited: waited})
		})
	}
	return s
}

// liveLocked appends the live (joined, not departed) members to dst.
// Caller holds s.mu.
func (s *session) liveLocked(dst []*srvConn) []*srvConn {
	for _, m := range s.members {
		if m != nil && !m.gone {
			dst = append(dst, m)
		}
	}
	return dst
}

// stats snapshots the session for Server.SessionStats.
func (s *session) stats() SessionStats {
	s.mu.Lock()
	live := len(s.liveLocked(nil))
	pending := len(s.pending)
	s.mu.Unlock()
	return SessionStats{
		Name:     s.name,
		P:        s.ctrl.Current().P,
		Episode:  s.episode.Load(),
		Members:  live,
		Pending:  pending,
		Shard:    s.shard,
		FleetP:   int(s.fleetP.Load()),
		Reconfig: s.ctrl.Stats(),
		Depths:   s.core.depths(),
	}
}

// arrival applies one member's Arrive, ArriveData or (from a leaf shard)
// ShardArrive frame; see checkArrival for the validation contract. A shard
// arrival also records the leaf's local P and σ for the fleet aggregate.
// In a collective session a payload-less Arrive or ShardArrive contributes
// the op's identity, so mixed cohorts stay correct. A payload the op does
// not take is a protocol violation, not a per-member error: the episode's
// fold is already corrupted by the time a retry could land.
func (s *session) arrival(c *srvConn, f wire.Frame) {
	id, ok := s.checkArrival(c, f.Episode)
	if !ok {
		return
	}
	if c.shard {
		c.lastLocalP.Store(int64(f.P))
		c.lastSigma.Store(math.Float64bits(f.Sigma))
	}
	data := f.Data
	if s.op != nil && len(data) == 0 && f.Type != wire.TypeArriveData {
		data = s.ident
	}
	switch {
	case s.op == nil && (len(data) != 0 || f.Type == wire.TypeArriveData):
		s.poison(fmt.Errorf("netbarrier: protocol violation: %s %d sent %s with %d bytes to a session with no collective op", c.kind(), id, wire.FrameName(f.Type), len(data)))
	case s.op != nil && len(data) != s.op.Width:
		s.poison(fmt.Errorf("netbarrier: protocol violation: %s %d contributed %d bytes, op %q wants %d", c.kind(), id, len(data), s.op.Name, s.op.Width))
	default:
		s.climb(id, f.Episode, data)
	}
}

// climb runs one arrival at episode ep through the core and, when it
// completes the root, releases the episode.
func (s *session) climb(id int, ep uint64, in []byte) {
	if s.core.arrive(id, ep, in) {
		s.release(ep)
	}
}

// fleetStats folds the live shards' latest localP/σ reports into the
// session's fleet aggregate: fleetP is the sum of local participant
// counts, and the P-weighted mean of the shards' EWMA σ reports is folded
// into the session's own fleet EWMA (reusing the runtime estimator, so a
// shard re-planning locally moves the fleet estimate smoothly rather than
// stepwise). Releaser-only, at the quiescent point.
func (s *session) fleetStats(shards []*srvConn) (fleetP int, fleetSigma float64) {
	var wsum float64
	for _, m := range shards {
		p := int(m.lastLocalP.Load())
		fleetP += p
		wsum += float64(p) * math.Float64frombits(m.lastSigma.Load())
	}
	if fleetP > 0 {
		s.fleetEst.Observe(wsum / float64(fleetP))
	}
	s.fleetP.Store(int64(fleetP))
	return fleetP, s.fleetEst.Sigma()
}

// checkArrival validates an arrival frame against the session's episode
// counter and the member's arrival window, advancing the latter. It runs
// on the member's reader goroutine; the frame's episode must be the
// session's current one (a client cannot legally race ahead — it has not
// seen the release that would let it — so a mismatch is a protocol
// violation, and a duplicate arrival would corrupt the tree's counters).
// Arrivals at a poisoned session are dropped: its members already have
// the cause.
func (s *session) checkArrival(c *srvConn, episode uint64) (id int, ok bool) {
	if s.dead.Load() {
		return 0, false
	}
	id = int(c.id.Load())
	if id < 0 {
		s.poison(fmt.Errorf("netbarrier: protocol violation: pending client arrived before admission"))
		return 0, false
	}
	if cur := s.episode.Load(); episode != cur || episode < c.nextArrive.Load() {
		s.poison(fmt.Errorf("netbarrier: protocol violation: client %d arrived for episode %d (current %d)", id, episode, cur))
		return 0, false
	}
	c.nextArrive.Store(episode + 1)
	return id, true
}

// release runs on the goroutine whose arrival completed episode ep, at
// the quiescent point: it feeds the measured spread to the σ estimate and
// the lags to the placement policy, then runs the boundary — at once on a
// standalone server, or on a leaf (Options.Upstream) only when the root's
// outcome for the forwarded local fold comes back. No local member can
// arrive meanwhile, so at most one upstream round-trip is outstanding, and
// the fold needs no copy: the reducer reuses its parity slot two episodes
// later.
func (s *session) release(ep uint64) {
	h := s.core.hdr.Load()
	m, _ := h.rec.Measure(ep)
	s.ctrl.Observe(m.Spread)
	s.place.Observe(h.rec, ep)
	var result []byte
	if h.red != nil {
		result = h.red.Result(ep)
	}
	if up := s.srv.opt.Upstream; up != nil && !s.dead.Load() {
		up.ShardArrive(s.name, ep, s.ctrl.Current().P, m.Spread, s.ctrl.Sigma(), result,
			func(out ShardOutcome) { s.boundary(m.Spread, out) })
		return
	}
	s.boundary(m.Spread, ShardOutcome{Result: result})
}

// boundary finishes an episode once its outcome is known. Under the
// session mutex it applies an elastic session's pending membership change
// (dropping leavers, admitting joiners, re-assigning ids densely), applies
// a due epoch plan or placement to the core, and advances the episode;
// then it answers the admitted joiners and fans the release out. Holding
// the mutex across the membership change and the advance makes a
// concurrent Leave safe: the leaver sees either the pre-boundary episode
// (and proxy-arrives into the running header) or the post-boundary
// membership (which no longer contains it). A boundary with unchanged
// membership — every fixed-membership one, and the elastic steady state —
// stays allocation-free. An upstream error poisons the session instead.
func (s *session) boundary(spread float64, out ShardOutcome) {
	s.mu.Lock()
	if s.retired {
		// Every local member arrived and then left without awaiting, and
		// the clean retirement ran while the episode was in flight
		// upstream; nobody is left to release (or to poison).
		s.mu.Unlock()
		return
	}
	if out.Err != nil {
		s.mu.Unlock()
		s.poison(out.Err)
		return
	}
	ep := s.episode.Load()
	targets := s.liveLocked(s.bcast[:0])
	s.bcast = targets
	var admitted []*srvConn
	// Every slot of an elastic cohort is filled once an episode completes,
	// so a live count short of the slots means someone left.
	if s.elastic && (len(s.pending) > 0 || len(targets) < len(s.members)) {
		admitted = s.pending
		s.pending = nil
		if len(targets)+len(admitted) == 0 {
			s.retired = true
			s.episode.Store(ep + 1)
			s.mu.Unlock()
			s.finish(nil)
			return
		}
		// The membership slice must not alias the reusable bcast scratch:
		// other goroutines read s.members under the mutex while the next
		// boundary rewrites the scratch.
		live := make([]*srvConn, 0, len(targets)+len(admitted))
		live = append(append(live, targets...), admitted...)
		for i, m := range live {
			m.id.Store(int64(i))
		}
		for _, m := range admitted {
			m.nextArrive.Store(ep + 1) // first legal arrival is the new epoch's episode
		}
		s.members = live
		if n := len(live); n != s.ctrl.Current().P {
			s.ctrl.RequestP(n) // n ≥ 1 here, so the request cannot fail
		}
	}
	replanned, placed := false, false
	if !s.dead.Load() {
		h := s.core.hdr.Load()
		if plan, ok := s.ctrl.Evaluate(); ok {
			s.core.rebuild(plan, s.place.ForEpoch(h.order, plan.P))
			s.ctrl.Commit(plan)
			replanned = true
		} else if order := s.place.Due(s.ctrl, h.order, h.p); order != nil {
			s.core.place(order)
			s.ctrl.NotePlacement()
			placed = true
		}
	}
	// Advance the episode before the first release byte leaves: a member's
	// next arrival frame is ordered after its release, so every validation
	// against the episode counter sees the new value — and, through it,
	// the header published above.
	s.episode.Store(ep + 1)
	cur := s.ctrl.Current()
	s.mu.Unlock()

	switch {
	case replanned:
		s.srv.opt.logf("session %s: episode %d epoch %d: p %d degree %d dynamic %t (measured sigma %.3gs, %d joined, %d continuing)",
			s.name, ep, cur.Epoch, cur.P, cur.Degree, cur.Dynamic, cur.Sigma, len(admitted), len(targets))
	case placed:
		s.srv.opt.logf("session %s: episode %d placement (order %v)", s.name, ep, s.core.hdr.Load().order)
	}
	if s.dead.Load() {
		return // poison raced in mid-episode; members already have the cause
	}
	wt := s.srv.opt.writeTimeout()
	for _, m := range admitted {
		buf, err := wire.AppendFrame(nil, wire.Frame{
			Type: wire.TypeJoinResp, ID: int(m.id.Load()), P: cur.P,
			Degree: cur.Degree, Episode: ep + 1,
		})
		if err != nil {
			s.poison(fmt.Errorf("netbarrier: internal: unencodable frame: %w", err))
			return
		}
		// Enqueued like a release: an admitted member whose socket cannot be
		// written poisons the session from its writer goroutine, without
		// delaying anyone else's JoinResp or release.
		m.enqueue(sendJob{buf: buf, timeout: wt, sess: s})
	}
	s.broadcastRelease(ep, s.releaseFrame(ep, cur, spread, out, targets), targets)
}

// releaseFrame builds the frame completing episode ep and advertising the
// next episode's configuration cur: a Release, a Result carrying the fold
// for a collective session, or a ShardRelease carrying the fleet-wide fold
// and aggregate (ΣP, and σ over the live shards targets). A leaf
// advertises the root's fleet-wide σ when the outcome has one, so its
// clients plan against the whole population they synchronize with.
func (s *session) releaseFrame(ep uint64, cur reconfig.Plan, spread float64, out ShardOutcome, targets []*srvConn) wire.Frame {
	f := wire.Frame{
		Type: wire.TypeRelease, Episode: ep,
		Degree: cur.Degree, P: cur.P, Epoch: cur.Epoch,
		Spread: spread, Sigma: out.Sigma,
	}
	if f.Sigma <= 0 {
		f.Sigma = s.ctrl.Sigma()
	}
	switch {
	case s.shard:
		f.Type = wire.TypeShardRelease
		f.FleetP, f.Sigma = s.fleetStats(targets)
		f.Data = out.Result
	case s.op != nil:
		f.Type = wire.TypeResult
		f.Data = out.Result
	}
	return f
}

// poison fails the session with cause err. Whatever killed it — watchdog
// stall, disconnect, protocol violation, upstream failure, shutdown —
// lands here; the dead flag admits the first cause only. Every member
// receives the wire-encoded cause instead of a release, and pending
// joiners a refusing JoinResp (a refusal that cannot be written closes the
// connection, so the client fails fast). Sends run concurrently, but
// poison blocks until all finish: Server.Close closes every connection
// right after. The session is then retired.
func (s *session) poison(err error) {
	if err == nil {
		err = softbarrier.ErrPoisoned
	}
	if !s.dead.CompareAndSwap(false, true) {
		return
	}
	s.srv.opt.logf("session %s: poisoned: %v (arrivals %v)", s.name, err, s.core.hdr.Load().arr.Snapshot(nil))
	s.mu.Lock()
	members := s.liveLocked(nil)
	pending := s.pending
	s.pending = nil
	s.mu.Unlock()

	wt := s.srv.opt.writeTimeout()
	var wg sync.WaitGroup
	fanOut := func(ms []*srvConn, f wire.Frame, refusal bool) {
		buf, encErr := wire.AppendFrame(nil, f)
		for _, m := range ms {
			wg.Add(1)
			go func(m *srvConn) {
				defer wg.Done()
				sendErr := encErr
				if sendErr == nil {
					sendErr = m.send(buf, wt)
				}
				// A member's failure is ignored: that member is already gone.
				if sendErr != nil && refusal {
					s.srv.opt.logf("session %s: failed to refuse pending client %s: %v", s.name, m.conn.RemoteAddr(), sendErr)
					m.conn.Close()
				}
			}(m)
		}
	}
	fanOut(members, wire.Frame{Type: wire.TypePoison, Cause: softbarrier.EncodePoisonCause(nil, err)}, false)
	fanOut(pending, wire.Frame{Type: wire.TypeJoinResp, Err: fmt.Sprintf("session poisoned: %v", err)}, true)
	wg.Wait()
	s.finish(err)
}

// finish retires the session: its watchdog stops, a leaf's upstream link
// departs — gracefully when cause is nil, or carrying the poison cause so
// the rest of the fleet fails with the original error — and the name
// becomes reusable.
func (s *session) finish(cause error) {
	s.unwatch()
	if up := s.srv.opt.Upstream; up != nil {
		up.ShardClose(s.name, cause)
	}
	s.srv.retire(s)
}

// broadcastRelease encodes the episode-completing frame once, into the
// parity-double-buffered release scratch (zero allocations in the steady
// state), and enqueues it on each member's writer goroutine. A member that
// cannot be written within the write timeout will never arrive again, so
// its failed write poisons the session; nobody else's release waits on it.
// A same-parity buffer is reused two episodes later, when every borrowing
// write has normally completed (a member must receive release k before it
// can arrive at k+1); relPending catches a stalled socket still holding
// it, and the fan-out then encodes into a fresh allocation instead.
func (s *session) broadcastRelease(ep uint64, f wire.Frame, ms []*srvConn) {
	parity := ep & 1
	pend := &s.relPending[parity]
	var dst []byte
	if pend.Load() == 0 {
		dst = s.relScratch[parity][:0]
	} else {
		pend = nil // scratch still borrowed; this fan-out owns a private buffer
	}
	buf, err := wire.AppendFrame(dst, f)
	if err != nil {
		s.poison(fmt.Errorf("netbarrier: internal: unencodable frame: %w", err))
		return
	}
	if pend != nil {
		s.relScratch[parity] = buf
	}
	wt := s.srv.opt.writeTimeout()
	for _, m := range ms {
		if pend != nil {
			pend.Add(1)
		}
		m.enqueue(sendJob{buf: buf, timeout: wt, sess: s, pend: pend})
	}
}

// join claims a member slot. want ≥ 0 requests a specific id; -1 takes
// the first free slot. It returns the assigned id or a refusal message;
// in an elastic session a join against a full cohort is deferred instead
// of refused (the connection parks on the pending list and is admitted at
// the next episode boundary), and the requested id and participant count
// are advisory — membership is the server's to manage.
func (s *session) join(c *srvConn, p, want int) (id int, refusal string, deferred bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The session's participant kind is fixed by its first joiner:
	// aggregated shard arrivals and per-client arrivals carry different
	// frames and release shapes, so mixing them would corrupt both.
	switch {
	case s.retired || s.dead.Load():
		return 0, "session is shutting down", false
	case c.shard != s.shard && s.shard:
		return 0, "session is inter-shard; clients must join through a leaf", false
	case c.shard != s.shard:
		return 0, "session has client members; shards cannot join it", false
	case s.elastic:
		want = -1
	case p != len(s.members):
		return 0, fmt.Sprintf("session has %d participants, not %d", len(s.members), p), false
	case want >= len(s.members):
		return 0, fmt.Sprintf("id %d out of range for %d participants", want, len(s.members)), false
	case want >= 0 && s.members[want] != nil:
		return 0, fmt.Sprintf("id %d already taken", want), false
	}
	id = want
	for i := 0; id < 0 && i < len(s.members); i++ {
		if s.members[i] == nil {
			id = i
		}
	}
	switch {
	case id >= 0:
		c.id.Store(int64(id))
		s.members[id] = c
		return id, "", false
	case s.elastic:
		s.pending = append(s.pending, c)
		return 0, "", true
	}
	return 0, "session is full", false
}

// depart processes a member's departure: a graceful Leave when err is
// nil, else its reader terminating with err (a pending joiner is just
// forgotten). A disconnect of a member that had not left poisons the
// session: it cannot arrive anymore, and poisoning is how the others learn
// that before the watchdog deadline. A Leave from a fixed-membership
// session while others keep arriving is a stall the watchdog names —
// departure there is cooperative, not transparent — while an elastic
// session arrives on behalf of a leaver that had not yet arrived (folding
// the op's identity) and drops it at the next boundary. The session
// retires once every member has left and no joiner is pending.
func (s *session) depart(c *srvConn, err error) {
	s.mu.Lock()
	if c.id.Load() < 0 {
		for i, m := range s.pending {
			if m == c {
				s.pending = append(s.pending[:i], s.pending[i+1:]...)
				break
			}
		}
		c.leftOK = err == nil
		s.mu.Unlock()
		return
	}
	wasGone := c.gone || c.leftOK
	c.gone = true
	c.leftOK = c.leftOK || err == nil
	ep, dead := s.episode.Load(), s.dead.Load()
	proxy := err == nil && s.elastic && c.nextArrive.Load() <= ep && !dead
	done := err == nil && !proxy && !dead && len(s.pending) == 0 && len(s.liveLocked(nil)) == 0
	s.retired = s.retired || done
	s.mu.Unlock()
	switch {
	case err != nil && !wasGone && !dead:
		// Name shards as shards: a leaf process dying often reaches the root
		// as a bare EOF (the leaf's graceful poison frame races its own
		// process exit), and the cause fans out fleet-wide, so it must say
		// which shard died — "client 0" would point at an innocent local id.
		s.poison(fmt.Errorf("netbarrier: %s %d disconnected mid-session: %w", c.kind(), c.id.Load(), err))
	case proxy:
		// The proxy arrival may complete the episode, whose boundary (or, if
		// everyone is gone, retirement) runs inside this call.
		s.climb(int(c.id.Load()), ep, s.ident)
	case done:
		s.finish(nil)
	}
}
