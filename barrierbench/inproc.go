package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"softbarrier"
	"softbarrier/internal/stats"
)

// inproc-skew: the paper's regime in process — imbalanced arrivals with
// persistent stragglers against an adaptive, placement-armed reduction
// tree.
const (
	inprocP      = 64
	inprocSigma  = 10e-6 // base arrival spread, seconds
	inprocSlow   = 4     // persistent stragglers at +3σ
	inprocReplan = 10
	inprocLeadNs = 2000  // episode start lead so every driver sees it before the first due time
	modelTc      = 20e-6 // the planner's counter cost when given none: the paper's 20µs
	modelSamples = 201
)

type inproc struct {
	sch   *schedule
	b     *softbarrier.ReconfigurableBarrier
	nd    int       // driver goroutines
	order [][]int32 // order[k*nd+d]: driver d's members in due order for schedule episode k
	out   [][]byte  // per-member result buffers
	seq   int       // episodes run so far; selects the schedule episode

	// Per-episode state shared by the drivers. Driver 0 publishes an
	// episode by storing start then gen; the others report by done.
	gen, done, start atomic.Int64
	arr              []int64 // per-member arrive call start
	drv              []inprocDriver

	// spinNs is the drivers' total busy-waiting in wall time: spinning to
	// due times and on gen/done. Both drivers spin through most of every
	// episode; cpu_us_per_episode takes the spins' CPU time out.
	spinNs atomic.Int64

	tr *inprocTrace // nil when untraced
}

type inprocDriver struct {
	lo, hi   int
	end      int64 // last AwaitResult return
	failed   bool
	fail     string // the driver's first failed check since setup
	awaitBeg int64  // traced: first AwaitResult call and return
	awaitEnd int64
	_        [64]byte // keep drivers' slots off each other's cache lines
}

// inprocTrace is the traced pass's per-call timing and program readouts.
type inprocTrace struct {
	rec                    bool
	arrDur                 []int64
	fbuf                   []float64 // spreadNs scratch
	arrive, release, await hist
	obsSync, obsSpread     hist
	late, spread           hist
	obs                    observer
	wantEp                 uint64
	depths                 []int
	epoch                  uint64
	depthSum               float64
	depthN                 int
	rc0                    softbarrier.ReconfigStats
}

// observer keeps the last episode's telemetry; the releaser writes it
// inside its arrive call and driver 0 reads it after every driver
// reported, which orders the two.
type observer struct {
	at           int64
	ep           uint64
	sync, spread float64
}

func (o *observer) Episode(s softbarrier.EpisodeStats) {
	o.at = now()
	o.ep = s.Episode
	o.sync = s.SyncDelay
	o.spread = s.Spread
}

func newInproc(seed uint64) bench {
	w := &inproc{
		sch: skewSchedule(seed, inprocP, inprocSigma, inprocSlow, softbarrier.OpSumFloat64()),
		nd:  min(2, runtime.GOMAXPROCS(0)),
	}
	w.drv = make([]inprocDriver, w.nd)
	for d := range w.drv {
		w.drv[d].lo, w.drv[d].hi = d*inprocP/w.nd, (d+1)*inprocP/w.nd
	}
	w.order = make([][]int32, schedLen*w.nd)
	for k := 0; k < schedLen; k++ {
		offs := w.sch.offs[k*inprocP : (k+1)*inprocP]
		for d, dr := range w.drv {
			ids := make([]int32, 0, dr.hi-dr.lo)
			for id := dr.lo; id < dr.hi; id++ {
				ids = append(ids, int32(id))
			}
			slices.SortStableFunc(ids, func(a, b int32) int { return int(offs[a] - offs[b]) })
			w.order[k*w.nd+d] = ids
		}
	}
	return w
}

func (w *inproc) setup(traced bool) error {
	pol, _ := softbarrier.PlacementByName("ewma")
	opts := []softbarrier.Option{
		softbarrier.WithPlacementPolicy(pol()),
		softbarrier.WithCollective(w.sch.op),
	}
	w.tr = nil
	if traced {
		w.tr = &inprocTrace{arrDur: make([]int64, inprocP), fbuf: make([]float64, inprocP)}
		opts = append(opts, softbarrier.WithObserver(&w.tr.obs))
	}
	w.b = softbarrier.NewReconfigurable(inprocP, softbarrier.ReconfigConfig{ReplanEvery: inprocReplan}, opts...)
	for i := range w.drv {
		w.drv[i].fail = ""
	}
	w.out = make([][]byte, inprocP)
	for i := range w.out {
		w.out[i] = make([]byte, w.sch.width)
	}
	w.arr = make([]int64, inprocP)
	return nil
}

func (w *inproc) close() {}

func (w *inproc) loop(d time.Duration, p *pass) {
	if w.tr != nil {
		w.tr.rec = p != nil
		if p != nil {
			w.tr.rc0 = w.b.ReconfigStats()
			w.tr.epoch, w.tr.depths = w.b.Epoch(), w.b.Depths()
		}
	}
	w.gen.Store(0)
	w.done.Store(0)
	var wg sync.WaitGroup
	for di := 1; di < w.nd; di++ {
		wg.Add(1)
		go func(di int) {
			defer wg.Done()
			for n := int64(1); ; n++ {
				t := now()
				g := w.gen.Load()
				for g >= 0 && g < n {
					g = w.gen.Load()
				}
				if g < 0 {
					return
				}
				w.episode(di, now()-t)
				w.done.Add(1)
			}
		}(di)
	}
	stopAt := now() + int64(d)
	for n := int64(1); now() < stopAt && (p == nil || !p.full()) && w.b.Err() == nil; n++ {
		w.start.Store(now() + inprocLeadNs)
		w.gen.Store(n)
		w.episode(0, 0)
		t := now()
		for w.done.Load() < n*int64(w.nd-1) {
		}
		w.spinNs.Add(now() - t)
		if p != nil {
			w.finish(p)
		}
		w.seq++
	}
	w.gen.Store(-1)
	wg.Wait()
}

// episode is driver di's share of one episode: spin to each owned
// member's due time and arrive, then await every owned member and check
// its result against the oracle. spun is the driver's busy-waiting
// before the episode; the episode adds it and its own to spinNs.
func (w *inproc) episode(di int, spun int64) {
	dr := &w.drv[di]
	k := w.seq % schedLen
	dr.failed = false
	t0 := w.start.Load()
	offs := w.sch.offs[k*inprocP : (k+1)*inprocP]
	tr := w.tr
	for _, id := range w.order[k*w.nd+di] {
		due := t0 + offs[id]
		s := now()
		t := s
		for t < due {
			t = now()
		}
		spun += t - s
		w.arr[id] = t
		if err := w.b.ArriveReduce(int(id), w.sch.contrib(k, int(id))); err != nil {
			dr.failed = true
			dr.noteFail(w.seq, int(id), fmt.Sprintf("arrive: %v", err))
		}
		if tr != nil {
			tr.arrDur[id] = now() - t
			if tr.rec {
				tr.late.add(t - due)
			}
		}
	}
	for id := dr.lo; id < dr.hi; id++ {
		if tr != nil && id == dr.lo {
			dr.awaitBeg = now()
		}
		err := w.b.AwaitResult(id, w.out[id])
		if tr != nil && id == dr.lo {
			dr.awaitEnd = now()
		}
		if err != nil || !w.sch.check(k, w.out[id]) {
			dr.failed = true
			dr.noteFail(w.seq, id, fmt.Sprintf("await: err %v, result %x, want %x", err, w.out[id], w.sch.expected(k)))
		}
	}
	dr.end = now()
	w.spinNs.Add(spun)
}

func (dr *inprocDriver) noteFail(seq, id int, what string) {
	if dr.fail == "" {
		dr.fail = fmt.Sprintf("episode %d member %d: %s", seq, id, what)
	}
}

// firstFailure reports driver 0's first failed check, else another's;
// the drivers have stopped when it is called.
func (w *inproc) firstFailure() string {
	for i := range w.drv {
		if w.drv[i].fail != "" {
			return w.drv[i].fail
		}
	}
	return ""
}

// finish records the completed episode; driver 0 runs it after every
// driver reported, at the barrier's quiescent point.
func (w *inproc) finish(p *pass) {
	first, last, lastID := w.arr[0], w.arr[0], 0
	for id, t := range w.arr {
		if t < first {
			first = t
		}
		if t > last {
			last, lastID = t, id
		}
	}
	end, ok := int64(0), true
	for i := range w.drv {
		end = max(end, w.drv[i].end)
		ok = ok && !w.drv[i].failed
	}
	if tr := w.tr; tr != nil {
		ok = tr.episode(w, lastID) && ok
	}
	p.record(first, last, end, ok)
}

// episode attributes one traced episode's calls: the arrive call whose
// span holds the observer's release stamp completed the root; the other
// drivers' first AwaitResult after that stamp is the wake-up. It reports
// whether the observer saw the expected episode index.
func (tr *inprocTrace) episode(w *inproc, lastID int) bool {
	o := &tr.obs
	rel, relStart := -1, int64(math.MinInt64)
	for id, t := range w.arr {
		if t <= o.at && o.at <= t+tr.arrDur[id] && t > relStart {
			rel, relStart = id, t
		}
	}
	if rel < 0 {
		for id := range w.arr {
			if rel < 0 || tr.arrDur[id] > tr.arrDur[rel] {
				rel = id
			}
		}
	}
	for id, d := range tr.arrDur {
		if id == rel {
			tr.release.add(d)
		} else {
			tr.arrive.add(d)
		}
	}
	for i := range w.drv {
		dr := &w.drv[i]
		if rel >= dr.lo && rel < dr.hi {
			continue
		}
		tr.await.add(dr.awaitEnd - max(dr.awaitBeg, o.at))
	}
	tr.obsSync.add(int64(o.sync * 1e9))
	tr.obsSpread.add(int64(o.spread * 1e9))
	tr.spread.add(spreadNs(w.arr, tr.fbuf))
	tr.depthSum += float64(tr.depths[lastID])
	tr.depthN++
	if e := w.b.Epoch(); e != tr.epoch {
		tr.epoch, tr.depths = e, w.b.Depths()
	}
	okEp := tr.depthN == 1 || o.ep == tr.wantEp
	tr.wantEp = o.ep + 1
	return okEp
}

func (w *inproc) layers(p *pass, m metrics) {
	tr := w.tr
	n := float64(p.episodes())
	m["softbarrier.arrive_ns_p50"] = tr.arrive.quantile(0.5)
	m["softbarrier.release_arrive_us_p50"] = tr.release.quantile(0.5) / 1e3
	m["softbarrier.release_arrive_us_p99"] = tr.release.quantile(0.99) / 1e3
	m["softbarrier.await_us_p50"] = tr.await.quantile(0.5) / 1e3
	m["softbarrier.observer_sync_delay_us_p50"] = tr.obsSync.quantile(0.5) / 1e3
	m["softbarrier.spread_us_p50"] = tr.obsSpread.quantile(0.5) / 1e3
	m["softbarrier.last_arriver_depth_mean"] = tr.depthSum / float64(tr.depthN)
	rc := w.b.ReconfigStats()
	m["reconfig.rebuilds_per_kepisode"] = float64(rc.Rebuilds-tr.rc0.Rebuilds) * 1e3 / n
	m["reconfig.placements_per_kepisode"] = float64(rc.Placements-tr.rc0.Placements) * 1e3 / n
	m["reconfig.degree_final"] = float64(w.b.Degree())

	// Paper tie-in: t_c is the measured non-completing arrive cost; the
	// model's delay is evaluated at the live degree and σ, on the nearest
	// full tree when 64 is not a power of the degree.
	sigma, deg := w.b.Sigma(), w.b.Degree()
	m["model.optimal_degree_us"] = timeOptimalDegree(inprocP, sigma, modelTc)
	tc := tr.arrive.quantile(0.5) / 1e9
	if est, err := softbarrier.EstimateSyncDelay(nearestFullTree(inprocP, deg), deg, sigma, tc); err == nil && est > 0 {
		m["model.predicted_sync_delay_us"] = est * 1e6
		m["model.residual_ratio"] = quantileNs(p.syncNs, 0.5) / 1e9 / est
	}
	m["loadmodel.policy_update_us"] = w.timePolicy()
	m["driver.arrive_late_us_p99"] = tr.late.quantile(0.99) / 1e3
	m["driver.realized_spread_us_p50"] = tr.spread.quantile(0.5) / 1e3
}

// timePolicy times an EWMA placement policy's Observe+Order on the
// schedule's lags (arrival offsets from the episode's earliest arrival),
// one call pair per schedule episode; it returns the median in µs.
func (w *inproc) timePolicy() float64 {
	pol, _ := softbarrier.PlacementByName("ewma")
	pp := pol()
	lags := make([]float64, inprocP)
	d := make([]float64, schedLen)
	for k := range d {
		for i := range lags {
			lags[i] = float64(w.sch.offs[k*inprocP+i]) / 1e9
		}
		t := now()
		pp.Observe(lags)
		sinkOrder = pp.Order()
		d[k] = float64(now() - t)
	}
	return stats.Percentile(d, 50) / 1e3
}

var (
	sinkOrder  []int
	sinkDegree int
)

// timeOptimalDegree returns the median time of one OptimalDegree call at
// the given inputs, in µs: the planner's per-replan cost.
func timeOptimalDegree(p int, sigma, tc float64) float64 {
	d := make([]float64, modelSamples)
	for i := range d {
		t := now()
		sinkDegree = softbarrier.OptimalDegree(p, sigma, tc)
		d[i] = float64(now() - t)
	}
	return stats.Percentile(d, 50) / 1e3
}

// nearestFullTree returns the power of deg closest to p.
func nearestFullTree(p, deg int) int {
	lo := 1
	for lo*deg <= p {
		lo *= deg
	}
	if lo == p || p-lo <= lo*deg-p {
		return lo
	}
	return lo * deg
}
