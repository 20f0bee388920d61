package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"softbarrier"
	"softbarrier/internal/netbarrier"
	"softbarrier/internal/shardbarrier"
	"softbarrier/internal/wire"
	"softbarrier/internal/wire/memnet"
)

// Server options at barrierd's defaults (-watchdog 10s, -replan 10).
const (
	barrierdWatchdog = 10 * time.Second
	barrierdReplan   = 10
	dialTimeout      = 5 * time.Second
	session          = "bench"
	fleetLeaves      = 2
	fleetP           = 64
	tcpP             = 2
)

// wireBench drives a netbarrier deployment — a memnet fleet or a flat TCP
// server — from one goroutine: every member's Arrive back to back, then
// every member's Await, each release checked for the episode index and
// (with an op) the oracle fold.
type wireBench struct {
	sch     *schedule
	fleet   bool // fleet-memnet; else tcp-pair
	clients []*netbarrier.Client
	f       *shardbarrier.Fleet
	srv     *netbarrier.Server
	served  chan error
	seq     int // episodes run since setup
	dead    bool

	tr      *tracer // nil when untraced
	wt      *wireTrace
	lastRel netbarrier.Release
	fail    string // the first failed check since setup
}

// wireTrace is the traced pass's per-call timing and session readouts.
type wireTrace struct {
	arrive, firstAwait, drain hist
	late, spread              hist
	arr                       []int64
	fbuf                      []float64 // spreadNs scratch
	rebuilds0                 uint64
}

func newFleet(seed uint64) bench {
	return &wireBench{sch: burstSchedule(seed, fleetP, softbarrier.OpSumUint64()), fleet: true}
}

func newTCPPair(seed uint64) bench {
	return &wireBench{sch: burstSchedule(seed, tcpP, softbarrier.Op{})}
}

func (w *wireBench) setup(traced bool) error {
	var inner wire.Transport = wire.DefaultTCP
	if w.fleet {
		inner = memnet.New()
	}
	srvTr, cliTr := inner, inner
	w.tr, w.wt, w.seq, w.dead, w.fail = nil, nil, 0, false, ""
	if traced {
		w.tr = newTracer()
		w.wt = &wireTrace{arr: make([]int64, w.sch.p), fbuf: make([]float64, w.sch.p)}
		srvTr = w.tr.transport(inner, roleServer, roleLink)
		cliTr = w.tr.transport(inner, roleClient, roleClient)
	}
	opt := netbarrier.Options{Watchdog: barrierdWatchdog, ReplanEvery: barrierdReplan}
	var addrs []string
	if w.fleet {
		op := w.sch.op
		opt.Op = &op
		f, err := shardbarrier.StartFleet(shardbarrier.FleetOptions{
			Leaves: fleetLeaves, Net: opt, Transport: srvTr, Bind: "mem:0",
		})
		if err != nil {
			return err
		}
		w.f = f
		addrs = f.LeafAddrs()
	} else {
		opt.Transport = srvTr
		w.srv = netbarrier.NewServer(opt)
		w.served = make(chan error, 1)
		go func() { w.served <- w.srv.ListenAndServe("127.0.0.1:0") }()
		for w.srv.Addr() == "" {
			select {
			case err := <-w.served:
				w.served <- err
				return fmt.Errorf("server: %w", err)
			default:
				runtime.Gosched()
			}
		}
		addrs = []string{w.srv.Addr()}
	}
	perAddr := w.sch.p / len(addrs)
	for i := 0; i < w.sch.p; i++ {
		c, err := netbarrier.DialVia(cliTr, addrs[i/perAddr], dialTimeout)
		if err != nil {
			return err
		}
		w.clients = append(w.clients, c)
		if err := c.JoinAs(session, perAddr, i%perAddr); err != nil {
			return fmt.Errorf("member %d: %w", i, err)
		}
	}
	return nil
}

func (w *wireBench) close() {
	for _, c := range w.clients {
		if c.Err() == nil {
			c.Leave()
		} else {
			c.Close()
		}
	}
	w.clients = nil
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	if w.srv != nil {
		w.srv.Close()
		if err := <-w.served; err != nil && !errors.Is(err, netbarrier.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "barrierbench: server:", err)
		}
		w.srv = nil
	}
}

func (w *wireBench) loop(d time.Duration, p *pass) {
	tr, wt := w.tr, w.wt
	if tr != nil && p != nil {
		tr.arm(d)
		wt.rebuilds0 = w.rebuilds()
	}
	n := len(w.clients)
	stopAt := now() + int64(d)
	for e := 0; now() < stopAt && !w.dead && (p == nil || !p.full()) && (tr == nil || p == nil || e < len(tr.eps)); e++ {
		k := w.seq % schedLen
		ep := uint64(w.seq)
		first := now()
		if tr != nil && p != nil {
			tr.begin(e, first)
		}
		last, ok := first, true
		for i, c := range w.clients {
			var t int64
			if tr != nil || i == n-1 {
				t = now()
				last = t
			}
			var err error
			if w.sch.width > 0 {
				err = c.ArriveReduce(w.sch.contrib(k, i))
			} else {
				err = c.Arrive()
			}
			if err != nil {
				ok = false
				w.noteFail(ep, i, fmt.Sprintf("arrive: %v", err))
			}
			if tr != nil {
				wt.arrive.add(now() - t)
				wt.late.add(t - first)
				wt.arr[i] = t
			}
		}
		var drain int64
		for i, c := range w.clients {
			var t int64
			if tr != nil {
				t = now()
			}
			r, err := c.Await()
			if err != nil || r.Episode != ep || (w.sch.width > 0 && !w.sch.check(k, r.Result)) {
				ok = false
				w.noteFail(ep, i, fmt.Sprintf("await: err %v, release of episode %d, result %x, want %x",
					err, r.Episode, r.Result, w.sch.expected(k)))
			}
			if tr != nil {
				if i == 0 {
					wt.firstAwait.add(now() - t)
					w.lastRel = r
				} else {
					drain += now() - t
				}
			}
		}
		end := now()
		if p != nil {
			p.record(first, last, end, ok)
		}
		if tr != nil && p != nil {
			wt.drain.add(drain)
			wt.spread.add(spreadNs(wt.arr, wt.fbuf))
		}
		for _, c := range w.clients {
			w.dead = w.dead || c.Err() != nil
		}
		w.seq++
	}
	if tr != nil && p != nil {
		tr.stop()
	}
}

func (w *wireBench) noteFail(ep uint64, member int, what string) {
	if w.fail == "" {
		w.fail = fmt.Sprintf("episode %d member %d: %s", ep, member, what)
	}
}

func (w *wireBench) firstFailure() string { return w.fail }

// servers returns every netbarrier server of the deployment.
func (w *wireBench) servers() []*netbarrier.Server {
	if !w.fleet {
		return []*netbarrier.Server{w.srv}
	}
	s := []*netbarrier.Server{w.f.Root}
	for _, l := range w.f.Leaves {
		s = append(s, l.Server())
	}
	return s
}

// rebuilds sums the tree rebuilds of every session of the deployment.
func (w *wireBench) rebuilds() uint64 {
	var n uint64
	for _, s := range w.servers() {
		if st, ok := s.SessionStats(session); ok {
			n += st.Reconfig.Rebuilds
		}
	}
	return n
}

func (w *wireBench) layers(p *pass, m metrics) {
	wt := w.wt
	n := float64(p.episodes())
	m["netbarrier.client_arrive_us_p50"] = wt.arrive.quantile(0.5) / 1e3
	m["netbarrier.first_await_us_p50"] = wt.firstAwait.quantile(0.5) / 1e3
	m["netbarrier.drain_us_p50"] = wt.drain.quantile(0.5) / 1e3
	// The clients' own session: a leaf's in the fleet.
	srvs := w.servers()
	if st, ok := srvs[len(srvs)-1].SessionStats(session); ok {
		m["netbarrier.degree_final"] = float64(st.Reconfig.LastPlan.Degree)
	}
	m["netbarrier.rebuilds_per_kepisode"] = float64(w.rebuilds()-wt.rebuilds0) * 1e3 / n
	perAddr := w.sch.p
	if w.fleet {
		perAddr /= fleetLeaves
	}
	m["model.optimal_degree_us"] = timeOptimalDegree(perAddr, w.lastRel.Sigma, modelTc)
	m["driver.arrive_late_us_p99"] = wt.late.quantile(0.99) / 1e3
	m["driver.realized_spread_us_p50"] = wt.spread.quantile(0.5) / 1e3
	w.tr.layers(n, m, w.fleet)
}
