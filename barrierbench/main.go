// Command barrierbench is the repository benchmark: closed-loop barrier
// episodes driven split-phase against the barrier stack's public API, in
// three seeded workloads.
//
//	inproc-skew   softbarrier.NewReconfigurable(64) with EWMA placement and
//	              a sum-f64 collective; Normal(0, 10µs) arrival offsets plus
//	              4 persistent stragglers at +3σ (one per quarter of the ids),
//	              issued by 2 drivers that spin to each member's due time.
//	fleet-memnet  shardbarrier fleet (2 leaves + root) over wire/memnet,
//	              64 members (32 per leaf), sum-u64, back-to-back arrivals.
//	tcp-pair      flat netbarrier server over loopback TCP, 2 members,
//	              plain back-to-back arrivals.
//
// Every member's result in every episode is checked against the
// benchmark's own sequential fold (and, over the wire, the episode index);
// failures are counted, not fatal. With -trace 0 the last stdout line is a
// JSON object of end-to-end metrics measured with bare transports and no
// per-call timing; with -trace 1 the same run is repeated with every call
// into the stack timed (and, over the wire, a tracing transport decorator
// counting and stamping each Read/Write/Set*Deadline), and the line carries
// the per-layer metrics instead. A traced wire run also writes its
// per-episode write stamps to .bench_build/spans-<workload>.csv.
//
// Usage, from the repository root:
//
//	bash barrierbench/run.sh --workload fleet-memnet --seed 7 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"softbarrier/internal/stats"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced run (-trace 0).
var endToEnd = []metricDef{
	{"episode_us_p50", "us"},
	{"episode_us_p90", "us"},
	{"sync_delay_us_p50", "us"},
	{"sync_delay_us_p90", "us"},
	{"cpu_us_per_episode", "us"},
	{"ok_ratio", "ratio"},
	{"setup_s", "s"},
}

// perLayer are the metrics of the traced run (-trace 1). A layer a
// workload does not use reports 0. The e2e.* entries are whole-program
// figures of the untraced pass that carry no regression bound: on a shared
// 2-vCPU host, throughput and p99 moved 0.2–0.5 of their median between
// runs, and allocations are 0 on tcp-pair.
var perLayer = []metricDef{
	{"softbarrier.arrive_ns_p50", "ns"},
	{"softbarrier.release_arrive_us_p50", "us"},
	{"softbarrier.release_arrive_us_p99", "us"},
	{"softbarrier.await_us_p50", "us"},
	{"softbarrier.observer_sync_delay_us_p50", "us"},
	{"softbarrier.spread_us_p50", "us"},
	{"softbarrier.last_arriver_depth_mean", "levels"},
	{"reconfig.rebuilds_per_kepisode", "count"},
	{"reconfig.placements_per_kepisode", "count"},
	{"reconfig.degree_final", "count"},
	{"model.optimal_degree_us", "us"},
	{"model.predicted_sync_delay_us", "us"},
	{"model.residual_ratio", "ratio"},
	{"loadmodel.policy_update_us", "us"},
	{"netbarrier.client_arrive_us_p50", "us"},
	{"netbarrier.first_await_us_p50", "us"},
	{"netbarrier.drain_us_p50", "us"},
	{"netbarrier.complete_us_p50", "us"},
	{"netbarrier.fanout_us_p50", "us"},
	{"netbarrier.degree_final", "count"},
	{"netbarrier.rebuilds_per_kepisode", "count"},
	{"shardbarrier.uplink_us_p50", "us"},
	{"shardbarrier.root_hop_us_p50", "us"},
	{"wire.client.writes_per_episode", "count"},
	{"wire.server.writes_per_episode", "count"},
	{"wire.link.writes_per_episode", "count"},
	{"wire.write_bytes_per_episode", "bytes"},
	{"wire.write_us_per_episode", "us"},
	{"wire.reads_per_episode", "count"},
	{"wire.deadline_sets_per_episode", "count"},
	{"wire.deadline_ns_p50", "ns"},
	{"driver.arrive_late_us_p99", "us"},
	{"driver.realized_spread_us_p50", "us"},
	{"driver.failed_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"e2e.episodes_per_s", "1/s"},
	{"e2e.episode_us_p99", "us"},
	{"e2e.sync_delay_us_p99", "us"},
	{"e2e.allocs_per_episode", "count"},
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(seed uint64) bench{
	"inproc-skew":  newInproc,
	"fleet-memnet": newFleet,
	"tcp-pair":     newTCPPair,
}

// bench is one workload's deployment under test.
type bench interface {
	// setup builds the barrier (or server/fleet) and dials and joins every
	// member; traced selects the observer and tracing transport. A bench
	// can be set up again after close.
	setup(traced bool) error
	// loop runs closed-loop episodes until d elapses, the pass's sample
	// slots fill, or a member's error makes further episodes impossible.
	// A nil pass runs unrecorded warm-up episodes.
	loop(d time.Duration, p *pass)
	// layers adds the per-layer metrics of a traced pass.
	layers(p *pass, m metrics)
	// firstFailure describes the first failed check since setup, or is
	// empty.
	firstFailure() string
	close()
}

// pass is one timed run of closed-loop episodes, cut into 100ms windows.
// Every end-to-end figure is taken per window and reported as the median
// over windows, so a burst of outside interference that spoils one window
// does not move the run's result.
type pass struct {
	failed  int
	epNs    []uint32  // first arrive call to last await return
	syncNs  []uint32  // start of the last arrive call to last await return
	mallocs [2]uint64 // heap allocations before and after the timed loop

	t0      int64    // start of the first window
	nextWin int64    // end of the current window
	cuts    []window // closed windows
	ru      syscall.Rusage
	spun    func() int64 // the drivers' busy-waiting so far, ns; nil if they do not spin
	rd      *runDelay    // the threads' run delay, followed when the drivers spin
}

// window is one closed window: its last episode (exclusive), and the
// clock and the program's CPU time at its end.
type window struct {
	end       int
	at, cpuNs int64
}

// windowLen is the length of a pass's windows. Short windows let the
// median skip the ones a rare multi-millisecond stall of the host lands in.
const windowLen = 100 * time.Millisecond

// newPass allocates the sample slots of a pass lasting d and faults their
// pages in, so the timed loop neither allocates nor takes page faults.
func newPass(d time.Duration) *pass {
	slots := int(d.Seconds()*maxRate) + 1
	p := &pass{
		epNs:   make([]uint32, slots),
		syncNs: make([]uint32, slots),
		cuts:   make([]window, 0, d/windowLen+2),
	}
	for i := range p.epNs {
		p.epNs[i], p.syncNs[i] = 1, 1
	}
	p.epNs, p.syncNs = p.epNs[:0], p.syncNs[:0]
	return p
}

// newPassFor is newPass for b's episodes. Only inproc-skew's drivers
// busy-wait, on their own schedule; that wait is left out of the pass's
// CPU time.
func newPassFor(b bench, d time.Duration) *pass {
	p := newPass(d)
	if w, ok := b.(*inproc); ok {
		p.spun = w.spinNs.Load
	}
	return p
}

// start opens the first window; the windows' ends lie on a fixed grid.
func (p *pass) start() error {
	if p.spun != nil {
		rd, err := openRunDelay()
		if err != nil {
			return err
		}
		p.rd = rd
	}
	p.t0 = now()
	p.cut(p.t0)
	return nil
}

// stop releases what start opened.
func (p *pass) stop() {
	if p.rd != nil {
		p.rd.close()
	}
}

// cut closes the current window at t.
func (p *pass) cut(t int64) {
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &p.ru) // cannot fail for RUSAGE_SELF
	cpu := p.ru.Utime.Nano() + p.ru.Stime.Nano()
	if p.spun != nil {
		// A spin's wall time less the time its thread waited for a CPU
		// is the spin's CPU time.
		cpu -= p.spun() - p.rd.total()
	}
	if len(p.cuts) < cap(p.cuts) {
		p.cuts = append(p.cuts, window{len(p.epNs), t, cpu})
	}
	p.nextWin = p.t0 + int64(len(p.cuts))*int64(windowLen)
}

func (p *pass) full() bool { return len(p.epNs) == cap(p.epNs) }

func (p *pass) record(first, lastArrive, end int64, ok bool) {
	p.epNs = append(p.epNs, clampU32(end-first))
	p.syncNs = append(p.syncNs, clampU32(end-lastArrive))
	if !ok {
		p.failed++
	}
	if end >= p.nextWin {
		p.cut(end)
	}
}

// perWindow returns the median over closed windows of f, which sees each
// window's episode range, length and CPU time.
func (p *pass) perWindow(f func(lo, hi int, wall, cpu float64) float64) float64 {
	var vs []float64
	for i := 1; i < len(p.cuts); i++ {
		a, b := p.cuts[i-1], p.cuts[i]
		if b.end > a.end {
			vs = append(vs, f(a.end, b.end, float64(b.at-a.at), float64(b.cpuNs-a.cpuNs)))
		}
	}
	if len(vs) == 0 {
		return 0
	}
	return stats.Percentile(vs, 50)
}

// quantileUs is the median over windows of the q-quantile of xs, one of
// the pass's sample slices, in µs.
func (p *pass) quantileUs(xs []uint32, q float64) float64 {
	return p.perWindow(func(lo, hi int, _, _ float64) float64 {
		return quantileNs(xs[lo:hi], q) / 1e3
	})
}

// cpuUsPerEpisode is the median over windows of the program's CPU time
// per episode, in µs.
func (p *pass) cpuUsPerEpisode() float64 {
	return p.perWindow(func(lo, hi int, _, cpu float64) float64 {
		return cpu / 1e3 / float64(hi-lo)
	})
}

func (p *pass) episodes() int { return len(p.epNs) }

type metrics map[string]float64

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// A run builds the deployment at least minSetups times and then keeps
// rebuilding until setupBudget has passed or maxSetups builds were made;
// setup_s is the median build. Over 10 runs, the median of 201 builds had
// a quartile spread of 0.13–0.35 of itself; a 15µs inproc-skew build
// needed 20001 builds to stay within 0.1. The budget keeps tcp-pair to
// about 7000 builds: with more than about 20000 sockets in TIME_WAIT,
// each dial slowed several-fold.
const (
	minSetups   = 21
	maxSetups   = 20001
	setupBudget = 3 * time.Second
)

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: inproc-skew | fleet-memnet | tcp-pair")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated schedule and contributions")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds per pass")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	flag.Parse()
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "barrierbench: need -workload %v, -seconds ≥ 1, -trace 0|1\n", names())
		os.Exit(2)
	}
	// A wedged deployment must not hang the run: past this deadline it
	// exits without a result.
	time.AfterFunc(min(time.Duration(2*cfg.seconds+50)*time.Second, 170*time.Second), func() {
		fmt.Fprintln(os.Stderr, "barrierbench: run overran its deadline")
		os.Exit(3)
	})
	runtime.GOMAXPROCS(runtime.NumCPU())
	fmt.Printf("# barrierbench workload=%s seed=%d seconds=%d trace=%d go=%s GOMAXPROCS=%d nproc=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "barrierbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "barrierbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func names() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	slices.Sort(ns)
	return ns
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// run measures set-up, then an untraced pass, then (with trace) a traced
// pass on a fresh deployment with the same seed and length.
func run(cfg config) (*result, error) {
	mk := workloads[cfg.workload]
	d := time.Duration(cfg.seconds) * time.Second
	b := mk(cfg.seed)
	// Only the untraced run reports setup_s; a traced run builds once.
	var setups []float64
	reps := minSetups
	if cfg.trace {
		reps = 1
	}
	budget := time.Now().Add(setupBudget)
	for len(setups) < reps || (!cfg.trace && len(setups) < maxSetups && time.Now().Before(budget)) {
		if len(setups) > 0 {
			b.close()
		}
		t0 := time.Now()
		if err := b.setup(false); err != nil {
			b.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	un, err := timedPass(b, d)
	reportFailure(b, un)
	b.close()
	if err != nil {
		return nil, err
	}
	if un.episodes() == 0 {
		return nil, fmt.Errorf("no episode completed")
	}

	m := metrics{}
	res := &result{Attempted: un.episodes(), Failed: un.failed}
	defs := endToEnd
	if !cfg.trace {
		m["episode_us_p50"] = un.quantileUs(un.epNs, 0.5)
		m["episode_us_p90"] = un.quantileUs(un.epNs, 0.9)
		m["sync_delay_us_p50"] = un.quantileUs(un.syncNs, 0.5)
		m["sync_delay_us_p90"] = un.quantileUs(un.syncNs, 0.9)
		m["cpu_us_per_episode"] = un.cpuUsPerEpisode()
		m["ok_ratio"] = float64(un.episodes()-un.failed) / float64(un.episodes())
		m["setup_s"] = stats.Percentile(setups, 50)
	} else {
		if err := b.setup(true); err != nil {
			b.close()
			return nil, fmt.Errorf("traced setup: %w", err)
		}
		tr, err := timedPass(b, d)
		reportFailure(b, tr)
		if err != nil {
			b.close()
			return nil, err
		}
		if tr.episodes() == 0 {
			b.close()
			return nil, fmt.Errorf("no traced episode completed")
		}
		res.Attempted += tr.episodes()
		res.Failed += tr.failed
		defs = perLayer
		for _, def := range perLayer {
			m[def.name] = 0
		}
		b.layers(tr, m)
		err = dumpSpans(b, spanDir, cfg.workload, tr.episodes())
		b.close()
		if err != nil {
			return nil, err
		}
		m["driver.failed_ratio"] = float64(tr.failed) / float64(tr.episodes())
		m["e2e.episodes_per_s"] = un.perWindow(func(lo, hi int, wall, _ float64) float64 {
			return float64(hi-lo) / wall * 1e9
		})
		m["e2e.episode_us_p99"] = quantileNs(un.epNs, 0.99) / 1e3
		m["e2e.sync_delay_us_p99"] = quantileNs(un.syncNs, 0.99) / 1e3
		m["e2e.allocs_per_episode"] = float64(un.mallocs[1]-un.mallocs[0]) / float64(un.episodes())
		m["trace.overhead_ratio"] = tr.quantileUs(tr.epNs, 0.5) / un.quantileUs(un.epNs, 0.5)
	}
	res.Correct = res.Failed == 0
	res.Metrics = make(map[string]value, len(defs))
	for _, def := range defs {
		v, ok := m[def.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", def.name)
		}
		res.Metrics[def.name] = value{v, def.unit}
	}
	if len(m) != len(defs) {
		return nil, fmt.Errorf("measured %d metrics, declared %d", len(m), len(defs))
	}
	return res, nil
}

// spanDir holds the span tables of traced wire runs: the build directory
// run.sh makes in the checkout, which git ignores.
const spanDir = ".bench_build"

// dumpSpans writes the first n episodes of a traced wire pass's span table
// to dir/spans-<workload>.csv. Each run replaces the last one's table, so
// the tables of many runs (25MB for a 20s tcp-pair pass) do not pile up.
// Workloads without wire spans write nothing.
func dumpSpans(b bench, dir, workload string, n int) error {
	w, ok := b.(*wireBench)
	if !ok {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := spanPath(dir, workload)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := w.tr.writeSpans(f, n); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("# spans: %s (%d episodes)\n", path, n)
	return nil
}

func spanPath(dir, workload string) string {
	return filepath.Join(dir, "spans-"+workload+".csv")
}

// reportFailure writes the first failed check of a pass with failed
// episodes to stderr; the result line only counts them.
func reportFailure(b bench, p *pass) {
	if p != nil && p.failed > 0 {
		fmt.Fprintf(os.Stderr, "barrierbench: %d failed episodes; first failed check: %s\n", p.failed, b.firstFailure())
	}
}

// timedPass warms the deployment up, then records closed-loop episodes
// for d.
func timedPass(b bench, d time.Duration) (*pass, error) {
	p := newPassFor(b, d)
	runtime.GC()
	b.loop(warmup, nil)
	p.mallocs[0] = mallocs()
	if err := p.start(); err != nil {
		return nil, err
	}
	b.loop(d, p)
	p.mallocs[1] = mallocs()
	p.stop()
	return p, nil
}

// warmup is the unrecorded closed-loop run before each timed pass: the
// planner and placement policy settle and caches fill.
const warmup = 2 * time.Second

// maxRate bounds the episodes per second a pass can record; a pass whose
// slots fill stops early.
const maxRate = 60_000
