package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestScheduleDeterministic(t *testing.T) {
	for name, mk := range workloads {
		a, b, c := scheduleOf(mk(42)), scheduleOf(mk(42)), scheduleOf(mk(43))
		if !bytes.Equal(a.encode(), b.encode()) {
			t.Errorf("%s: seed 42 gave two different schedules", name)
		}
		if name != "tcp-pair" && bytes.Equal(a.encode(), c.encode()) {
			t.Errorf("%s: seeds 42 and 43 gave the same schedule", name)
		}
	}
}

func scheduleOf(b bench) *schedule {
	switch w := b.(type) {
	case *inproc:
		return w.sch
	case *wireBench:
		return w.sch
	}
	panic("unknown bench")
}

func TestSkewScheduleShape(t *testing.T) {
	s := skewSchedule(1, inprocP, inprocSigma, inprocSlow, scheduleOf(newInproc(1)).op)
	if len(s.slow) != inprocSlow {
		t.Fatalf("%d stragglers, want %d", len(s.slow), inprocSlow)
	}
	for j, id := range s.slow {
		if id/(inprocP/inprocSlow) != j {
			t.Errorf("straggler %d is id %d, outside its block of %d ids", j, id, inprocP/inprocSlow)
		}
	}
	// Persistent stragglers sit ~3σ late: their mean offset must exceed
	// everyone else's.
	mean := make([]float64, inprocP)
	for k := 0; k < schedLen; k++ {
		lo := slices.Min(s.offs[k*inprocP : (k+1)*inprocP])
		if lo != 0 {
			t.Fatalf("episode %d: earliest offset %d, want 0", k, lo)
		}
		for i := range mean {
			mean[i] += float64(s.offs[k*inprocP+i]) / schedLen
		}
	}
	var slowMin, fastMax float64 = 1e18, 0
	for i, m := range mean {
		if slices.Contains(s.slow, i) {
			slowMin = min(slowMin, m)
		} else {
			fastMax = max(fastMax, m)
		}
	}
	if slowMin <= fastMax+inprocSigma*1e9 {
		t.Errorf("stragglers' mean offset %.0fns not clearly above the rest (%.0fns)", slowMin, fastMax)
	}
}

func TestOracleFlagsCorruptFold(t *testing.T) {
	for _, name := range []string{"inproc-skew", "fleet-memnet"} {
		t.Run(name, func(t *testing.T) {
			b := workloads[name](5)
			s := scheduleOf(b)
			good := slices.Clone(s.expected(0))
			if !s.check(0, good) {
				t.Fatal("oracle rejects its own fold")
			}
			// Corrupt every expected fold: every episode must now fail.
			for i := range s.want {
				s.want[i] ^= 0x01
			}
			if s.check(0, good) {
				t.Fatal("oracle accepts a fold differing in one bit")
			}
			p := shortRun(t, b, false)
			why := b.firstFailure()
			b.close()
			if p.failed != p.episodes() {
				t.Fatalf("%d of %d episodes failed against a corrupted oracle, want all", p.failed, p.episodes())
			}
			if !strings.Contains(why, "episode 0 member ") || !strings.Contains(why, "want") {
				t.Errorf("first failure %q does not name the episode, member and expected fold", why)
			}
		})
	}
}

// shortRun sets b up and records episodes for a fraction of a second.
func shortRun(t *testing.T, b bench, traced bool) *pass {
	t.Helper()
	if err := b.setup(traced); err != nil {
		b.close()
		t.Fatal(err)
	}
	d := 300 * time.Millisecond
	p := newPassFor(b, d)
	if err := p.start(); err != nil {
		b.close()
		t.Fatal(err)
	}
	b.loop(d, p)
	p.stop()
	if p.episodes() == 0 {
		b.close()
		t.Fatal("no episode completed")
	}
	return p
}

func TestShortRuns(t *testing.T) {
	for _, name := range names() {
		t.Run(name, func(t *testing.T) {
			b := workloads[name](3)
			p := shortRun(t, b, false)
			b.close()
			if p.failed != 0 {
				t.Fatalf("untraced: %d of %d episodes failed", p.failed, p.episodes())
			}
			if cpu := p.cpuUsPerEpisode(); !(cpu > 0) {
				t.Errorf("untraced: cpu_us_per_episode = %v", cpu)
			}
			if w, ok := b.(*inproc); ok && w.spinNs.Load() <= 0 {
				t.Error("drivers spin but no busy-waiting was counted")
			}
			p = shortRun(t, b, true)
			m := metrics{}
			b.layers(p, m)
			dir := t.TempDir()
			err := dumpSpans(b, dir, name, p.episodes())
			b.close()
			if err != nil {
				t.Fatal(err)
			}
			if p.failed != 0 {
				t.Fatalf("traced: %d of %d episodes failed", p.failed, p.episodes())
			}
			checkSpans(t, b, spanPath(dir, name), p.episodes())
			for k, v := range m {
				if v != v || v < 0 {
					t.Errorf("%s = %v", k, v)
				}
			}
		})
	}
}

// checkSpans checks the span table of a traced pass of n episodes: a
// header and one row per episode for a wire workload, no file otherwise.
func checkSpans(t *testing.T, b bench, path string, n int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if _, wire := b.(*wireBench); !wire {
		if err == nil {
			t.Errorf("%s written for a workload without wire spans", path)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(rows) != n+1 {
		t.Fatalf("%s: %d rows, want a header and %d episodes", path, len(rows), n)
	}
	for i, r := range rows {
		if f := strings.Count(r, ",") + 1; f != 9 {
			t.Fatalf("%s row %d: %d fields, want 9: %q", path, i, f, r)
		}
	}
	// Every episode has a member arrive write and a release write.
	for i, r := range rows[1:] {
		f := strings.Split(r, ",")
		if f[0] != strconv.Itoa(i) || f[2] == "" || f[3] == "" {
			t.Fatalf("%s row %d: %q", path, i+1, r)
		}
	}
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	if slices.Sort(wl); !slices.Equal(wl, names()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", wl, names())
	}
	same := func(what string, spec []struct{ Name, Unit string }, defs []metricDef) {
		if len(spec) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark prints %d", what, len(spec), len(defs))
			return
		}
		for i, d := range defs {
			if spec[i].Name != d.name || spec[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", what, i, spec[i].Name, spec[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestRunPrintsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("full run")
	}
	for _, trace := range []bool{false, true} {
		res, err := run(config{workload: "tcp-pair", seed: 9, seconds: 1, trace: trace})
		if err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("trace=%v: %d metrics, want %d", trace, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit {
				t.Errorf("trace=%v: metric %s missing or with unit %q", trace, d.name, v.Unit)
			}
		}
	}
}

func TestDriverPrimitivesAllocationFree(t *testing.T) {
	s := scheduleOf(newFleet(1))
	p := newPassFor(newInproc(1), time.Second)
	if err := p.start(); err != nil {
		t.Fatal(err)
	}
	defer p.stop()
	var h hist
	got := s.expected(3)
	ts, buf := make([]int64, fleetP), make([]float64, fleetP)
	allocs := testing.AllocsPerRun(1000, func() {
		t0 := now()
		h.add(now() - t0)
		h.add(spreadNs(ts, buf))
		if !s.check(3, got) {
			t.Error("check failed")
		}
		p.record(t0, t0, now(), true)
		p.cut(now())
	})
	if allocs != 0 {
		t.Errorf("driver bookkeeping allocates %v times per episode", allocs)
	}
}

func TestSchedstatDelay(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"60734235 3130740 33\n", 3130740, true},
		{"0 0 0\n", 0, true},
		{"60734235", 0, false},
		{"60734235 \n", 0, false},
	} {
		if got, ok := schedstatDelay([]byte(c.in)); got != c.want || ok != c.ok {
			t.Errorf("schedstatDelay(%q) = %d, %v; want %d, %v", c.in, got, ok, c.want, c.ok)
		}
	}
	r, err := openRunDelay()
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if r.total() < 0 {
		t.Error("negative run delay")
	}
}

func TestNearestFullTree(t *testing.T) {
	for _, c := range []struct{ p, d, want int }{
		{64, 2, 64}, {64, 4, 64}, {64, 8, 64}, {64, 3, 81}, {64, 16, 16}, {64, 5, 25}, {64, 64, 64},
	} {
		if got := nearestFullTree(c.p, c.d); got != c.want {
			t.Errorf("nearestFullTree(%d, %d) = %d, want %d", c.p, c.d, got, c.want)
		}
	}
}
