package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"

	"softbarrier/internal/wire"
)

// role tags a traced connection by who owns it.
type role int

const (
	roleClient role = iota // member connections, dialed by the benchmark
	roleServer             // connections a server (root or leaf) accepted
	roleLink               // leaf→root links, dialed by the fleet
	nRoles
)

// traceSlotsPerSecond bounds the episodes a traced pass can stamp per
// measured second; the pass stops early when the table fills.
const traceSlotsPerSecond = 40_000

// tracer is the benchmark-owned decorator state behind every traced
// connection: per-role counts of Read/Write/Set*Deadline calls and bytes,
// and per-episode write stamps from which the phase split is computed.
// Connections learn the current episode from ep, which the driver stores
// before the episode's first call; in a closed loop every write of an
// episode starts after that store and before the next one.
type tracer struct {
	ep  atomic.Int64 // current timed episode; -1 outside the timed window
	eps []epStamps

	writes, bytes, writeNs, reads, deadlines [nRoles]atomic.Int64
	deadlineNs                               hist
}

// epStamps holds one episode's write stamps in ns after the episode's
// start t0; min fields start at MaxUint32.
type epStamps struct {
	t0 int64
	// Start of the last member Arrive write: the final arrival leaving.
	cliStartMax atomic.Uint32
	// Server→member Release writes: first start, first and last end.
	relStartMin, relEndMin, relEndMax atomic.Uint32
	// Leaf→root ShardArrive writes: first and last start.
	upStartMin, upStartMax atomic.Uint32
	// Root→leaf ShardRelease writes: last end.
	downEndMax atomic.Uint32
}

func newTracer() *tracer {
	t := &tracer{}
	t.ep.Store(-1)
	return t
}

// arm sizes the stamp table for a timed window of d.
func (t *tracer) arm(d time.Duration) {
	t.eps = make([]epStamps, int(d.Seconds()*traceSlotsPerSecond))
	for i := range t.eps {
		s := &t.eps[i]
		s.relStartMin.Store(math.MaxUint32)
		s.relEndMin.Store(math.MaxUint32)
		s.upStartMin.Store(math.MaxUint32)
	}
}

func (t *tracer) begin(e int, t0 int64) {
	t.eps[e].t0 = t0
	t.ep.Store(int64(e))
}

func (t *tracer) stop() { t.ep.Store(-1) }

func storeMax(a *atomic.Uint32, v uint32) {
	for o := a.Load(); v > o && !a.CompareAndSwap(o, v); o = a.Load() {
	}
}

func storeMin(a *atomic.Uint32, v uint32) {
	for o := a.Load(); v < o && !a.CompareAndSwap(o, v); o = a.Load() {
	}
}

// wrote accounts one Write of b by a role-r connection in episode e.
func (t *tracer) wrote(e int64, r role, b []byte, start, end int64) {
	t.writes[r].Add(1)
	t.bytes[r].Add(int64(len(b)))
	t.writeNs[r].Add(end - start)
	if len(b) < 5 {
		return
	}
	s := &t.eps[e]
	rs, re := clampU32(start-s.t0), clampU32(end-s.t0)
	// Byte 4 is the type of the first frame in the write (after the
	// 4-byte length prefix).
	switch typ := b[4]; {
	case r == roleClient && (typ == wire.TypeArrive || typ == wire.TypeArriveData):
		storeMax(&s.cliStartMax, rs)
	case r == roleServer && (typ == wire.TypeRelease || typ == wire.TypeResult):
		storeMin(&s.relStartMin, rs)
		storeMin(&s.relEndMin, re)
		storeMax(&s.relEndMax, re)
	case r == roleLink && typ == wire.TypeShardArrive:
		storeMin(&s.upStartMin, rs)
		storeMax(&s.upStartMax, rs)
	case r == roleServer && typ == wire.TypeShardRelease:
		storeMax(&s.downEndMax, re)
	}
}

// layers adds the wire-layer counts and the phase split of n traced
// episodes.
func (t *tracer) layers(n float64, m metrics, fleet bool) {
	var bytes, writeNs, reads, deadlines int64
	for r := role(0); r < nRoles; r++ {
		bytes += t.bytes[r].Load()
		writeNs += t.writeNs[r].Load()
		reads += t.reads[r].Load()
		deadlines += t.deadlines[r].Load()
	}
	m["wire.client.writes_per_episode"] = float64(t.writes[roleClient].Load()) / n
	m["wire.server.writes_per_episode"] = float64(t.writes[roleServer].Load()) / n
	m["wire.link.writes_per_episode"] = float64(t.writes[roleLink].Load()) / n
	m["wire.write_bytes_per_episode"] = float64(bytes) / n
	m["wire.write_us_per_episode"] = float64(writeNs) / 1e3 / n
	m["wire.reads_per_episode"] = float64(reads) / n
	m["wire.deadline_sets_per_episode"] = float64(deadlines) / n
	m["wire.deadline_ns_p50"] = t.deadlineNs.quantile(0.5)

	var complete, fanout, uplink, rootHop hist
	for i := 0; i < int(n); i++ {
		s := &t.eps[i]
		cli, rel := int64(s.cliStartMax.Load()), int64(s.relStartMin.Load())
		complete.add(rel - cli)
		fanout.add(int64(s.relEndMax.Load()) - int64(s.relEndMin.Load()))
		if fleet {
			uplink.add(int64(s.upStartMax.Load()) - cli)
			rootHop.add(int64(s.downEndMax.Load()) - int64(s.upStartMin.Load()))
		}
	}
	m["netbarrier.complete_us_p50"] = complete.quantile(0.5) / 1e3
	m["netbarrier.fanout_us_p50"] = fanout.quantile(0.5) / 1e3
	if fleet {
		m["shardbarrier.uplink_us_p50"] = uplink.quantile(0.5) / 1e3
		m["shardbarrier.root_hop_us_p50"] = rootHop.quantile(0.5) / 1e3
	}
}

// writeSpans writes the first n episodes' write stamps as CSV, ns after
// each episode's start; a stamp no write set reads as empty.
func (t *tracer) writeSpans(out io.Writer, n int) error {
	w := bufio.NewWriter(out)
	fmt.Fprintln(w, "episode,start_ns,member_arrive_write_start_max,release_write_start_min,release_write_end_min,release_write_end_max,shard_arrive_write_start_min,shard_arrive_write_start_max,shard_release_write_end_max")
	for i := 0; i < n; i++ {
		s := &t.eps[i]
		fmt.Fprintf(w, "%d,%d", i, s.t0)
		for _, a := range []*atomic.Uint32{&s.cliStartMax, &s.relStartMin, &s.relEndMin, &s.relEndMax, &s.upStartMin, &s.upStartMax, &s.downEndMax} {
			if v := a.Load(); v == 0 || v == math.MaxUint32 {
				fmt.Fprint(w, ",")
			} else {
				fmt.Fprintf(w, ",%d", v)
			}
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}

// transport decorates inner: accepted connections get listenRole, dialed
// ones dialRole.
func (t *tracer) transport(inner wire.Transport, listenRole, dialRole role) wire.Transport {
	return &traceTransport{inner: inner, t: t, listenRole: listenRole, dialRole: dialRole}
}

type traceTransport struct {
	inner                wire.Transport
	t                    *tracer
	listenRole, dialRole role
}

func (x *traceTransport) Dial(addr string, timeout time.Duration) (wire.Conn, error) {
	c, err := x.inner.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	return &traceConn{Conn: c, t: x.t, role: x.dialRole}, nil
}

func (x *traceTransport) Listen(addr string) (wire.Listener, error) {
	ln, err := x.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &traceListener{Listener: ln, t: x.t, role: x.listenRole}, nil
}

type traceListener struct {
	wire.Listener
	t    *tracer
	role role
}

func (l *traceListener) Accept() (wire.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &traceConn{Conn: c, t: l.t, role: l.role}, nil
}

// traceConn times and counts one connection's calls. The episode is read
// when a call starts, so a write is charged to the episode it belongs to
// even if it returns after the driver moved on.
type traceConn struct {
	wire.Conn
	t    *tracer
	role role
}

func (c *traceConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if c.t.ep.Load() >= 0 {
		c.t.reads[c.role].Add(1)
	}
	return n, err
}

func (c *traceConn) Write(b []byte) (int, error) {
	e := c.t.ep.Load()
	if e < 0 {
		return c.Conn.Write(b)
	}
	start := now()
	n, err := c.Conn.Write(b)
	c.t.wrote(e, c.role, b[:n], start, now())
	return n, err
}

// Which deadline a deadline call sets.
const (
	bothDeadlines = iota
	readDeadline
	writeDeadline
)

func (c *traceConn) deadline(which int, at time.Time) error {
	set := func() error {
		switch which {
		case readDeadline:
			return c.Conn.SetReadDeadline(at)
		case writeDeadline:
			return c.Conn.SetWriteDeadline(at)
		}
		return c.Conn.SetDeadline(at)
	}
	if c.t.ep.Load() < 0 {
		return set()
	}
	start := now()
	err := set()
	c.t.deadlineNs.add(now() - start)
	c.t.deadlines[c.role].Add(1)
	return err
}

func (c *traceConn) SetDeadline(at time.Time) error      { return c.deadline(bothDeadlines, at) }
func (c *traceConn) SetReadDeadline(at time.Time) error  { return c.deadline(readDeadline, at) }
func (c *traceConn) SetWriteDeadline(at time.Time) error { return c.deadline(writeDeadline, at) }
