// Package memnet is an in-process wire.Transport: goroutine-scheduled
// connections over buffered byte pipes, one address namespace per Net.
// Protocol tests run on it instead of loopback TCP — no kernel socket
// costs, no ephemeral-port collisions, no listen backlog — and the chaos
// wrapper (wire/chaos) composes over it for deterministic fault runs.
//
// Fidelity: connections are streams with full deadline support (read and
// write, including the deadline-in-the-past unblock the cancellation
// machinery relies on), bounded buffering (writes block when the peer
// stops reading, so write timeouts are as real as on TCP), and TCP-like
// close semantics (a peer's reads drain buffered bytes before EOF; writes
// to a closed peer fail). What it deliberately lacks: keepalive probes
// (nothing can silently vanish in-process) and any notion of latency —
// the chaos wrapper injects that.
package memnet

import (
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"softbarrier/internal/wire"
)

// bufCap bounds each direction's in-flight bytes. Larger than any frame
// (wire.MaxFrame is 1 MiB-bounded payloads are not used by the stack;
// steady-state frames are tens of bytes) yet small enough that a reader
// that stops draining exerts backpressure like a full TCP window.
const bufCap = 1 << 18

// Net is one in-process network: an address namespace of listeners.
// The zero value is not usable; construct with New. A Net implements
// wire.Transport, so a server listening on an address is reachable by
// dialing that address through the same Net.
type Net struct {
	mu        sync.Mutex
	listeners map[string]*listener
	nextPort  int
	nextConn  int
}

// New returns an empty in-process network.
func New() *Net {
	return &Net{listeners: make(map[string]*listener), nextPort: 49152}
}

// addr is a memnet address.
type addr string

func (a addr) Network() string { return "mem" }
func (a addr) String() string  { return string(a) }

// canonical resolves the "host:0" ephemeral-port convention TCP callers
// use, so code written against net.Listen("tcp", "127.0.0.1:0") runs
// unchanged on a memnet.
func (n *Net) canonical(s string) string {
	host := s
	if i := strings.LastIndexByte(s, ':'); i >= 0 {
		port := s[i+1:]
		host = s[:i]
		if port != "0" && port != "" {
			return s
		}
	}
	if host == "" {
		host = "mem"
	}
	n.nextPort++
	return fmt.Sprintf("%s:%d", host, n.nextPort)
}

// Listen binds a listener on addr within this Net's namespace. A port of
// ":0" (or a bare host) allocates a fresh address, mirroring TCP's
// ephemeral ports.
func (n *Net) Listen(s string) (wire.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	key := n.canonical(s)
	if _, taken := n.listeners[key]; taken {
		return nil, &net.OpError{Op: "listen", Net: "mem", Addr: addr(key), Err: fmt.Errorf("address already in use")}
	}
	ln := &listener{net: n, addr: addr(key), ch: make(chan wire.Conn, 128), done: make(chan struct{})}
	n.listeners[key] = ln
	return ln, nil
}

// Dial connects to a listener in this Net's namespace, bounded by timeout
// (0 = no bound). Dialing an address nobody listens on is refused
// immediately, like TCP loopback.
func (n *Net) Dial(s string, timeout time.Duration) (wire.Conn, error) {
	n.mu.Lock()
	ln := n.listeners[s]
	n.nextConn++
	local := addr(fmt.Sprintf("mem:c%d", n.nextConn))
	n.mu.Unlock()
	if ln == nil {
		return nil, &net.OpError{Op: "dial", Net: "mem", Addr: addr(s), Err: fmt.Errorf("connection refused")}
	}
	up, down := newPipe(), newPipe()
	client := &conn{local: local, remote: ln.addr, rd: down, wr: up}
	server := &conn{local: ln.addr, remote: local, rd: up, wr: down}
	var expire <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expire = t.C
	}
	select {
	case ln.ch <- server:
		return client, nil
	case <-ln.done:
		return nil, &net.OpError{Op: "dial", Net: "mem", Addr: addr(s), Err: fmt.Errorf("connection refused")}
	case <-expire:
		return nil, &net.OpError{Op: "dial", Net: "mem", Addr: addr(s), Err: os.ErrDeadlineExceeded}
	}
}

// listener accepts the server halves Dial enqueues.
type listener struct {
	net  *Net
	addr addr
	ch   chan wire.Conn
	done chan struct{}
	once sync.Once
}

func (l *listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, &net.OpError{Op: "accept", Net: "mem", Addr: l.addr, Err: net.ErrClosed}
	}
}

func (l *listener) Addr() net.Addr { return l.addr }

func (l *listener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.mu.Lock()
		if cur := l.net.listeners[string(l.addr)]; cur == l {
			delete(l.net.listeners, string(l.addr))
		}
		l.net.mu.Unlock()
		// Connections already queued but never accepted are dead ends;
		// close them so their dialers' reads fail instead of hanging.
		for {
			select {
			case c := <-l.ch:
				c.Close()
			default:
				return
			}
		}
	})
	return nil
}

// conn is one endpoint: it reads from rd and writes to wr.
type conn struct {
	local, remote addr
	rd, wr        *pipe
	closed        sync.Once
}

func (c *conn) Read(p []byte) (int, error)  { return c.rd.read(p) }
func (c *conn) Write(p []byte) (int, error) { return c.wr.write(p) }

func (c *conn) Close() error {
	c.closed.Do(func() {
		// Outgoing half: the peer drains what was written, then sees EOF.
		c.wr.closeWrite()
		// Incoming half: our own pending and future reads fail, and the
		// peer's writes fail — the "connection reset" side of a TCP close.
		c.rd.closeRead()
	})
	return nil
}

func (c *conn) LocalAddr() net.Addr  { return c.local }
func (c *conn) RemoteAddr() net.Addr { return c.remote }

func (c *conn) SetDeadline(t time.Time) error {
	c.rd.setReadDeadline(t)
	c.wr.setWriteDeadline(t)
	return nil
}
func (c *conn) SetReadDeadline(t time.Time) error  { c.rd.setReadDeadline(t); return nil }
func (c *conn) SetWriteDeadline(t time.Time) error { c.wr.setWriteDeadline(t); return nil }

// pipe is one direction of a connection: a bounded FIFO of bytes with
// deadline-aware blocking reads and writes.
type pipe struct {
	mu   sync.Mutex
	cond *sync.Cond

	buf []byte
	off int // consumed prefix of buf

	wclosed bool // writer hung up: reads drain, then EOF
	rclosed bool // reader hung up: reads fail; writes get one grace then fail
	rst     bool // a write already landed after rclosed: the RST is back

	rdeadline, wdeadline time.Time

	// timer wakes ops blocked past a deadline. It is created on the first
	// block under a deadline and re-armed with Reset after that, so
	// setting a deadline never allocates; armed is when it is due to fire
	// (zero when it is not pending).
	timer *time.Timer
	armed time.Time
}

func newPipe() *pipe {
	p := &pipe{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *pipe) pending() int { return len(p.buf) - p.off }

func (p *pipe) read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.rclosed {
			return 0, &net.OpError{Op: "read", Net: "mem", Err: net.ErrClosed}
		}
		if p.pending() > 0 {
			n := copy(b, p.buf[p.off:])
			p.off += n
			if p.off == len(p.buf) {
				p.buf = p.buf[:0]
				p.off = 0
			}
			p.cond.Broadcast() // space freed: wake writers
			return n, nil
		}
		if p.wclosed {
			// Plain io.EOF, exactly like a TCP read after the peer's FIN:
			// the frame reader distinguishes clean EOF from a mid-frame cut.
			return 0, io.EOF
		}
		if p.expired(p.rdeadline) {
			return 0, &net.OpError{Op: "read", Net: "mem", Err: os.ErrDeadlineExceeded}
		}
		p.cond.Wait()
	}
}

func (p *pipe) write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := 0
	for {
		if p.wclosed {
			return total, &net.OpError{Op: "write", Net: "mem", Err: fmt.Errorf("write on closed connection")}
		}
		if p.rclosed {
			// TCP-like: the first write after the peer's close is accepted
			// locally (and discarded — nobody will read it), exactly as a
			// kernel buffers a write racing the peer's FIN; the RST that
			// write provokes fails every later write, like EPIPE.
			if p.rst {
				return total, &net.OpError{Op: "write", Net: "mem", Err: fmt.Errorf("connection reset by peer")}
			}
			p.rst = true
			return total + len(b), nil
		}
		if space := bufCap - p.pending(); space > 0 && len(b) > 0 {
			n := len(b)
			if n > space {
				n = space
			}
			p.buf = append(p.buf, b[:n]...)
			b = b[n:]
			total += n
			p.cond.Broadcast() // bytes available: wake readers
		}
		if len(b) == 0 {
			return total, nil
		}
		if p.expired(p.wdeadline) {
			return total, &net.OpError{Op: "write", Net: "mem", Err: os.ErrDeadlineExceeded}
		}
		p.cond.Wait()
	}
}

func (p *pipe) closeWrite() {
	p.mu.Lock()
	p.wclosed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *pipe) closeRead() {
	p.mu.Lock()
	p.rclosed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// expired reports whether deadline (zero = none) has passed. If it has
// not, the caller is about to block, so the timer is armed to wake it by
// the deadline: a timer already due no later is left alone (an earlier
// firing is a spurious wake-up, after which the op re-arms). p.mu must be
// held.
func (p *pipe) expired(deadline time.Time) bool {
	if deadline.IsZero() {
		return false
	}
	d := time.Until(deadline)
	if d <= 0 {
		return true
	}
	if !p.armed.IsZero() && !p.armed.After(deadline) {
		return false
	}
	p.armed = deadline
	if p.timer == nil {
		p.timer = time.AfterFunc(d, p.wake)
	} else {
		p.timer.Reset(d)
	}
	return false
}

// wake is the timer's callback: it wakes every blocked op to re-check its
// deadline.
func (p *pipe) wake() {
	p.mu.Lock()
	p.armed = time.Time{}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// setReadDeadline sets the read half's deadline. Blocked reads re-check
// it at once, so a deadline already in the past fails them now (the
// unblock the cancellation machinery relies on) and a future one arms the
// timer that fails them at expiry.
func (p *pipe) setReadDeadline(t time.Time) {
	p.mu.Lock()
	p.rdeadline = t
	p.cond.Broadcast()
	p.mu.Unlock()
}

// setWriteDeadline is setReadDeadline for the write half.
func (p *pipe) setWriteDeadline(t time.Time) {
	p.mu.Lock()
	p.wdeadline = t
	p.cond.Broadcast()
	p.mu.Unlock()
}
