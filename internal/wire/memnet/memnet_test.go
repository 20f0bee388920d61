package memnet

import (
	"bytes"
	"errors"
	"io"
	"os"
	"sync"
	"testing"
	"time"

	"softbarrier/internal/wire"
)

// TestMemNetRoundTrip drives a full frame exchange through a memnet
// listener: the same codec path the netbarrier stack runs, minus TCP.
func TestMemNetRoundTrip(t *testing.T) {
	n := New()
	ln, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	want := wire.Frame{Type: wire.TypeArriveData, Episode: 7, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		fc := wire.NewFrameConn(conn)
		f, err := fc.ReadFrame()
		if err != nil {
			done <- err
			return
		}
		if f.Type != want.Type || f.Episode != want.Episode || !bytes.Equal(f.Data, want.Data) {
			done <- errors.New("frame mangled in transit")
			return
		}
		done <- fc.WriteFrame(wire.Frame{Type: wire.TypeRelease, Episode: 7, P: 2, Degree: 2})
	}()

	conn, err := n.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fc := wire.NewFrameConn(conn)
	if err := fc.WriteFrame(want); err != nil {
		t.Fatal(err)
	}
	rel, err := fc.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if rel.Type != wire.TypeRelease || rel.Episode != 7 {
		t.Fatalf("got %s episode %d; want release of episode 7", wire.FrameName(rel.Type), rel.Episode)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestMemNetEphemeralAddrsDistinct(t *testing.T) {
	n := New()
	a, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if a.Addr().String() == b.Addr().String() {
		t.Fatalf("two ephemeral listeners share address %s", a.Addr())
	}
	if _, err := n.Listen(a.Addr().String()); err == nil {
		t.Fatal("rebinding a bound address succeeded")
	}
	a.Close()
	if _, err := n.Listen(a.Addr().String()); err != nil {
		t.Fatalf("rebinding after close: %v", err)
	}
	_ = b
}

func TestMemNetDialRefused(t *testing.T) {
	n := New()
	if _, err := n.Dial("nobody:1", time.Second); err == nil {
		t.Fatal("dialing an unbound address succeeded")
	}
}

// TestMemNetReadDeadline checks both expiry while blocked and the
// deadline-in-the-past unblock that cancellation relies on.
func TestMemNetReadDeadline(t *testing.T) {
	n := New()
	ln, _ := n.Listen("x:0")
	defer ln.Close()
	go func() {
		c, _ := ln.Accept()
		_ = c // never writes
	}()
	conn, err := n.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	buf := make([]byte, 1)
	start := time.Now()
	_, err = conn.Read(buf)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read error = %v; want deadline exceeded", err)
	}
	if since := time.Since(start); since > time.Second {
		t.Fatalf("deadline took %v to fire", since)
	}
	var ne interface{ Timeout() bool }
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("deadline error %v is not a net timeout", err)
	}

	// Unblock a read already in flight by setting a past deadline.
	conn.SetReadDeadline(time.Time{})
	got := make(chan error, 1)
	go func() {
		_, err := conn.Read(buf)
		got <- err
	}()
	time.Sleep(20 * time.Millisecond)
	conn.SetReadDeadline(time.Unix(0, 1))
	select {
	case err := <-got:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("unblocked read error = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("past deadline did not unblock the pending read")
	}
}

// TestMemNetBackpressure: a reader that stops draining blocks the writer,
// whose write deadline then fires — the semantics the server's fan-out
// write timeout depends on.
func TestMemNetBackpressure(t *testing.T) {
	n := New()
	ln, _ := n.Listen("x:0")
	defer ln.Close()
	accepted := make(chan wire.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	conn, err := n.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	<-accepted // peer exists but never reads

	conn.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
	chunk := make([]byte, 64<<10)
	var total int
	for {
		m, err := conn.Write(chunk)
		total += m
		if err != nil {
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("write error = %v; want deadline exceeded", err)
			}
			break
		}
		if total > 64<<20 {
			t.Fatal("wrote 64 MiB into an unread connection; no backpressure")
		}
	}
}

// TestMemNetCloseSemantics: peer reads drain buffered bytes then see EOF;
// writes into a closed connection fail.
func TestMemNetCloseSemantics(t *testing.T) {
	n := New()
	ln, _ := n.Listen("x:0")
	defer ln.Close()
	accepted := make(chan wire.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	conn, err := n.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	server := <-accepted

	if _, err := conn.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	got, err := io.ReadAll(server)
	if err != nil {
		t.Fatalf("drain after close: %v", err)
	}
	if string(got) != "tail" {
		t.Fatalf("drained %q; want %q", got, "tail")
	}
	// Like TCP, the first write racing the peer's close is accepted (the
	// kernel buffers it; the RST comes back after) — the second fails.
	if _, err := server.Write([]byte("x")); err != nil {
		t.Fatalf("first write after peer close: %v; want TCP-like buffered success", err)
	}
	if _, err := server.Write([]byte("x")); err == nil {
		t.Fatal("second write to a closed peer succeeded")
	}
	if _, err := conn.Write([]byte("x")); err == nil {
		t.Fatal("write on a closed conn succeeded")
	}
}

// TestMemNetConcurrentConns runs many connections at once to shake out
// races in the namespace and pipes (meaningful under -race).
func TestMemNetConcurrentConns(t *testing.T) {
	n := New()
	ln, _ := n.Listen("x:0")
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.Copy(c, c) // echo
			}()
		}
	}()
	const conns = 32
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := n.Dial(ln.Addr().String(), 5*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			msg := bytes.Repeat([]byte{byte(i)}, 1024)
			go c.Write(msg)
			buf := make([]byte, len(msg))
			if _, err := io.ReadFull(c, buf); err != nil {
				t.Errorf("conn %d: %v", i, err)
				return
			}
			if !bytes.Equal(buf, msg) {
				t.Errorf("conn %d: echo mangled", i)
			}
		}(i)
	}
	wg.Wait()
}

// dialPair returns both ends of a fresh memnet connection.
func dialPair(t *testing.T) (client, server wire.Conn) {
	t.Helper()
	n := New()
	ln, err := n.Listen("x:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := make(chan wire.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	client, err = n.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	server = <-accepted
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// blockedRead starts a read on c and returns the channel its error lands
// on, after giving it time to block.
func blockedRead(c wire.Conn) <-chan error {
	got := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 1))
		got <- err
	}()
	time.Sleep(20 * time.Millisecond)
	return got
}

// TestMemNetDeadlineExtendedWhileBlocked: moving a blocked read's deadline
// later keeps it blocked past the old deadline and fails it at the new
// one.
func TestMemNetDeadlineExtendedWhileBlocked(t *testing.T) {
	c, _ := dialPair(t)
	start := time.Now()
	c.SetReadDeadline(start.Add(40 * time.Millisecond))
	got := blockedRead(c)
	c.SetReadDeadline(start.Add(200 * time.Millisecond))
	select {
	case err := <-got:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("read error = %v; want deadline exceeded", err)
		}
		if since := time.Since(start); since < 200*time.Millisecond {
			t.Fatalf("read failed after %v, before its extended deadline", since)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("extended deadline never fired")
	}
}

// TestMemNetDeadlineClearedWhileBlocked: clearing a blocked read's deadline
// keeps it blocked past the old deadline until data arrives.
func TestMemNetDeadlineClearedWhileBlocked(t *testing.T) {
	c, s := dialPair(t)
	c.SetReadDeadline(time.Now().Add(40 * time.Millisecond))
	got := blockedRead(c)
	c.SetReadDeadline(time.Time{})
	select {
	case err := <-got:
		t.Fatalf("read returned %v after its deadline was cleared", err)
	case <-time.After(150 * time.Millisecond):
	}
	if _, err := s.Write([]byte{1}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("read error = %v after data arrived", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read never saw the written byte")
	}
}

// TestMemNetWriteDeadlineWhileBlocked: a write blocked on a full pipe with
// no deadline fails when a future deadline set afterwards expires.
func TestMemNetWriteDeadlineWhileBlocked(t *testing.T) {
	c, _ := dialPair(t)
	got := make(chan error, 1)
	go func() {
		_, err := c.Write(make([]byte, 2*bufCap)) // the peer never reads
		got <- err
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-got:
		t.Fatalf("write into a full pipe returned %v without a deadline", err)
	default:
	}
	start := time.Now()
	c.SetWriteDeadline(start.Add(50 * time.Millisecond))
	select {
	case err := <-got:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("write error = %v; want deadline exceeded", err)
		}
		if since := time.Since(start); since < 50*time.Millisecond {
			t.Fatalf("write failed after %v, before its deadline", since)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadline never failed the blocked write")
	}
}

// TestMemNetSetDeadlineZeroAlloc: setting a deadline only stores it — the
// per-call timer it used to arm was a large share of a memnet episode's
// CPU and allocations.
func TestMemNetSetDeadlineZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; alloc gate runs in the non-race matrix")
	}
	c, _ := dialPair(t)
	dl := time.Now().Add(time.Hour)
	if n := testing.AllocsPerRun(100, func() {
		c.SetReadDeadline(dl)
		c.SetWriteDeadline(dl)
		c.SetReadDeadline(time.Time{})
		c.SetWriteDeadline(time.Time{})
	}); n != 0 {
		t.Fatalf("setting deadlines allocated %.2f times per call set, want 0", n)
	}
}
