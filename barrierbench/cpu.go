package main

import (
	"bytes"
	"errors"
	"os"
	"syscall"
)

// runDelay follows how long the process's threads waited runnable but not
// running: the second field of /proc/self/task/<tid>/schedstat, in ns. A
// driver that spins through such a wait has the wait in its spin's wall
// time but not in the process's CPU time, so cpu_us_per_episode adds it
// back when it takes the spin out.
type runDelay struct {
	fds  []int
	last []int64 // each thread's last reading
	buf  [64]byte
}

// openRunDelay opens the schedstat file of every thread the process has
// now. Threads started later are not followed; after the warm-up the Go
// runtime rarely starts one.
func openRunDelay() (*runDelay, error) {
	ents, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return nil, err
	}
	r := &runDelay{}
	for _, e := range ents {
		fd, err := syscall.Open("/proc/self/task/"+e.Name()+"/schedstat", syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		if err != nil {
			continue // the thread has exited
		}
		r.fds = append(r.fds, fd)
	}
	if len(r.fds) == 0 {
		return nil, errors.New("no readable /proc/self/task/*/schedstat")
	}
	r.last = make([]int64, len(r.fds))
	return r, nil
}

// total returns the followed threads' summed run delay in ns. A thread
// that has exited keeps its last reading.
func (r *runDelay) total() int64 {
	var sum int64
	for i, fd := range r.fds {
		if n, err := syscall.Pread(fd, r.buf[:], 0); err == nil {
			if v, ok := schedstatDelay(r.buf[:n]); ok {
				r.last[i] = v
			}
		}
		sum += r.last[i]
	}
	return sum
}

func (r *runDelay) close() {
	for _, fd := range r.fds {
		syscall.Close(fd)
	}
}

// schedstatDelay parses the second of a schedstat line's fields.
func schedstatDelay(b []byte) (int64, bool) {
	i := bytes.IndexByte(b, ' ') + 1
	if i == 0 {
		return 0, false
	}
	var v int64
	j := i
	for ; j < len(b) && '0' <= b[j] && b[j] <= '9'; j++ {
		v = v*10 + int64(b[j]-'0')
	}
	return v, j > i
}
