package main

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"softbarrier/internal/stats"
)

// base is the benchmark's clock origin; every stamp is nanoseconds on the
// monotonic clock since base, so stamps taken by the driver, the tracing
// transport and the observer are directly comparable.
var base = time.Now()

func now() int64 { return int64(time.Since(base)) }

// hist is a concurrent log-linear histogram of non-negative nanosecond
// values: exact below 1<<linBits, then 1<<subBits buckets per power of two
// (0.2% resolution). Add is allocation-free and safe from any goroutine.
type hist struct {
	b [nBuckets]atomic.Uint64
	n atomic.Uint64
}

const (
	linBits  = 12
	subBits  = 9
	maxExp   = 42 // ~73 minutes; larger values clamp into the top bucket
	nBuckets = 1<<linBits + (maxExp-linBits+1)<<subBits
)

func bucketOf(v int64) int {
	if v < 1<<linBits {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1
	if e > maxExp {
		return nBuckets - 1
	}
	m := int(v>>(e-subBits)) & (1<<subBits - 1)
	return 1<<linBits + (e-linBits)<<subBits + m
}

// valueOf returns the midpoint of bucket i.
func valueOf(i int) float64 {
	if i < 1<<linBits {
		return float64(i)
	}
	i -= 1 << linBits
	e := i>>subBits + linBits
	m := i & (1<<subBits - 1)
	lo := float64(int64(1)<<e + int64(m)<<(e-subBits))
	return lo + float64(int64(1)<<(e-subBits))/2
}

func (h *hist) add(v int64) {
	h.b[bucketOf(v)].Add(1)
	h.n.Add(1)
}

// quantile returns the nearest-rank q-quantile in nanoseconds, 0 when empty.
func (h *hist) quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i := range h.b {
		seen += h.b[i].Load()
		if seen >= rank {
			return valueOf(i)
		}
	}
	return valueOf(nBuckets - 1)
}

// quantileNs returns the exact nearest-rank q-quantile of xs.
func quantileNs(xs []uint32, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	slices.Sort(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return float64(xs[rank-1])
}

// clampU32 stores a nanosecond duration in a uint32 sample slot; an
// episode longer than ~4.3s is a failure anyway and saturates.
func clampU32(ns int64) uint32 {
	switch {
	case ns < 0:
		return 0
	case ns > math.MaxUint32:
		return math.MaxUint32
	}
	return uint32(ns)
}

// mallocs returns the Go heap's cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// spreadNs returns the sample standard deviation of the stamps ts, with
// buf (at least len(ts) long) as scratch so the traced loop does not
// allocate.
func spreadNs(ts []int64, buf []float64) int64 {
	buf = buf[:len(ts)]
	for i, t := range ts {
		buf[i] = float64(t)
	}
	return int64(stats.StdDev(buf))
}
