package netbarrier

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"softbarrier"
	"softbarrier/internal/reconfig"
	rt "softbarrier/internal/runtime"
)

// TestCoreEpisodeFoldDifferential drives the core directly with explicit
// episodes, as the session does. Every episode's arrivals come in a random
// order, and the first arrival of episode k+1 lands right after episode
// k's completing one — before k's result is read — so parity slots must
// keep the two apart. The boundary between episodes re-places the
// participants, re-plans the degree, or changes the membership (switching
// dynamic placement on and off with it). Every published result must equal
// the sequential ascending-id fold: exactly for the greedy sum-u64, and bit
// for bit for the id-ordered sum-f64, whose contributions span enough
// magnitudes that any other fold order changes the bits.
func TestCoreEpisodeFoldDifferential(t *testing.T) {
	for _, name := range []string{"sum-u64", "sum-f64"} {
		t.Run(name, func(t *testing.T) {
			op, ok := softbarrier.OpByName(name)
			if !ok {
				t.Fatalf("op %s not registered", name)
			}
			rng := rand.New(rand.NewSource(int64(len(name))))
			contrib := func(id int, ep uint64) []byte {
				b := make([]byte, 8)
				if op.Commutative {
					binary.BigEndian.PutUint64(b, uint64(id+1)*0x9E3779B97F4A7C15^ep)
				} else {
					v := float64(id+1) * math.Pow(10, float64((id*3+int(ep))%9-4))
					binary.BigEndian.PutUint64(b, math.Float64bits(v))
				}
				return b
			}
			fold := func(p int, ep uint64) []byte {
				acc := contrib(0, ep)
				for id := 1; id < p; id++ {
					op.Fold(acc, contrib(id, ep))
				}
				return acc
			}

			plan := reconfig.Plan{P: 7, Degree: 3}
			red := rt.NewReducer(op, plan.P, 0)
			c := newCore(plan, true, red, rt.New(plan.P, nil, nil, true), rt.NewArrivals(plan.P))
			var want []byte // the previous episode's expected result, checked one arrival late
			for ep := uint64(0); ep < 400; ep++ {
				switch ep % 4 {
				case 1:
					c.place(rng.Perm(plan.P))
				case 2:
					plan.Degree = 2 + rng.Intn(7)
					c.rebuild(plan, rng.Perm(plan.P))
				case 3:
					plan.P = 1 + rng.Intn(40)
					plan.Dynamic = rng.Intn(2) == 0
					c.rebuild(plan, nil)
				}
				for i, id := range rng.Perm(plan.P) {
					done := c.arrive(id, ep, contrib(id, ep))
					if i == 0 && want != nil {
						if got := red.Result(ep - 1); !bytes.Equal(got, want) {
							t.Fatalf("episode %d: result %x, sequential fold %x", ep-1, got, want)
						}
					}
					if done != (i == plan.P-1) {
						t.Fatalf("episode %d: arrival %d of %d reported completion %v", ep, i+1, plan.P, done)
					}
				}
				want = fold(plan.P, ep)
			}
		})
	}
}

// TestCoreDynamicSwapMatchesDynamicBarrier feeds identical sequential
// arrival orders to a dynamic core and to softbarrier.DynamicBarrier: the
// core's direct first-table swap must place every participant at the
// depth the paper's two-phase victim hand-off gives it, after every
// episode. Each cohort has one systemic straggler (last in most episodes)
// so placement converges as well as churns.
func TestCoreDynamicSwapMatchesDynamicBarrier(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var swaps uint64
	for p := 2; p <= 33; p++ {
		for d := 2; d <= 8; d++ {
			db := softbarrier.NewDynamic(p, d)
			c := newCore(reconfig.Plan{P: p, Degree: d, Dynamic: true}, false, nil, rt.New(p, nil, nil, true), rt.NewArrivals(p))
			straggler := rng.Intn(p)
			for ep := uint64(0); ep < 50; ep++ {
				order := rng.Perm(p)
				if rng.Intn(4) != 0 {
					for i, id := range order {
						if id == straggler {
							order[i], order[p-1] = order[p-1], order[i]
						}
					}
				}
				for _, id := range order {
					db.Arrive(id)
					c.arrive(id, ep, nil)
				}
				h := c.hdr.Load()
				for id := 0; id < p; id++ {
					if got, want := h.tree.Depth(h.first[id]), db.DepthOf(id); got != want {
						t.Fatalf("p=%d degree=%d episode %d: participant %d at depth %d, DynamicBarrier has %d",
							p, d, ep, id, got, want)
					}
				}
			}
			swaps += db.Swaps()
		}
	}
	if swaps == 0 {
		t.Fatal("no swaps happened; the differential compared static placements only")
	}
}

// TestDynamicCollectiveSession covers Options.Dynamic over the wire: a
// memnet collective session whose systemic profile selects dynamic
// placement, with one member consistently late. The session must run a
// dynamic plan (and report no fixed depths), and every AllReduce result
// must equal the fold of the contributions the members recorded.
func TestDynamicCollectiveSession(t *testing.T) {
	const p, episodes, straggler = 8, 120, 5
	op, _ := softbarrier.OpByName("sum-u64")
	addr, srv := startServer(t, Options{Dynamic: true, ReplanEvery: 8, Watchdog: 30 * time.Second, Op: opPtr(op)})

	var mu sync.Mutex
	var ledger []episodeRecord
	var wg sync.WaitGroup
	errs := make([]error, p)
	clients := make([]*Client, p)
	for i := range clients {
		clients[i] = dialJoin(t, addr, "dynamic", p, i)
	}
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			x := uint64(i + 1)
			for ep := 0; ep < episodes; ep++ {
				if i == straggler {
					time.Sleep(200 * time.Microsecond)
				}
				x = x*6364136223846793005 + 1442695040888963407
				in := make([]byte, 8)
				binary.BigEndian.PutUint64(in, x)
				e := c.episode
				res, err := c.AllReduce(in)
				if err != nil {
					errs[i] = err
					return
				}
				mu.Lock()
				ledger = append(ledger, episodeRecord{episode: e, contrib: x, result: binary.BigEndian.Uint64(res)})
				mu.Unlock()
			}
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	st, ok := srv.SessionStats("dynamic")
	if !ok {
		t.Fatal("session gone before the members left")
	}
	if !st.Reconfig.LastPlan.Dynamic || st.Depths != nil {
		t.Errorf("session runs plan %+v with depths %v; want a dynamic plan and nil depths", st.Reconfig.LastPlan, st.Depths)
	}
	for _, c := range clients {
		c.Leave()
	}

	sums := map[uint64]uint64{}
	results := map[uint64]uint64{}
	for _, r := range ledger {
		sums[r.episode] += r.contrib
		if prev, ok := results[r.episode]; ok && prev != r.result {
			t.Fatalf("episode %d: members disagree on the result (%d vs %d)", r.episode, prev, r.result)
		}
		results[r.episode] = r.result
	}
	if len(results) != episodes {
		t.Fatalf("ledger holds %d episodes, want %d", len(results), episodes)
	}
	for ep, res := range results {
		if sums[ep] != res {
			t.Errorf("episode %d: result %d != fold of recorded contributions %d", ep, res, sums[ep])
		}
	}
}
