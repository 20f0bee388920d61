package softbarrier

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"softbarrier/internal/reconfig"
)

// TestPlacementPolicyCollectiveDifferential checks that predictive
// straggler placement never perturbs collective results: for every
// registered policy, a reconfigurable AllReduce with a non-commutative
// op stays bit-identical to the sequential id-order fold across steady
// episodes, mid-run Grow/Shrink, and the placement rebuilds the
// stragglers trigger. Statically placed tree/MCS/dynamic barriers are
// held to the same reference.
func TestPlacementPolicyCollectiveDifferential(t *testing.T) {
	op := opMat2()
	all := func(int) bool { return true }

	for _, name := range PlacementNames() {
		name := name
		t.Run("reconfig-"+name, func(t *testing.T) {
			mk, ok := PlacementByName(name)
			if !ok {
				t.Fatalf("no policy %q", name)
			}
			b := NewReconfigurable(6, ReconfigConfig{ReplanEvery: 2},
				WithCollective(op), WithPlacementPolicy(mk()))

			round := 0
			// runRound drives one lockstep AllReduce episode with one
			// participant arriving late (the placement signal) and checks
			// every delivered result against the sequential fold.
			runRound := func(p, straggler int, expect func(int) bool) {
				t.Helper()
				contribs := make([][]byte, p)
				for id := range contribs {
					contribs[id] = mat2Contribution(id, round)
				}
				want := sequentialFold(op, contribs)
				sentinel := bytes.Repeat([]byte{0xAB}, op.Width)
				outs := make([][]byte, p)
				var wg sync.WaitGroup
				for id := 0; id < p; id++ {
					outs[id] = bytes.Clone(sentinel)
					wg.Add(1)
					go func(id int) {
						defer wg.Done()
						if id == straggler {
							time.Sleep(500 * time.Microsecond)
						}
						if err := b.AllReduce(id, contribs[id], outs[id]); err != nil {
							t.Errorf("round %d participant %d: %v", round, id, err)
						}
					}(id)
				}
				wg.Wait()
				for id := 0; id < p; id++ {
					if expect(id) {
						if !bytes.Equal(outs[id], want) {
							t.Fatalf("round %d participant %d: got %x, want %x", round, id, outs[id], want)
						}
					} else if !bytes.Equal(outs[id], sentinel) {
						t.Fatalf("round %d shrunk participant %d received a result", round, id)
					}
				}
				round++
			}

			for i := 0; i < 4; i++ {
				runRound(6, 4, all)
			}
			if _, err := b.Grow(2); err != nil {
				t.Fatal(err)
			}
			runRound(6, 4, all) // boundary: grow lands at this release
			if got := b.Participants(); got != 8 {
				t.Fatalf("after grow: %d participants, want 8", got)
			}
			for i := 0; i < 4; i++ {
				runRound(8, 1, all)
			}
			if _, err := b.Shrink(3); err != nil {
				t.Fatal(err)
			}
			runRound(8, 1, func(id int) bool { return id < 5 })
			if got := b.Participants(); got != 5 {
				t.Fatalf("after shrink: %d participants, want 5", got)
			}
			for i := 0; i < 3; i++ {
				runRound(5, 0, all)
			}

			if st := b.ReconfigStats(); name == "static" {
				if st.Placements != 0 {
					t.Fatalf("static policy triggered %d placement rebuilds", st.Placements)
				}
			} else if st.Placements < 1 {
				t.Fatalf("policy %s never rebuilt placement (stats %+v)", name, st)
			}
		})
	}

	// Statically placed fixed barriers: an explicit permutation must be
	// invisible to the collective result.
	order := []int{7, 2, 5, 0, 3, 6, 1, 4}
	const p, episodes = 8, 20
	contrib := func(id, e int) []byte { return mat2Contribution(id, e) }
	want := func(e int) []byte {
		cs := make([][]byte, p)
		for id := range cs {
			cs[id] = contrib(id, e)
		}
		return sequentialFold(op, cs)
	}
	for name, b := range map[string]Collective{
		"tree-d2-placed":    NewCombiningTree(p, 2, WithCollective(op), WithPlacement(order)),
		"mcs-d3-placed":     NewMCSTree(p, 3, WithCollective(op), WithPlacement(order)),
		"dynamic-d2-placed": NewDynamic(p, 2, WithCollective(op), WithPlacement(order)),
	} {
		b := b
		t.Run(name, func(t *testing.T) {
			runAllReduceEpisodes(t, b, p, episodes, op, contrib, want)
		})
	}
}

// TestReconfigurablePredictivePlacement drives a reconfigurable barrier
// with one systemic straggler and asserts the predictive machinery end
// to end: the EWMA policy observes the lags, a placement rebuild fires
// at the replan cadence (ReconfigStats.Placements), and the straggler
// ends up in the shallowest slot of the rebuilt MCS epoch. It then moves
// the straggler and asserts the placement follows.
func TestReconfigurablePredictivePlacement(t *testing.T) {
	const p = 8
	mk, ok := PlacementByName("ewma")
	if !ok {
		t.Fatal("no ewma policy")
	}
	// Pin the degree at 2 (MinDegreeDelta larger than any possible move
	// suppresses degree rebuilds) so the MCS epochs keep their depth
	// diversity — the thing placement exploits — and the policy's orders
	// flow through the placement-only rebuild path
	// (ReconfigStats.Placements) instead of riding a degree change.
	b := NewReconfigurable(p, ReconfigConfig{
		ReplanEvery:    2,
		InitialDegree:  2,
		MinDegreeDelta: 64,
	}, WithPlacementPolicy(mk()))

	episode := func(straggler int) {
		var wg sync.WaitGroup
		for id := 0; id < p; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				if id == straggler {
					time.Sleep(2 * time.Millisecond)
				}
				b.Wait(id)
			}(id)
		}
		wg.Wait()
	}
	shallowest := func(d []int) int {
		min := d[0]
		for _, v := range d[1:] {
			if v < min {
				min = v
			}
		}
		return min
	}
	deepest := func(d []int) int {
		max := d[0]
		for _, v := range d[1:] {
			if v > max {
				max = v
			}
		}
		return max
	}

	for i := 0; i < 10; i++ {
		episode(5)
	}
	if st := b.ReconfigStats(); st.Placements < 1 {
		t.Fatalf("no placement rebuild after 10 straggler episodes (stats %+v)", st)
	}
	d := b.Depths()
	if shallowest(d) == deepest(d) {
		t.Fatalf("epoch tree has uniform depth %v — placement has nothing to choose", d)
	}
	if d[5] != shallowest(d) {
		t.Fatalf("straggler 5 at depth %d, shallowest is %d (depths %v)", d[5], shallowest(d), d)
	}

	for i := 0; i < 14; i++ {
		episode(2)
	}
	d = b.Depths()
	if d[2] != shallowest(d) {
		t.Fatalf("after straggler moved, id 2 at depth %d, shallowest is %d (depths %v)", d[2], shallowest(d), d)
	}
}

// TestPlacementRelabelMatchesPlaceByDepth pins the relabel a placement
// change applies to the one topology.PlaceByDepth builds: for random
// permutations over P ∈ [1, 70], degree 2–8, MCS and classic trees, every
// participant's first counter equals the placed clone's, and the table is
// a bijection onto the tree's attachment slots (every id is placed, and
// each counter receives exactly as many participants as it has slots).
// The state the relabel copies from must keep its own table.
func TestPlacementRelabelMatchesPlaceByDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for p := 1; p <= 70; p++ {
		for d := 2; d <= 8; d++ {
			for _, mcs := range []bool{true, false} {
				st := newRCState(nil, reconfig.Plan{P: p, Degree: d}, 0, mcs)
				natural := append([]int(nil), st.first...)
				order := rng.Perm(p)
				next := st.withPlacement(order, 1)

				placed := placeTree(st.tree, order)
				load := make([]int, len(st.tree.Counters))
				for id := 0; id < p; id++ {
					c := next.first[id]
					if want := placed.FirstCounter(id); c != want {
						t.Fatalf("p=%d d=%d mcs=%v order=%v: id %d relabelled to counter %d, PlaceByDepth puts it on %d",
							p, d, mcs, order, id, c, want)
					}
					load[c]++
				}
				for c := range load {
					if want := len(st.tree.Counters[c].Procs); load[c] != want {
						t.Fatalf("p=%d d=%d mcs=%v: counter %d holds %d participants, has %d slots",
							p, d, mcs, c, load[c], want)
					}
				}
				for id, c := range st.first {
					if c != natural[id] {
						t.Fatalf("p=%d d=%d mcs=%v: relabel rewrote the source state's first[%d]", p, d, mcs, id)
					}
				}
			}
		}
	}
}

// alternatingPolicy is a stub PlacementPolicy that emits two preallocated
// orders in turn, or no opinion once frozen.
type alternatingPolicy struct {
	orders [2][]int
	n      int
	frozen bool
}

func (a *alternatingPolicy) Observe([]float64) {}
func (a *alternatingPolicy) String() string    { return "alternating" }
func (a *alternatingPolicy) Order() []int {
	if a.frozen {
		return nil
	}
	a.n++
	return a.orders[a.n%2]
}

// TestPlacementEpisodeAllocs gates the cost of a placement change: with a
// policy whose order changes every episode, each episode re-places the
// participants, and that must allocate only the new state header and its
// first-counter table — not a new tree, counters or generation slots.
// Episodes that keep the placement allocate nothing.
func TestPlacementEpisodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; alloc gate runs in the non-race matrix")
	}
	const p = 64
	pol := &alternatingPolicy{}
	for k := range pol.orders {
		pol.orders[k] = make([]int, p)
	}
	for id := 0; id < p; id++ {
		pol.orders[0][id] = id
		pol.orders[1][id] = p - 1 - id
	}
	// Replan every episode, and pin the degree (MinDegreeDelta larger than
	// any possible move) so every release takes the placement path.
	b := NewReconfigurable(p, ReconfigConfig{ReplanEvery: 1, MinDegreeDelta: 64},
		WithPlacementPolicy(pol))
	episode := func() {
		for id := 0; id < p; id++ {
			b.Arrive(id)
		}
		for id := 0; id < p; id++ {
			b.Await(id)
		}
	}

	before := b.ReconfigStats()
	placing := testing.AllocsPerRun(100, episode)
	after := b.ReconfigStats()
	if got := after.Placements - before.Placements; got != 101 {
		t.Fatalf("%d placements over 101 episodes, want one per episode", got)
	}
	if after.Rebuilds != before.Rebuilds {
		t.Fatalf("degree rebuilds ran during the placement episodes (%d → %d)", before.Rebuilds, after.Rebuilds)
	}
	if placing > 2 {
		t.Fatalf("placement episode allocated %.2f times, want ≤ 2 (state header and first table)", placing)
	}

	pol.frozen = true
	if steady := testing.AllocsPerRun(100, episode); steady != 0 {
		t.Fatalf("episode without a placement change allocated %.2f times, want 0", steady)
	}
	if got := b.ReconfigStats().Placements; got != after.Placements {
		t.Fatalf("frozen policy still placed: %d → %d", after.Placements, got)
	}
}
