package topology

import "testing"

func TestPlaceByDepthRelabel(t *testing.T) {
	tr := NewMCS(13, 3)
	// Identity order must reproduce a valid tree with the same shape.
	order := make([]int, tr.P)
	for i := range order {
		order[i] = i
	}
	nt, err := tr.PlaceByDepth(order)
	if err != nil {
		t.Fatal(err)
	}
	if err := nt.Validate(); err != nil {
		t.Fatal(err)
	}

	// A laggiest-first order must produce monotonically non-decreasing
	// depths along the order: order[0] shallowest.
	rev := make([]int, tr.P)
	for i := range rev {
		rev[i] = tr.P - 1 - i
	}
	nt, err = tr.PlaceByDepth(rev)
	if err != nil {
		t.Fatal(err)
	}
	if err := nt.Validate(); err != nil {
		t.Fatal(err)
	}
	prev := 0
	for k, p := range rev {
		d := nt.Depth(nt.FirstCounter(p))
		if d < prev {
			t.Fatalf("order[%d]=proc %d at depth %d, shallower than its predecessor (%d)", k, p, d, prev)
		}
		prev = d
	}
	// Shape invariants survive relabeling.
	a, b := tr.ShapeStats(), nt.ShapeStats()
	if a != b {
		t.Fatalf("relabel changed the shape: %+v vs %+v", a, b)
	}
	// The first processor in the order owns the root local slot on an MCS
	// tree (the unique depth-1 slot).
	if got := nt.FirstCounter(rev[0]); got != nt.Root {
		t.Fatalf("laggiest processor placed at counter %d, not the root %d", got, nt.Root)
	}
	if nt.Counters[nt.Root].Local != rev[0] {
		t.Fatalf("root local is %d, want %d", nt.Counters[nt.Root].Local, rev[0])
	}
}

func TestPlaceByDepthClassic(t *testing.T) {
	tr := NewClassic(9, 3)
	order := []int{8, 7, 6, 5, 4, 3, 2, 1, 0}
	nt, err := tr.PlaceByDepth(order)
	if err != nil {
		t.Fatal(err)
	}
	if err := nt.Validate(); err != nil {
		t.Fatal(err)
	}
	// Classic trees attach every processor at the same depth, so the
	// relabel is just a permutation of leaf assignments.
	for p := 0; p < tr.P; p++ {
		if nt.Depth(nt.FirstCounter(p)) != tr.Depth(tr.FirstCounter(p)) {
			t.Fatalf("classic relabel changed processor %d depth", p)
		}
	}
}

func TestPlaceByDepthErrors(t *testing.T) {
	tr := NewMCS(6, 2)
	if _, err := tr.PlaceByDepth([]int{0, 1, 2}); err == nil {
		t.Fatal("short order accepted")
	}
	if _, err := tr.PlaceByDepth([]int{0, 1, 2, 3, 4, 4}); err == nil {
		t.Fatal("duplicate order accepted")
	}
	if _, err := tr.PlaceByDepth([]int{0, 1, 2, 3, 4, 6}); err == nil {
		t.Fatal("out-of-range order accepted")
	}
	ring := NewRing([]int{4, 4}, 2)
	ro := make([]int, ring.P)
	for i := range ro {
		ro[i] = i
	}
	if _, err := ring.PlaceByDepth(ro); err == nil {
		t.Fatal("ring tree relabel accepted")
	}
}

func TestPlaceByDepthDoesNotMutateOriginal(t *testing.T) {
	tr := NewMCS(10, 2)
	before := make([]int, tr.P)
	for p := range before {
		before[p] = tr.FirstCounter(p)
	}
	order := make([]int, tr.P)
	for i := range order {
		order[i] = (i + 3) % tr.P
	}
	if _, err := tr.PlaceByDepth(order); err != nil {
		t.Fatal(err)
	}
	for p := range before {
		if tr.FirstCounter(p) != before[p] {
			t.Fatalf("PlaceByDepth mutated the original tree at proc %d", p)
		}
	}
}

// TestSlotsByDepth pins the slot listing PlaceByDepth is built on: one
// entry per attachment slot, depths non-decreasing, counter ids ascending
// within a depth, and each counter listed once per attached processor.
func TestSlotsByDepth(t *testing.T) {
	for _, tr := range []*Tree{NewMCS(13, 3), NewMCS(64, 4), NewClassic(9, 3), NewClassic(70, 8), NewMCS(1, 2)} {
		slots := tr.SlotsByDepth()
		if len(slots) != tr.P {
			t.Fatalf("%v p=%d: %d slots, want %d", tr.Kind, tr.P, len(slots), tr.P)
		}
		count := make([]int, len(tr.Counters))
		for k, c := range slots {
			count[c]++
			if k == 0 {
				continue
			}
			prev := slots[k-1]
			if d, pd := tr.Depth(c), tr.Depth(prev); d < pd || (d == pd && c < prev) {
				t.Fatalf("%v p=%d: slot %d (counter %d, depth %d) listed after counter %d at depth %d",
					tr.Kind, tr.P, k, c, d, prev, pd)
			}
		}
		for c, n := range count {
			if n != len(tr.Counters[c].Procs) {
				t.Fatalf("%v p=%d: counter %d listed %d times, has %d slots", tr.Kind, tr.P, c, n, len(tr.Counters[c].Procs))
			}
		}
	}
	if got := NewMCS(13, 3).SlotsByDepth()[0]; got != NewMCS(13, 3).Root {
		t.Fatalf("MCS shallowest slot on counter %d, want the root", got)
	}
}
