package topology

import "fmt"

// PlaceByDepth returns a clone of the tree with processors reassigned to
// attachment slots by depth: order[0] takes the shallowest slot (for an
// MCS tree, the root's local slot), order[1] the next shallowest, and so
// on down to the deepest leaves. order must be a permutation of
// 0..P-1 — typically the laggiest-first ranking from a lag profile — so
// consistently late processors sit adjacent to the root and early ones at
// the leaves. Slot structure (counter layout, fan-ins, which slots are
// local) is unchanged; only which processor occupies which slot moves.
//
// Ring-constrained trees are refused: a processor's ring is physical and
// relabeling across rings would teleport it to another ring's memory.
func (t *Tree) PlaceByDepth(order []int) (*Tree, error) {
	if t.Kind == Ring {
		return nil, fmt.Errorf("topology: PlaceByDepth cannot relabel a ring-constrained tree")
	}
	if len(order) != t.P {
		return nil, fmt.Errorf("topology: order has %d entries for %d processors", len(order), t.P)
	}
	seen := make([]bool, t.P)
	for _, p := range order {
		if p < 0 || p >= t.P || seen[p] {
			return nil, fmt.Errorf("topology: order is not a permutation of 0..%d", t.P-1)
		}
		seen[p] = true
	}

	nt := t.Clone()
	idx := 0 // slot index within the current counter's Procs
	slots := t.SlotsByDepth()
	for k, c := range slots {
		if k > 0 && slots[k-1] != c {
			idx = 0
		}
		p := order[k]
		old := t.Counters[c].Procs[idx]
		nt.Counters[c].Procs[idx] = p
		if t.Counters[c].Local == old {
			nt.Counters[c].Local = p
		}
		nt.first[p] = c
		nt.ringOf[p] = t.ringOf[old]
		idx++
	}
	return nt, nil
}

// SlotsByDepth lists the tree's attachment slots shallowest first, one
// entry per slot holding the counter the slot belongs to: slots[k] is the
// k-th shallowest slot's counter, and a participant placed there starts
// its ascent at it. Ties break by counter id, then by slot index within
// the counter (a counter's slots are adjacent in the list), so the
// listing is deterministic. PlaceByDepth assigns order[k] to slot k, so
// relabelling first[order[k]] = slots[k] reproduces its placement
// without cloning the tree.
func (t *Tree) SlotsByDepth() []int {
	depth := make([]int, len(t.Counters))
	deepest := 0
	for c := range t.Counters {
		depth[c] = t.Depth(c)
		deepest = max(deepest, depth[c])
	}
	slots := make([]int, 0, t.P)
	for d := 1; d <= deepest; d++ {
		for c := range t.Counters {
			if depth[c] != d {
				continue
			}
			for range t.Counters[c].Procs {
				slots = append(slots, c)
			}
		}
	}
	return slots
}
