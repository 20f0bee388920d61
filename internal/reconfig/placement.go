package reconfig

import (
	"softbarrier/internal/loadmodel"
	rt "softbarrier/internal/runtime"
)

// Placement is the predictive straggler-placement step every re-placing
// barrier runs at its release point: the in-process
// ReconfigurableBarrier and the netbarrier sessions. Each episode the
// releaser feeds the policy the measured per-participant lags (Observe);
// on the replan cadence it asks whether the policy's
// predicted-straggler order differs from the running placement (Due),
// and a rebuilt epoch starts from the freshest order that fits it
// (ForEpoch). Callers apply an order by relabelling their first-counter
// table over topology.Tree.SlotsByDepth (topology.Relabel).
//
// A nil *Placement is the disabled step: Observe does nothing and the
// order methods return nil. Like the policy it wraps, it is releaser-only.
type Placement struct {
	pol  loadmodel.PlacementPolicy
	lags []float64 // lag scratch, reused every episode
}

// NewPlacement wraps pol, returning nil (placement off) for a nil policy.
func NewPlacement(pol loadmodel.PlacementPolicy) *Placement {
	if pol == nil {
		return nil
	}
	return &Placement{pol: pol}
}

// Observe feeds the episode's per-participant lags, read from rec, to
// the policy. It must run before the episode's release, while rec's
// parity slots are quiescent.
func (pl *Placement) Observe(rec *rt.Recorder, episode uint64) {
	if pl == nil {
		return
	}
	if pl.lags = rec.LagsInto(episode, pl.lags); len(pl.lags) > 0 {
		pl.pol.Observe(pl.lags)
	}
}

// order asks the policy for an order over p participants. It returns nil
// when the policy has no opinion or its opinion is for a different
// membership (stale history straddling a resize). Order() is consumed:
// hysteresis policies record what they emit.
func (pl *Placement) order(p int) []int {
	if pl == nil {
		return nil
	}
	if order := pl.pol.Order(); len(order) == p {
		return order
	}
	return nil
}

// Due decides, on ctrl's replan cadence, whether the running placement
// cur (nil: the natural ascending-id order) of p participants should
// change. It returns the new order, or nil when none is due: off
// cadence, no opinion, an opinion for a stale membership, or unchanged.
func (pl *Placement) Due(ctrl *Controller, cur []int, p int) []int {
	if pl == nil {
		return nil
	}
	if n := ctrl.Episodes(); n == 0 || n%ctrl.Config().ReplanEvery != 0 {
		return nil
	}
	order := pl.order(p)
	if order == nil || sameOrder(order, cur) {
		return nil
	}
	return order
}

// ForEpoch returns the order a rebuilt epoch of p participants starts
// with: the policy's fresh opinion, else cur when it still fits — a
// rebuild keeps the running placement rather than snapping back to the
// identity order. nil means the natural placement.
func (pl *Placement) ForEpoch(cur []int, p int) []int {
	if order := pl.order(p); order != nil {
		return order
	}
	if len(cur) == p {
		return cur
	}
	return nil
}

// sameOrder reports whether order equals cur, treating a nil cur as the
// identity order.
func sameOrder(order, cur []int) bool {
	for k, id := range order {
		if cur == nil && id != k || cur != nil && id != cur[k] {
			return false
		}
	}
	return true
}
