package core

import (
	"errors"
	"fmt"
	"math/big"

	"closnet/internal/obs"
	"closnet/internal/rational"
	"closnet/internal/topology"
)

// Evaluator amortizes ClosMaxMinFair across many middle assignments of
// one fixed (Clos, Collection) pair: every candidate path (one per flow
// and middle switch) is materialized and validated once at construction,
// and the water-filling scratch state — remaining capacities, active
// counts, flows-on-link lists, frozen flags — is reused between calls
// instead of being reallocated per assignment. The routing-space search
// gives each worker goroutine a private Evaluator.
//
// The hot path runs entirely on the small-word rational.Rat64 kernel: a
// flat scratch of int64 fractions with overflow-checked arithmetic. If
// any operation overflows (impossible for the unit-capacity instances
// the paper constructs, but guarded for arbitrary capacities), the
// state is re-evaluated from scratch on the *big.Rat path — the same
// exact progressive filling, so the promotion is lossless. ForceBig
// pins the big.Rat path, which doubles as the differential-test oracle.
//
// An Evaluator is NOT safe for concurrent use. Eval returns exactly the
// allocation ClosMaxMinFair would return: all paths run the same exact
// progressive-filling algorithm over the same link order, so the
// results are identical rationals.
type Evaluator struct {
	nf int
	n  int
	// paths[fi][m-1] is flow fi's path via middle switch m.
	paths [][]topology.Path

	// finite[id] reports whether link id has a finite capacity (link IDs
	// are dense: 0..NumLinks()-1).
	finite []bool

	// Per-state scratch reused across Eval calls, indexed by LinkID or
	// by flow index. It is allocated by the first Eval, so an Evaluator
	// embedded in a BlockEvaluator — which fills on its own lanes — never
	// pays for it unless a state is promoted.
	active []int
	frozen []bool
	on     [][]int

	// finiteIDs lists the finite link IDs in ascending order — the same
	// order the dense id scan visits them — so the filling rounds skip
	// unbounded links without testing each one.
	finiteIDs []topology.LinkID

	// Small-word fast path: capacities and remaining headroom as flat
	// Rat64 values. fast is false when some finite capacity does not fit
	// in an int64 fraction, in which case every Eval takes the big path.
	// rem64 is per-state scratch, allocated with active.
	caps64   []rational.Rat64
	rem64    []rational.Rat64
	fast     bool
	forceBig bool
	// promotions counts Eval calls that overflowed the Rat64 kernel and
	// were re-run on big.Rat.
	promotions int

	// Observability handles (see Instrument). All nil by default; nil
	// handles make every touch point a single predictable nil check, so
	// an uninstrumented evaluator's hot path is unchanged.
	cFills      *obs.Counter
	cFast       *obs.Counter
	cPromotions *obs.Counter
	cReuses     *obs.Counter
	jour        *obs.Journal
	used        bool // true after the first Eval (scratch-reuse tracking)

	// big.Rat scratch for the promotion path: remaining capacities plus
	// reusable receivers for the round arithmetic and the integer
	// cross-multiplied min-delta comparisons. Allocated by the first
	// evalBig (remaining == nil until then): on the unit-capacity
	// instances of the paper no state is ever promoted.
	remaining              []*big.Rat
	caps                   []*big.Rat
	actRat                 *big.Rat
	delta                  *big.Rat
	tmp                    *big.Rat
	level                  *big.Rat
	xInt, yInt, aInt, bInt *big.Int
}

// NewEvaluator prepares repeated max-min fair evaluations of fs over c.
// It fails if any flow endpoint is not a server of c.
func NewEvaluator(c topology.Fabric, fs Collection) (*Evaluator, error) {
	e := &Evaluator{nf: len(fs), n: c.Size()}
	// One backing array holds every flow's row of paths.
	e.paths = make([][]topology.Path, len(fs))
	rows := make([]topology.Path, len(fs)*e.n)
	for fi, f := range fs {
		e.paths[fi] = rows[fi*e.n : (fi+1)*e.n : (fi+1)*e.n]
		for m := 1; m <= e.n; m++ {
			p, err := c.Path(f.Src, f.Dst, m)
			if err != nil {
				return nil, fmt.Errorf("evaluator: flow %d: %w", fi, err)
			}
			e.paths[fi][m-1] = p
		}
	}
	net := c.Network()
	nl := net.NumLinks()
	e.finite = make([]bool, nl)
	e.caps = make([]*big.Rat, nl)
	e.caps64 = make([]rational.Rat64, nl)
	e.fast = true
	// Visiting links in ID order leaves finiteIDs ascending.
	for id := 0; id < nl; id++ {
		l := net.Link(topology.LinkID(id))
		if l.Unbounded {
			continue
		}
		e.finite[id] = true
		e.caps[id] = l.Capacity
		if c64, ok := l.Capacity64(); ok {
			e.caps64[id] = c64
		} else {
			e.fast = false
		}
		e.finiteIDs = append(e.finiteIDs, l.ID)
	}
	return e, nil
}

// ForceBig pins Eval to the *big.Rat path when on is true, bypassing the
// Rat64 kernel. The results are identical; it exists for differential
// tests and for benchmarking the kernel against its fallback.
func (e *Evaluator) ForceBig(on bool) { e.forceBig = on }

// Promotions returns the number of Eval calls so far that overflowed
// the Rat64 kernel and were transparently re-run on *big.Rat.
func (e *Evaluator) Promotions() int { return e.promotions }

// Instrument attaches the observability layer: fills, Rat64 fast-path
// completions, big.Rat promotions and scratch reuses land in o's
// metrics registry, and each promotion additionally journals a
// core.promotion event. Counters are registered by name, so evaluators
// instrumented from the same registry (one per search worker)
// accumulate into shared metrics. A nil o — or a nil registry/journal
// inside it — leaves the evaluator uninstrumented.
func (e *Evaluator) Instrument(o *obs.Obs) {
	reg := o.Registry()
	e.cFills = reg.Counter("core.eval.fills")
	e.cFast = reg.Counter("core.eval.fast")
	e.cPromotions = reg.Counter("core.eval.promotions")
	e.cReuses = reg.Counter("core.eval.scratch_reuses")
	e.jour = o.Journal()
}

// Eval computes the max-min fair allocation of the collection under the
// middle assignment ma, identical to ClosMaxMinFair(c, fs, ma). The
// returned Allocation is freshly allocated and safe to retain; ma is
// only read.
func (e *Evaluator) Eval(ma MiddleAssignment) (Allocation, error) {
	if len(ma) != e.nf {
		return nil, fmt.Errorf("evaluator: assignment has %d middles for %d flows", len(ma), e.nf)
	}
	for fi, m := range ma {
		if m < 1 || m > e.n {
			return nil, fmt.Errorf("evaluator: flow %d: middle %d out of range [1, %d]", fi, m, e.n)
		}
	}
	e.cFills.Inc()
	if e.used {
		e.cReuses.Inc()
	} else {
		e.used = true
	}
	if e.fast && !e.forceBig {
		rates, ok, err := e.eval64(ma)
		if err != nil {
			return nil, err
		}
		if ok {
			e.cFast.Inc()
			return rates, nil
		}
		// Some Rat64 operation overflowed: promote losslessly by
		// re-running the state on the big.Rat path.
		e.promotions++
		e.cPromotions.Inc()
		e.jour.Emit("core.promotion", obs.F{"promotions": e.promotions})
	}
	return e.evalBig(ma)
}

// register resets the per-link scratch shared by both paths and walks
// every flow's chosen path, rebuilding the flows-on-link lists and
// active counts for the assignment.
func (e *Evaluator) register(ma MiddleAssignment) {
	if e.on == nil {
		nl := len(e.finite)
		e.active = make([]int, nl)
		e.on = make([][]int, nl)
		e.rem64 = make([]rational.Rat64, nl)
		e.frozen = make([]bool, e.nf)
	}
	for id := range e.on {
		e.on[id] = e.on[id][:0]
		e.active[id] = 0
	}
	for fi := range e.frozen {
		e.frozen[fi] = false
	}
	for fi, m := range ma {
		for _, l := range e.paths[fi][m-1] {
			e.on[l] = append(e.on[l], fi)
			if e.finite[l] {
				e.active[l]++
			}
		}
	}
}

// eval64 is the small-word progressive filling: the same algorithm as
// evalBig (same link iteration order, same exact arithmetic), but on a
// flat []Rat64 scratch with no per-round allocation. The second result
// is false when an operation overflowed int64; the caller then redoes
// the state on evalBig.
func (e *Evaluator) eval64(ma MiddleAssignment) (Allocation, bool, error) {
	e.register(ma)
	for _, id := range e.finiteIDs {
		e.rem64[id] = e.caps64[id]
	}

	// Each flow's rate is written exactly once, when the flow freezes.
	// All flows freezing in the same round share one *big.Rat level
	// value: Vec elements are immutable by package contract, so sharing
	// the pointer is safe and saves an allocation per flow.
	rates := make(rational.Vec, e.nf)
	if e.nf == 0 {
		return rates, true, nil
	}
	level := rational.Zero64()
	remainingFlows := e.nf
	for remainingFlows > 0 {
		// Min-delta scan: d = remaining/active per contended link. The
		// division normalizes on int64 gcds and the comparison cross-
		// multiplies in 128 bits, so the scan is exact and cannot
		// itself overflow. Ties keep the earlier link, matching the
		// strict-< scan of MaxMinFair.
		minID := topology.LinkID(-1)
		var minDelta rational.Rat64
		for _, id := range e.finiteIDs {
			if e.active[id] == 0 {
				continue
			}
			d, ok := e.rem64[id].DivInt(int64(e.active[id]))
			if !ok {
				return nil, false, nil
			}
			if minID < 0 || d.Cmp(minDelta) < 0 {
				minID = id
				minDelta = d
			}
		}
		if minID < 0 {
			return nil, false, ErrUnboundedFlow
		}

		var ok bool
		if level, ok = level.Add(minDelta); !ok {
			return nil, false, nil
		}
		for _, id := range e.finiteIDs {
			if e.active[id] == 0 {
				continue
			}
			used, ok := minDelta.MulInt(int64(e.active[id]))
			if !ok {
				return nil, false, nil
			}
			if e.rem64[id], ok = e.rem64[id].Sub(used); !ok {
				return nil, false, nil
			}
		}

		var levelRat *big.Rat // materialized on first freeze this round
		progressed := false
		for _, id := range e.finiteIDs {
			if e.active[id] == 0 || !e.rem64[id].IsZero() {
				continue
			}
			for _, fi := range e.on[id] {
				if e.frozen[fi] {
					continue
				}
				e.frozen[fi] = true
				if levelRat == nil {
					levelRat = level.Rat()
				}
				rates[fi] = levelRat
				remainingFlows--
				progressed = true
				for _, l := range e.paths[fi][ma[fi]-1] {
					if e.finite[l] {
						e.active[l]--
					}
				}
			}
		}
		if !progressed {
			return nil, false, errors.New("waterfill: no progress (internal invariant violated)")
		}
	}
	return rates, true, nil
}

// evalBig is the exact progressive filling on *big.Rat, mirroring
// MaxMinFair step for step (same link iteration order, same exact
// arithmetic) so the allocations are identical. Every big.Rat operation
// here writes into a reusable receiver: big.Rat arithmetic is exact and
// always normalized, so the values are independent of receiver reuse.
// It serves as the promotion target of eval64 and as the independent
// oracle of the differential tests.
func (e *Evaluator) evalBig(ma MiddleAssignment) (Allocation, error) {
	if e.remaining == nil {
		e.remaining = make([]*big.Rat, len(e.finite))
		for _, id := range e.finiteIDs {
			e.remaining[id] = new(big.Rat)
		}
		e.actRat, e.delta, e.tmp, e.level = new(big.Rat), new(big.Rat), new(big.Rat), new(big.Rat)
		e.xInt, e.yInt, e.aInt, e.bInt = new(big.Int), new(big.Int), new(big.Int), new(big.Int)
	}
	e.register(ma)
	for _, id := range e.finiteIDs {
		e.remaining[id].Set(e.caps[id])
	}

	// Each flow's rate is written exactly once, when the flow freezes, so
	// the vector starts with nil slots instead of NewVec's discarded rats.
	rates := make(rational.Vec, e.nf)
	if e.nf == 0 {
		return rates, nil
	}
	level := e.level.SetInt64(0)
	remainingFlows := e.nf
	for remainingFlows > 0 {
		// Min-delta scan by cross multiplication: with r = p/q remaining
		// and a active flows, d = p/(q·a), and d1 < d2 iff
		// p1·q2·a2 < p2·q1·a1 (all quantities non-negative, a > 0). This
		// finds the bottleneck with exact integer products, deferring the
		// normalizing division to once per round. Ties keep the earlier
		// link, matching the strict-< scan of MaxMinFair.
		minID := topology.LinkID(-1)
		for _, id := range e.finiteIDs {
			if e.active[id] == 0 {
				continue
			}
			if minID < 0 {
				minID = id
				continue
			}
			e.aInt.SetInt64(int64(e.active[minID]))
			e.bInt.SetInt64(int64(e.active[id]))
			e.xInt.Mul(e.remaining[id].Num(), e.remaining[minID].Denom())
			e.xInt.Mul(e.xInt, e.aInt)
			e.yInt.Mul(e.remaining[minID].Num(), e.remaining[id].Denom())
			e.yInt.Mul(e.yInt, e.bInt)
			if e.xInt.Cmp(e.yInt) < 0 {
				minID = id
			}
		}
		if minID < 0 {
			return nil, ErrUnboundedFlow
		}
		e.actRat.SetInt64(int64(e.active[minID]))
		e.delta.Quo(e.remaining[minID], e.actRat)

		level.Add(level, e.delta)
		for _, id := range e.finiteIDs {
			if e.active[id] == 0 {
				continue
			}
			e.actRat.SetInt64(int64(e.active[id]))
			e.tmp.Mul(e.delta, e.actRat)
			e.remaining[id].Sub(e.remaining[id], e.tmp)
		}

		progressed := false
		for _, id := range e.finiteIDs {
			if e.active[id] == 0 || e.remaining[id].Sign() != 0 {
				continue
			}
			for _, fi := range e.on[id] {
				if e.frozen[fi] {
					continue
				}
				e.frozen[fi] = true
				rates[fi] = rational.Copy(level)
				remainingFlows--
				progressed = true
				for _, l := range e.paths[fi][ma[fi]-1] {
					if e.finite[l] {
						e.active[l]--
					}
				}
			}
		}
		if !progressed {
			return nil, errors.New("waterfill: no progress (internal invariant violated)")
		}
	}
	return rates, nil
}
