package core

import (
	"errors"
	"fmt"
	"math/big"
	"slices"

	"closnet/internal/obs"
	"closnet/internal/rational"
	"closnet/internal/topology"
)

// PartialEvaluator bounds partial middle assignments for the
// branch-and-bound search: given a suffix of flows fixed to concrete
// path choices and the remaining prefix free, it computes the max-min
// fair allocation of the *trunk relaxation* — an admissible upper bound
// (in the sorted-lexicographic order of Definition 2.4) on the max-min
// fair allocation of every completion of the partial assignment.
//
// The relaxation works on any topology.Fabric. For every interior
// switch it forms candidate "trunk" pools — the switch's fabric-facing
// out-links and in-links, pooled with capacity equal to the sum of the
// member capacities — and charges a flow on a trunk exactly when every
// one of the flow's Size() candidate paths crosses the pool exactly
// once. A fixed flow is charged on its full real path plus its trunks;
// a free flow is charged only on its static links (the links shared by
// all of its candidate paths, which always include its server links)
// plus its trunks — it pays for fabric capacity in aggregate without
// committing to a path. On a Clos this reproduces the per-ToR
// uplink/downlink trunks exactly; on a fat-tree the pools are the
// edge-to-aggregation bundles; on a Benes the outermost stage fan-outs.
//
// Any completion's allocation satisfies every relaxed constraint: each
// trunk constraint is weaker than the sum of its member link
// constraints (a charged flow crosses the pool exactly once under any
// completion, and uncharged traffic is dropped from the left-hand
// side), and real links carry subsets of their true flow sets. So the
// completion is feasible in the relaxed system, and the water-filled
// max-min fair allocation of that system lexicographically dominates
// it — the bound is admissible. When every flow is fixed the trunk
// constraints are implied by the real links and the charged sets are
// exact, so the relaxed feasible region equals the real one and the
// bound coincides with the exact evaluation.
//
// Each Bound is a full progressive filling of the relaxed system over
// scratch reused across calls, on the block evaluator's
// shared-denominator int64 kernel (laneFill). Lanes are relaxed link
// IDs, and every flow's relaxed lane list is precomputed at
// construction — static lanes for a free flow, static plus the varying
// lanes of its choice for a fixed one — so a call only picks |F| lists
// before filling. An overflow falls back losslessly to a *big.Rat
// filling of the same system. BoundSorted returns the ascending bound
// vector as Rat64 values with one allocation, the form the
// branch-and-bound compares. A PartialEvaluator is NOT safe for
// concurrent use.
type PartialEvaluator struct {
	nf, n int

	// freeLanes[fi] lists the relaxed lanes flow fi occupies regardless
	// of assignment: the real links shared by all of its candidate
	// paths plus its charged trunks. fixedLanes[fi][m-1] is freeLanes[fi]
	// plus the real links flow fi additionally occupies when fixed to
	// choice m. Lane t ≥ |real links| is trunk pool t-|real links|.
	freeLanes  [][]int32
	fixedLanes [][][]int32
	caps64     []rational.Rat64
	fast       bool
	forceBig   bool

	// Per-call scratch: the kernel, the state's lane lists and its rates.
	fill  laneFill
	lanes [][]int32
	rates []rational.Rat64

	// links and pools (the real member links of each trunk) seed caps,
	// the big.Rat capacities of every lane, built with the rest of the
	// big.Rat scratch when boundBig first runs.
	links                  []topology.Link
	pools                  [][]int32
	caps, remaining        []*big.Rat
	actRat, delta, tmp     *big.Rat
	level                  *big.Rat
	xInt, yInt, aInt, bInt *big.Int

	cPromotions *obs.Counter
}

// partialTestOverflow, when non-nil, forces the kernel fill of every
// PartialEvaluator to report overflow mid-fill (after registration) on
// the calls for which it returns true — the package-internal hook the
// promotion tests use, since unit-capacity instances never overflow
// naturally. It is package-wide so that tests can reach the evaluator a
// pruned search builds internally.
var partialTestOverflow func(fixedFrom int) bool

// NewPartialEvaluator prepares repeated trunk-relaxation bounds of fs
// over c. It fails if any flow endpoint is not a server of c or any
// link capacity is unbounded (the relaxation pools concrete capacities).
func NewPartialEvaluator(c topology.Fabric, fs Collection) (*PartialEvaluator, error) {
	net := c.Network()
	links := net.Links()
	nReal := len(links)
	e := &PartialEvaluator{nf: len(fs), n: c.Size(), links: links, fast: true}
	for _, l := range links {
		if l.Unbounded {
			return nil, fmt.Errorf("partial: link %d is unbounded; the trunk relaxation needs finite capacities", l.ID)
		}
	}

	// Candidate paths, one per flow and choice.
	paths := make([]topology.Path, len(fs)*e.n)
	for fi, f := range fs {
		for m := 1; m <= e.n; m++ {
			p, err := c.Path(f.Src, f.Dst, m)
			if err != nil {
				return nil, fmt.Errorf("partial: flow %d: %w", fi, err)
			}
			paths[fi*e.n+m-1] = p
		}
	}

	// Trunk pools: the fabric-interior out-link and in-link bundles of
	// every switch. Links incident to a server stay out of pools (they
	// are exact per-flow constraints already), and singleton bundles
	// duplicate their one real constraint, so only pools of two or more
	// interior links survive. Each real link belongs to at most one
	// out-pool (keyed by its tail) and one in-pool (keyed by its head).
	// Pools are ordered out-pools then in-pools, each by ascending key
	// node ID, with members in ascending link ID.
	isServer := func(id topology.NodeID) bool {
		k := net.Node(id).Kind
		return k == topology.KindSource || k == topology.KindDestination
	}
	interior := func(l topology.Link) bool { return !isServer(l.From) && !isServer(l.To) }
	// Bundle key v is switch v's out-bundle, nNodes+v its in-bundle;
	// each pool is carved from one members array with its exact size.
	nKeys := 2 * net.NumNodes()
	scratch := make([]int32, 2*nKeys)
	deg, keyPool := scratch[:nKeys], scratch[nKeys:]
	keys := func(l topology.Link) [2]int { return [2]int{int(l.From), nKeys/2 + int(l.To)} }
	for _, l := range links {
		if interior(l) {
			for _, k := range keys(l) {
				deg[k]++
			}
		}
	}
	total := int32(0)
	for _, d := range deg {
		if d >= 2 {
			total += d
		}
	}
	members := make([]int32, total)
	for k, d := range deg {
		keyPool[k] = -1
		if d >= 2 {
			keyPool[k] = int32(len(e.pools))
			e.pools = append(e.pools, members[:0:d])
			members = members[d:]
		}
	}
	poolOf := make([]int32, 2*nReal) // out-pool of link l at l, in-pool at nReal+l; -1 if none
	for i := range poolOf {
		poolOf[i] = -1
	}
	for _, l := range links {
		if !interior(l) {
			continue
		}
		for side, k := range keys(l) {
			if q := keyPool[k]; q >= 0 {
				e.pools[q] = append(e.pools[q], int32(l.ID))
				poolOf[side*nReal+int(l.ID)] = q
			}
		}
	}
	nLanes := nReal + len(e.pools)

	e.caps64 = make([]rational.Rat64, nLanes)
	for _, l := range links {
		c64, ok := l.Capacity64()
		e.caps64[l.ID], e.fast = c64, e.fast && ok
	}
	for t, ids := range e.pools {
		sum := rational.Zero64()
		for _, id := range ids {
			var ok bool
			if sum, ok = sum.Add(e.caps64[id]); !ok {
				e.fast = false
			}
		}
		e.caps64[nReal+t] = sum
	}

	// Per-flow lane lists. A trunk is charged exactly when every
	// candidate path crosses its pool exactly once (then the flow
	// consumes one unit of pool capacity under any completion). The
	// lists are carved out of one shared backing array; lists already
	// carved keep pointing into an outgrown one, which stays valid.
	e.freeLanes = make([][]int32, len(fs))
	e.fixedLanes = make([][][]int32, len(fs))
	rows := make([][]int32, len(fs)*e.n)
	backing := make([]int32, 0, len(fs)*(e.n+1)*8)
	occ := make([]int32, nReal)
	cnt := make([]int32, len(e.pools))
	var trunks []int32
	count := func(p topology.Path, d int32) {
		for _, l := range p {
			for _, q := range [2]int32{poolOf[l], poolOf[nReal+int(l)]} {
				if q >= 0 {
					cnt[q] += d
				}
			}
		}
	}
	for fi := range fs {
		fp := paths[fi*e.n : (fi+1)*e.n]
		for _, p := range fp {
			for _, l := range p {
				occ[l]++
			}
		}
		trunks = trunks[:0]
		for pi, p := range fp {
			count(p, 1)
			if pi == 0 {
				for _, l := range p {
					for _, q := range [2]int32{poolOf[l], poolOf[nReal+int(l)]} {
						if q >= 0 && cnt[q] == 1 && !slices.Contains(trunks, q) {
							trunks = append(trunks, q)
						}
					}
				}
			} else {
				trunks = slices.DeleteFunc(trunks, func(q int32) bool { return cnt[q] != 1 })
			}
			count(p, -1)
		}
		slices.Sort(trunks)
		start := len(backing)
		for _, l := range fp[0] {
			if occ[l] == int32(e.n) {
				backing = append(backing, int32(l)) // static: on every candidate path
			}
		}
		for _, q := range trunks {
			backing = append(backing, int32(nReal)+q)
		}
		e.freeLanes[fi] = backing[start:len(backing):len(backing)]
		e.fixedLanes[fi] = rows[fi*e.n : (fi+1)*e.n : (fi+1)*e.n]
		for m, p := range fp {
			start := len(backing)
			backing = append(backing, e.freeLanes[fi]...)
			for _, l := range p {
				if occ[l] != int32(e.n) {
					backing = append(backing, int32(l))
				}
			}
			e.fixedLanes[fi][m] = backing[start:len(backing):len(backing)]
		}
		for _, p := range fp {
			for _, l := range p {
				occ[l] = 0
			}
		}
	}
	e.fill = newLaneFill(nLanes, len(fs))
	e.lanes = make([][]int32, len(fs))
	e.rates = make([]rational.Rat64, len(fs))
	return e, nil
}

// ForceBig pins Bound to the *big.Rat path when on is true, bypassing
// the Rat64 kernel (BoundSorted then reports !ok). The results are
// identical; it exists for differential tests.
func (e *PartialEvaluator) ForceBig(on bool) { e.forceBig = on }

// Instrument attaches the observability layer: core.partial_promotions
// counts the bounds whose kernel fill overflowed and was re-run on
// *big.Rat. A nil o leaves the evaluator uninstrumented.
func (e *PartialEvaluator) Instrument(o *obs.Obs) {
	e.cPromotions = o.Registry().Counter("core.partial_promotions")
}

// Bound computes the max-min fair allocation of the trunk relaxation in
// which flows [fixedFrom, len(fs)) are routed per ma and flows
// [0, fixedFrom) are free. The result's sorted vector lexicographically
// dominates (≥) the sorted max-min fair vector of every completion of
// the partial assignment; with fixedFrom == 0 it equals the exact
// evaluation. Only ma[fixedFrom:] is read; the returned Allocation is
// freshly allocated.
func (e *PartialEvaluator) Bound(ma MiddleAssignment, fixedFrom int) (Allocation, error) {
	if err := e.setLanes(ma, fixedFrom); err != nil {
		return nil, err
	}
	if e.fast && !e.forceBig {
		ok, err := e.fill64(fixedFrom, nil)
		if err != nil {
			return nil, err
		}
		if ok {
			a := make(Allocation, e.nf)
			for fi, r := range e.rates {
				a[fi] = r.Rat()
			}
			return a, nil
		}
		e.cPromotions.Inc()
	}
	return e.boundBig()
}

// BoundSorted returns the ascending (sorted) vector of Bound(ma,
// fixedFrom) as Rat64 values in one fresh slice, without materializing
// *big.Rat rates: flows freeze at nondecreasing levels, so the kernel
// emits them in order. ok is false when the kernel overflowed or
// ForceBig is set; the caller then takes Bound, which redoes the call
// on *big.Rat (and counts the promotion).
func (e *PartialEvaluator) BoundSorted(ma MiddleAssignment, fixedFrom int) ([]rational.Rat64, bool, error) {
	if err := e.setLanes(ma, fixedFrom); err != nil {
		return nil, false, err
	}
	if !e.fast || e.forceBig {
		return nil, false, nil
	}
	sorted := make([]rational.Rat64, e.nf)
	ok, err := e.fill64(fixedFrom, sorted)
	if !ok || err != nil {
		return nil, false, err
	}
	return sorted, true, nil
}

// setLanes validates a partial assignment and points each flow at its
// relaxed lane list: free below fixedFrom, fixed to ma[fi] from it on.
func (e *PartialEvaluator) setLanes(ma MiddleAssignment, fixedFrom int) error {
	if len(ma) != e.nf {
		return fmt.Errorf("partial: assignment has %d middles for %d flows", len(ma), e.nf)
	}
	if fixedFrom < 0 || fixedFrom > e.nf {
		return fmt.Errorf("partial: fixedFrom %d out of range [0, %d]", fixedFrom, e.nf)
	}
	for fi := fixedFrom; fi < e.nf; fi++ {
		if m := ma[fi]; m < 1 || m > e.n {
			return fmt.Errorf("partial: flow %d: middle %d out of range [1, %d]", fi, m, e.n)
		}
	}
	copy(e.lanes, e.freeLanes[:fixedFrom])
	for fi := fixedFrom; fi < e.nf; fi++ {
		e.lanes[fi] = e.fixedLanes[fi][ma[fi]-1]
	}
	return nil
}

// fill64 runs the kernel over the lanes setLanes prepared, leaving the
// rates in e.rates (and, when sorted is non-nil, ascending in sorted).
func (e *PartialEvaluator) fill64(fixedFrom int, sorted []rational.Rat64) (bool, error) {
	forced := partialTestOverflow != nil && partialTestOverflow(fixedFrom)
	return e.fill.run(e.lanes, e.caps64, e.rates, sorted, forced)
}

// boundBig is the exact progressive filling of the state setLanes
// prepared, on *big.Rat over every lane in ascending order: the
// promotion target of the kernel and the oracle of the differential
// tests. It mirrors Evaluator.evalBig and shares the kernel's act and
// frozen scratch, leaving act zeroed as the kernel expects.
func (e *PartialEvaluator) boundBig() (Allocation, error) {
	if e.caps == nil {
		e.initBig()
	}
	act, frozen := e.fill.act, e.fill.frozen
	defer clear(act)
	for _, lanes := range e.lanes {
		for _, j := range lanes {
			act[j]++
		}
	}
	clear(frozen)
	for j, c := range e.caps {
		e.remaining[j].Set(c)
	}
	rates := make(rational.Vec, e.nf)
	level := e.level.SetInt64(0)
	remainingFlows := e.nf
	for remainingFlows > 0 {
		minID := -1
		for id, a := range act {
			if a == 0 {
				continue
			}
			if minID < 0 {
				minID = id
				continue
			}
			e.aInt.SetInt64(int64(act[minID]))
			e.bInt.SetInt64(int64(a))
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
		e.actRat.SetInt64(int64(act[minID]))
		e.delta.Quo(e.remaining[minID], e.actRat)

		level.Add(level, e.delta)
		for id, a := range act {
			if a == 0 {
				continue
			}
			e.actRat.SetInt64(int64(a))
			e.tmp.Mul(e.delta, e.actRat)
			e.remaining[id].Sub(e.remaining[id], e.tmp)
		}

		progressed := false
		for id, a := range act {
			if a == 0 || e.remaining[id].Sign() != 0 {
				continue
			}
			for fi, lanes := range e.lanes {
				if frozen[fi] || !laneOnPath(lanes, int32(id)) {
					continue
				}
				frozen[fi] = true
				rates[fi] = rational.Copy(level)
				remainingFlows--
				progressed = true
				for _, l := range lanes {
					act[l]--
				}
			}
		}
		if !progressed {
			return nil, errors.New("partial: no progress (internal invariant violated)")
		}
	}
	return rates, nil
}

// initBig builds the *big.Rat scratch of boundBig: the real link
// capacities, the pooled trunk capacities summed exactly, and the
// remaining-capacity and arithmetic temporaries.
func (e *PartialEvaluator) initBig() {
	nReal := len(e.links)
	e.caps = make([]*big.Rat, nReal+len(e.pools))
	e.remaining = make([]*big.Rat, len(e.caps))
	for _, l := range e.links {
		e.caps[l.ID] = l.Capacity
	}
	for t, ids := range e.pools {
		pooled := new(big.Rat)
		for _, id := range ids {
			pooled.Add(pooled, e.links[id].Capacity)
		}
		e.caps[nReal+t] = pooled
	}
	for j := range e.remaining {
		e.remaining[j] = new(big.Rat)
	}
	e.actRat, e.delta, e.tmp, e.level = new(big.Rat), new(big.Rat), new(big.Rat), new(big.Rat)
	e.xInt, e.yInt = new(big.Int), new(big.Int)
	e.aInt, e.bInt = new(big.Int), new(big.Int)
}
