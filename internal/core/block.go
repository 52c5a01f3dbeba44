package core

import (
	"errors"
	"fmt"

	"closnet/internal/obs"
	"closnet/internal/rational"
	"closnet/internal/topology"
)

// errNoProgress mirrors the internal-invariant error of the per-state
// paths: a filling round that saturates no link and freezes no flow.
var errNoProgress = errors.New("waterfill: no progress (internal invariant violated)")

// BlockEvaluator water-fills a block of k middle assignments per call
// over structure-of-arrays scratch, amortizing the per-state overhead
// the one-at-a-time Evaluator pays on every Eval: AoS link structs,
// flows-on-link list rebuilding, and the per-call promotion regime
// check. The search engine hands it rank-contiguous blocks of canonical
// assignments (see internal/search/engine.go); the serving layer shares
// one prepared instance across /v1/batch items with a common topology
// hash (see internal/engine).
//
// Layout. Finite links are re-indexed densely in ascending LinkID order
// — "lanes" 0..nfin-1 — so the per-link state of the water filling is
// three contiguous arrays: a capacity lane seeded from Link.Capacity64
// at construction, and remaining/active lanes reused across states.
// Each flow's candidate paths are pre-resolved to lane index lists, so
// a state registers by bumping ~|path| counters instead of walking
// links. Only the lanes a state actually touches are seeded, swept and
// cleared (the touched list, kept in ascending lane order), which makes
// the fill cost proportional to the contended sub-network rather than
// the full link count. Rates are written to a k×|F| Rat64 lane, one row
// per state, so a whole block produces no allocations on the fast path.
//
// Promotion protocol. The fast pass attempts every state on the Rat64
// kernel and records the ones that overflow; a single per-block check
// then re-runs exactly those states on the embedded Evaluator's big.Rat
// path. A promoted state computes on the Evaluator's own scratch and
// every fast state re-seeds its lanes from the capacity lane, so a
// mid-block promotion cannot poison the remaining states (asserted by
// the scratch-reuse tests). ForceBig pins the whole block to big.Rat,
// the differential-test oracle.
//
// Bit identity. EvalBlock(mas, k) produces, state by state, exactly the
// allocation Eval (and ClosMaxMinFair) produce: the touched-lane sweep
// visits lanes in ascending LinkID order — the finiteIDs order of the
// per-state evaluator, restricted to the lanes with non-zero active
// count, which are the only ones either scan reads — so the min-delta
// tie-break picks the same bottleneck link, flows freeze in the same
// ascending-index order at the same exact Rat64 levels, and promotions
// are lossless re-runs of the identical algorithm.
//
// A BlockEvaluator is NOT safe for concurrent use.
type BlockEvaluator struct {
	ev   *Evaluator // path validation at construction + the big.Rat promotion path
	nf   int
	n    int
	nfin int
	fast bool

	// finPaths[fi][m-1] lists the finite-link lanes of flow fi's path
	// via middle m (path order; lane values are ascending-LinkID dense
	// indices).
	finPaths [][][]int32
	// caps is the capacity lane: caps[j] is the Capacity64 of lane j.
	caps []rational.Rat64

	// Per-state scratch, reused across the states of a block (states
	// fill sequentially, so one lane set serves them all): the kernel's
	// lanes and the per-flow lane lists of the state being filled.
	fill  laneFill
	lanes [][]int32

	// Per-block outputs: the k×nf rate lane of the fast path, the
	// promotion mask, and the materialized allocations of promoted
	// states.
	rates     []rational.Rat64
	promoted  []bool
	bigAllocs []Allocation
	res       BlockResult

	forceBig   bool
	promotions int

	// testOverflow, when non-nil, forces the fast fill of the given
	// block state to report overflow mid-fill (after registration, with
	// the active lane populated) — the package-internal hook the
	// promotion-protocol tests use, since unit-capacity instances never
	// overflow naturally.
	testOverflow func(state int) bool

	cFills      *obs.Counter
	cPromotions *obs.Counter
	gSize       *obs.Gauge
	jour        *obs.Journal
}

// NewBlockEvaluator prepares repeated block evaluations of fs over c.
// It fails if any flow endpoint is not a server of c.
func NewBlockEvaluator(c topology.Fabric, fs Collection) (*BlockEvaluator, error) {
	ev, err := NewEvaluator(c, fs)
	if err != nil {
		return nil, err
	}
	b := &BlockEvaluator{ev: ev, nf: ev.nf, n: ev.n, nfin: len(ev.finiteIDs), fast: ev.fast}
	denseOf := make([]int32, len(ev.finite))
	for i := range denseOf {
		denseOf[i] = -1
	}
	b.caps = make([]rational.Rat64, b.nfin)
	for j, id := range ev.finiteIDs {
		denseOf[id] = int32(j)
		b.caps[j] = ev.caps64[id]
	}
	// The lane lists are carved out of shared backing arrays sized for
	// four-hop (Clos) paths. Longer paths make append move lanes to a
	// larger array; lists already carved keep pointing into the old one,
	// which stays valid, and the capped slices never append into each
	// other.
	b.finPaths = make([][][]int32, b.nf)
	rows := make([][]int32, b.nf*b.n)
	lanes := make([]int32, 0, 4*b.nf*b.n)
	for fi := 0; fi < b.nf; fi++ {
		b.finPaths[fi] = rows[fi*b.n : (fi+1)*b.n : (fi+1)*b.n]
		for m := 0; m < b.n; m++ {
			start := len(lanes)
			for _, l := range ev.paths[fi][m] {
				if j := denseOf[l]; j >= 0 {
					lanes = append(lanes, j)
				}
			}
			b.finPaths[fi][m] = lanes[start:len(lanes):len(lanes)]
		}
	}
	b.fill = newLaneFill(b.nfin, b.nf)
	b.lanes = make([][]int32, b.nf)
	return b, nil
}

// ForceBig pins EvalBlock to the *big.Rat path when on is true,
// bypassing the Rat64 lanes. The results are identical; it exists for
// differential tests and benchmarks.
func (b *BlockEvaluator) ForceBig(on bool) { b.forceBig = on }

// Promotions returns the number of states so far whose fast fill
// overflowed the Rat64 kernel and was transparently re-run on *big.Rat
// (ForceBig blocks do not count: they never attempt the kernel).
func (b *BlockEvaluator) Promotions() int { return b.promotions }

// Instrument attaches the observability layer: core.block_fills counts
// EvalBlock calls, core.block_promotions counts overflow promotions,
// and the core.block_size gauge tracks the last block's state count.
// Counters are registered by name, so instrumented evaluators sharing a
// registry (one per search worker) accumulate into shared metrics. A
// nil o leaves the evaluator uninstrumented at zero hot-path cost.
func (b *BlockEvaluator) Instrument(o *obs.Obs) {
	reg := o.Registry()
	b.cFills = reg.Counter("core.block_fills")
	b.cPromotions = reg.Counter("core.block_promotions")
	b.gSize = reg.Gauge("core.block_size")
	b.jour = o.Journal()
}

// EvalBlock computes the max-min fair allocations of k middle
// assignments packed state-major into mas (len(mas) = k·|F|; state s is
// mas[s·|F| : (s+1)·|F|]). The returned result aliases the evaluator's
// scratch and is valid until the next EvalBlock call; mas is only read.
// Allocations retained past the block must be materialized with
// BlockResult.Alloc.
func (b *BlockEvaluator) EvalBlock(mas []int, k int) (*BlockResult, error) {
	if k < 0 || len(mas) != k*b.nf {
		return nil, fmt.Errorf("block evaluator: %d assignment entries for %d states of %d flows", len(mas), k, b.nf)
	}
	for i, m := range mas {
		if m < 1 || m > b.n {
			return nil, fmt.Errorf("block evaluator: state %d flow %d: middle %d out of range [1, %d]", i/b.nf, i%b.nf, m, b.n)
		}
	}
	b.ensure(k)
	b.cFills.Inc()
	b.gSize.Set(int64(k))

	overflowed := 0
	if b.fast && !b.forceBig {
		for s := 0; s < k; s++ {
			ok, err := b.fillState(s, mas[s*b.nf:(s+1)*b.nf])
			if err != nil {
				return nil, err
			}
			b.promoted[s] = !ok
			if !ok {
				overflowed++
			}
		}
		if overflowed > 0 {
			b.promotions += overflowed
			b.cPromotions.Add(int64(overflowed))
			b.jour.Emit("core.block_promotion", obs.F{"states": overflowed, "promotions": b.promotions})
		}
	} else {
		for s := 0; s < k; s++ {
			b.promoted[s] = true
		}
		overflowed = k
	}
	// The single per-block promotion check: only the states whose fast
	// fill overflowed (or every state, under ForceBig or a non-Rat64
	// capacity) re-run on the big.Rat path.
	if overflowed > 0 {
		for s := 0; s < k; s++ {
			if !b.promoted[s] {
				continue
			}
			a, err := b.ev.evalBig(MiddleAssignment(mas[s*b.nf : (s+1)*b.nf]))
			if err != nil {
				return nil, err
			}
			b.bigAllocs[s] = a
		}
	}
	b.res = BlockResult{be: b, k: k}
	return &b.res, nil
}

// ensure sizes the per-block output lanes for k states. Scratch only
// grows, so steady-state blocks of one size never reallocate.
func (b *BlockEvaluator) ensure(k int) {
	if n := k * b.nf; cap(b.rates) >= n {
		b.rates = b.rates[:n]
	} else {
		b.rates = make([]rational.Rat64, n)
	}
	if cap(b.promoted) >= k {
		b.promoted = b.promoted[:k]
	} else {
		b.promoted = make([]bool, k)
	}
	if cap(b.bigAllocs) >= k {
		b.bigAllocs = b.bigAllocs[:k]
	} else {
		b.bigAllocs = make([]Allocation, k)
	}
}

// fillState runs the fast fill of one state over its full paths.
func (b *BlockEvaluator) fillState(s int, ma []int) (bool, error) {
	for fi, m := range ma {
		b.lanes[fi] = b.finPaths[fi][m-1]
	}
	forced := b.testOverflow != nil && b.testOverflow(s)
	return b.fill.run(b.lanes, b.caps, b.rates[s*b.nf:(s+1)*b.nf], nil, forced)
}

// laneFill is the scratch of the one small-word water-filling kernel
// (fill), indexed by lane (remN, act) and by flow (frozen). The block
// evaluator runs it over each state's full paths, the partial evaluator
// over trunk-relaxed lane lists; both keep one laneFill for all their
// fills. Only touched entries are ever read or written. remN[j] is lane
// j's remaining capacity as an integer numerator over the fill's single
// shared denominator — the SoA trick that keeps the hot loop in raw
// int64 arithmetic with no per-op gcd normalization.
type laneFill struct {
	remN    []int64
	act     []int32
	frozen  []bool
	touched []int32
}

func newLaneFill(nLanes, nf int) laneFill {
	return laneFill{
		remN:    make([]int64, nLanes),
		act:     make([]int32, nLanes),
		frozen:  make([]bool, nf),
		touched: make([]int32, 0, nLanes),
	}
}

// run fills one state and unconditionally clears the touched
// active-lane entries afterwards, so the next state's registration
// starts from zero even when the fill bailed out mid-round (overflow,
// unbounded flow, forced test overflow).
func (f *laneFill) run(lanes [][]int32, caps, rates, sorted []rational.Rat64, forceOverflow bool) (bool, error) {
	ok, err := f.fill(lanes, caps, rates, sorted, forceOverflow)
	for _, j := range f.touched {
		f.act[j] = 0
	}
	return ok, err
}

// fill is the small-word progressive filling of one state: flow fi
// occupies the lanes lanes[fi], lane j has capacity caps[j], and flow
// fi's rate goes to rates[fi]. When sorted is non-nil it also receives
// the rates in freeze order, which is ascending: flows freeze at
// nondecreasing levels. The fill is restricted to the touched lanes and
// computes the exact values of the gcd-normalizing Rat64 fill
// (Evaluator.eval64) in cheaper arithmetic: every remaining capacity is
// an integer numerator over one shared denominator den, so a round is
// cross-multiplied integer compares (min delta: remN[j]/act against the
// incumbent), one scale pass (den multiplies by the bottleneck's active
// count) and integer subtractions — no division and no gcd
// normalization anywhere in the loop. den grows only by the product of
// the bottleneck counts (bounded by 3^(|F|/3), tiny), and a flow's rate
// canonicalizes the exact level levelN/den once at freeze.
//
// The values agree exactly with eval64's: the scaled comparisons order
// deltas identically (operands are non-negative, the < is strict, the
// scan ascends the same lane order), a lane's numerator hits zero iff
// its exact remainder does, flows freeze in the same ascending index
// order, and rational.Make64(levelN, den) is the canonical form of the
// same exact level — so rates are bit-identical (asserted by the
// equivalence tests and the differential fuzz). The first result is
// false when an operation overflowed int64, or at once after
// registration when forceOverflow is set (the test hook); the caller
// then re-runs the state on its big.Rat path, losslessly.
func (f *laneFill) fill(lanes [][]int32, caps, rates, sorted []rational.Rat64, forceOverflow bool) (bool, error) {
	// Register: bump the active count of every lane of every flow,
	// collecting each lane the first time it is touched. The insertion
	// sort keeps the touched list in ascending lane order — the
	// finiteIDs order of the per-state evaluator — so every sweep below
	// visits lanes exactly as eval64 visits links.
	f.touched = f.touched[:0]
	for _, path := range lanes {
		for _, j := range path {
			if f.act[j] == 0 {
				f.touched = append(f.touched, j)
			}
			f.act[j]++
		}
	}
	for i := 1; i < len(f.touched); i++ {
		for t := i; t > 0 && f.touched[t] < f.touched[t-1]; t-- {
			f.touched[t], f.touched[t-1] = f.touched[t-1], f.touched[t]
		}
	}
	// Seed the shared denominator (the lcm of the touched capacities'
	// denominators — 1 on unit-capacity networks) and the numerator
	// lanes. All quantities in the fill are non-negative.
	for fi := range f.frozen {
		f.frozen[fi] = false
	}
	if forceOverflow {
		return false, nil
	}
	den := int64(1)
	for _, j := range f.touched {
		q := caps[j].Den()
		g := gcdInt64(den, q)
		var ok bool
		if den, ok = mulNonNeg(den/g, q); !ok {
			return false, nil
		}
	}
	for _, j := range f.touched {
		r, ok := mulNonNeg(caps[j].Num(), den/caps[j].Den())
		if !ok {
			return false, nil
		}
		f.remN[j] = r
	}

	nf := len(lanes)
	levelN := int64(0) // the water level is the exact rational levelN/den
	remaining := nf
	for remaining > 0 {
		// Min-delta scan: delta_j = remN[j]/(den·act[j]); the shared den
		// cancels, so remN[j]/act[j] < minR/minA cross-multiplies to
		// remN[j]·minA < minR·act[j]. Same ordering and strict-< ties
		// (earlier lane wins) as eval64's scan over finiteIDs, which
		// skips the same zero-active lanes.
		minJ := int32(-1)
		var minR, minA int64
		for _, j := range f.touched {
			a := int64(f.act[j])
			if a == 0 {
				continue
			}
			if minJ < 0 {
				minJ, minR, minA = j, f.remN[j], a
				continue
			}
			lhs, ok1 := mulNonNeg(f.remN[j], minA)
			rhs, ok2 := mulNonNeg(minR, a)
			if !ok1 || !ok2 {
				return false, nil
			}
			if lhs < rhs {
				minJ, minR, minA = j, f.remN[j], a
			}
		}
		if minJ < 0 {
			return false, ErrUnboundedFlow
		}
		// Advance the level by delta = minR/(den·minA): rescale the fill
		// to the new shared denominator den·minA, under which delta's
		// numerator is minR and lane j consumes act[j]·minR.
		if minA > 1 {
			var ok bool
			if den, ok = mulNonNeg(den, minA); !ok {
				return false, nil
			}
			if levelN, ok = mulNonNeg(levelN, minA); !ok {
				return false, nil
			}
			for _, j := range f.touched {
				if f.act[j] == 0 {
					continue
				}
				r, ok := mulNonNeg(f.remN[j], minA)
				if !ok {
					return false, nil
				}
				f.remN[j] = r
			}
		}
		if levelN > maxInt64-minR {
			return false, nil
		}
		levelN += minR
		for _, j := range f.touched {
			a := int64(f.act[j])
			if a == 0 {
				continue
			}
			used, ok := mulNonNeg(a, minR)
			if !ok {
				return false, nil
			}
			f.remN[j] -= used // ≥ 0: delta is the minimum over active lanes
		}
		progressed := false
		for _, j := range f.touched {
			if f.act[j] == 0 || f.remN[j] != 0 {
				continue
			}
			// Freeze every unfrozen flow crossing the saturated lane, in
			// ascending flow index — the order of eval64's on-lists,
			// which are built by an ascending flow walk.
			for fi := 0; fi < nf; fi++ {
				if f.frozen[fi] || !laneOnPath(lanes[fi], j) {
					continue
				}
				f.frozen[fi] = true
				level, ok := rational.Make64(levelN, den)
				if !ok {
					return false, nil
				}
				rates[fi] = level
				if sorted != nil {
					sorted[nf-remaining] = level
				}
				remaining--
				progressed = true
				for _, l := range lanes[fi] {
					f.act[l]--
				}
			}
		}
		if !progressed {
			return false, errNoProgress
		}
	}
	return true, nil
}

// maxInt64 avoids importing math for one constant.
const maxInt64 = int64(^uint64(0) >> 1)

// mulNonNeg is the overflow-checked product of two non-negative int64s.
func mulNonNeg(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	if a > maxInt64/b {
		return 0, false
	}
	return a * b, true
}

// gcdInt64 is Euclid's gcd for a ≥ 0, b > 0.
func gcdInt64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func laneOnPath(path []int32, j int32) bool {
	for _, l := range path {
		if l == j {
			return true
		}
	}
	return false
}

// BlockResult is the outcome of one EvalBlock call. It aliases the
// evaluator's scratch: accessors are valid until the next EvalBlock on
// the same evaluator.
type BlockResult struct {
	be *BlockEvaluator
	k  int
}

// Len returns the number of states in the block.
func (r *BlockResult) Len() int { return r.k }

// Promoted reports whether state s was computed on the big.Rat path.
func (r *BlockResult) Promoted(s int) bool { return r.be.promoted[s] }

// Rates64 returns state s's rate lane in flow order. It is only valid
// when !Promoted(s), must not be mutated, and is overwritten by the
// next EvalBlock. The search objectives screen candidates on this lane
// without materializing allocations.
func (r *BlockResult) Rates64(s int) []rational.Rat64 {
	return r.be.rates[s*r.be.nf : (s+1)*r.be.nf]
}

// Alloc materializes state s's allocation as a fresh, retainable
// vector, identical to what Evaluator.Eval returns for the same state.
func (r *BlockResult) Alloc(s int) Allocation {
	if r.be.promoted[s] {
		return r.be.bigAllocs[s]
	}
	lane := r.Rates64(s)
	a := make(Allocation, len(lane))
	for i, v := range lane {
		a[i] = v.Rat()
	}
	return a
}
