package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"closnet/internal/core"
	"closnet/internal/gen"
	"closnet/internal/obs"
	"closnet/internal/search"
	"closnet/internal/topology"
)

// familyInstances builds seeded flow sets over every internal/gen
// family — Clos, oversubscribed Clos, fat-tree and Benes — plus the
// contended C_3 collection of the core tests.
func familyInstances(t *testing.T) []struct {
	name string
	c    topology.Fabric
	fs   core.Collection
} {
	t.Helper()
	c3 := topology.MustClos(3)
	out := []struct {
		name string
		c    topology.Fabric
		fs   core.Collection
	}{{"c3-contended", c3, core.Collection{}.
		Add(c3.Source(1, 1), c3.Dest(1, 1), 1).
		Add(c3.Source(1, 2), c3.Dest(2, 1), 1).
		Add(c3.Source(2, 1), c3.Dest(1, 2), 1).
		Add(c3.Source(2, 2), c3.Dest(2, 2), 1)}}
	specs := []func() (gen.Spec, error){
		func() (gen.Spec, error) { return gen.ClosSpec(4) },
		func() (gen.Spec, error) { return gen.OversubscribedClosSpec(4, 3, 3, 2) },
		func() (gen.Spec, error) { return gen.FatTreeSpec(4) },
		func() (gen.Spec, error) { return gen.BenesSpec(8) },
	}
	for _, mk := range specs {
		sp, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 6; seed++ {
			model := gen.Models()[seed%3]
			s, err := gen.Scenario(sp, gen.TrafficConfig{Model: model, Flows: 3 + int(seed), Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			c, fs, _, _, err := s.Build()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, struct {
				name string
				c    topology.Fabric
				fs   core.Collection
			}{s.Name, c, fs})
		}
	}
	return out
}

// TestPartialBound64MatchesBig: the shared int64 kernel and the pinned
// big.Rat path must agree exactly at every depth, on every gen family —
// the differential that keeps the overflow-promotion seam honest — and
// BoundSorted must return exactly the sorted kernel vector. Small
// depths (the whole C_3 instance) are walked exhaustively.
func TestPartialBound64MatchesBig(t *testing.T) {
	for _, in := range familyInstances(t) {
		fast, err := core.NewPartialEvaluator(in.c, in.fs)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		slow, err := core.NewPartialEvaluator(in.c, in.fs)
		if err != nil {
			t.Fatal(err)
		}
		slow.ForceBig(true)
		if _, ok, err := slow.BoundSorted(make(core.MiddleAssignment, len(in.fs)), len(in.fs)); ok || err != nil {
			t.Fatalf("%s: BoundSorted under ForceBig: ok=%v err=%v", in.name, ok, err)
		}
		rng := rand.New(rand.NewSource(int64(len(in.fs))))
		nf := len(in.fs)
		ma := make(core.MiddleAssignment, nf)
		for fixedFrom := 0; fixedFrom <= nf; fixedFrom++ {
			for _, suffix := range suffixes(rng, in.c.Size(), nf-fixedFrom) {
				copy(ma[fixedFrom:], suffix)
				a, err := fast.Bound(ma, fixedFrom)
				if err != nil {
					t.Fatal(err)
				}
				b, err := slow.Bound(ma, fixedFrom)
				if err != nil {
					t.Fatal(err)
				}
				if !a.Equal(b) {
					t.Fatalf("%s fixedFrom=%d ma=%v: kernel %v != big %v", in.name, fixedFrom, ma, a, b)
				}
				sorted, ok, err := fast.BoundSorted(ma, fixedFrom)
				if err != nil || !ok {
					t.Fatalf("%s: BoundSorted ok=%v err=%v", in.name, ok, err)
				}
				for i, want := range b.SortedCopy() {
					if sorted[i].CmpRat(want) != 0 {
						t.Fatalf("%s fixedFrom=%d ma=%v: BoundSorted %v != sorted %v", in.name, fixedFrom, ma, sorted, b.SortedCopy())
					}
				}
			}
		}
	}
}

// suffixes lists every assignment of k flows to n choices when there
// are at most 256 of them, and 24 seeded draws otherwise.
func suffixes(rng *rand.Rand, n, k int) [][]int {
	total := 1
	for i := 0; i < k && total <= 256; i++ {
		total *= n
	}
	if total > 256 {
		out := make([][]int, 24)
		for r := range out {
			out[r] = make([]int, k)
			for i := range out[r] {
				out[r][i] = 1 + rng.Intn(n)
			}
		}
		return out
	}
	out := make([][]int, total)
	for r := range out {
		out[r] = make([]int, k)
		for i, x := 0, r; i < k; i, x = i+1, x/n {
			out[r][i] = 1 + x%n
		}
	}
	return out
}

// searchLexInstance is one request of the search-lex benchmark shape: a
// seeded uniform 10-flow scenario on C_4.
func searchLexInstance(t testing.TB, seed int64) (topology.Fabric, core.Collection) {
	t.Helper()
	sp, err := gen.ClosSpec(4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := gen.Scenario(sp, gen.TrafficConfig{Model: gen.ModelUniform, Flows: 10, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	c, fs, _, _, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c, fs
}

// TestPartialAllocations pins the allocation cost of the pruned lex
// search's bound path on the search-lex shape: a BoundSorted call
// allocates only the vector it returns, and construction stays within
// a budget of 100 allocations (67 measured), most of them the 40
// candidate paths.
func TestPartialAllocations(t *testing.T) {
	c, fs := searchLexInstance(t, 7)
	pe, err := core.NewPartialEvaluator(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	ma := core.UniformAssignment(len(fs), 2)
	for _, fixedFrom := range []int{0, len(fs) / 2, len(fs)} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, ok, err := pe.BoundSorted(ma, fixedFrom); !ok || err != nil {
				t.Fatalf("BoundSorted: ok=%v err=%v", ok, err)
			}
		})
		if allocs > 1 {
			t.Errorf("BoundSorted at fixedFrom=%d made %.1f allocations, want at most 1", fixedFrom, allocs)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := core.NewPartialEvaluator(c, fs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100 {
		t.Errorf("NewPartialEvaluator made %.0f allocations, want at most 100", allocs)
	}
}

// TestPrunedLexPromotionInvisible forces the partial evaluator's kernel
// to overflow on every bound with an odd fixedFrom: each such bound is
// recomputed on big.Rat and counted in core.partial_promotions, and the
// pruned search returns exactly the unforced result — same assignment,
// same rates, same States.
func TestPrunedLexPromotionInvisible(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		c, fs := searchLexInstance(t, seed)
		want, err := search.LexMaxMin(c, fs, search.Options{Pruned: true})
		if err != nil {
			t.Fatal(err)
		}
		forced := int64(0)
		core.SetPartialTestOverflow(func(fixedFrom int) bool {
			if fixedFrom%2 == 1 {
				forced++
				return true
			}
			return false
		})
		reg := obs.NewRegistry()
		got, err := search.LexMaxMin(c, fs, search.Options{Pruned: true, Obs: &obs.Obs{Reg: reg}})
		core.SetPartialTestOverflow(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Assignment, want.Assignment) || !got.Allocation.Equal(want.Allocation) || got.States != want.States {
			t.Fatalf("seed %d: forced promotions changed the result:\n%v %v %d\n%v %v %d",
				seed, got.Assignment, got.Allocation, got.States, want.Assignment, want.Allocation, want.States)
		}
		// A forced bound overflows in BoundSorted and again in the Bound
		// that redoes it, which counts the one promotion.
		if n := reg.Snapshot().Counters["core.partial_promotions"]; forced == 0 || n != forced/2 {
			t.Errorf("seed %d: core.partial_promotions = %d, want %d", seed, n, forced/2)
		}
	}
}
