package core

import (
	"testing"

	"closnet/internal/obs"
	"closnet/internal/rational"
	"closnet/internal/topology"
)

// partialCollection is a contended C_3 instance: ToR pairs colliding at
// the fabric, so partial bounds actually depend on which flows are
// fixed where.
func partialCollection(c *topology.Clos) Collection {
	return Collection{}.
		Add(c.Source(1, 1), c.Dest(1, 1), 1).
		Add(c.Source(1, 2), c.Dest(2, 1), 1).
		Add(c.Source(2, 1), c.Dest(1, 2), 1).
		Add(c.Source(2, 2), c.Dest(2, 2), 1)
}

// forEachAssignment enumerates all n^k values of positions [from, from+k)
// of ma (the other positions are left untouched) and calls fn per state.
func forEachAssignment(ma MiddleAssignment, from, k, n int, fn func()) {
	if k == 0 {
		fn()
		return
	}
	for v := 1; v <= n; v++ {
		ma[from] = v
		forEachAssignment(ma, from+1, k-1, n, fn)
	}
}

// TestPartialBoundLeafExact: with every flow fixed the trunk constraints
// are implied by the real per-middle links, so Bound must equal the
// exact evaluation — same rationals — on every full assignment.
func TestPartialBoundLeafExact(t *testing.T) {
	c := topology.MustClos(3)
	fs := partialCollection(c)
	pe, err := NewPartialEvaluator(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	ma := make(MiddleAssignment, len(fs))
	forEachAssignment(ma, 0, len(fs), c.Size(), func() {
		exact, err := ev.Eval(ma)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := pe.Bound(ma, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bound.Equal(exact) {
			t.Fatalf("ma=%v: leaf bound %v != exact %v", ma, bound, exact)
		}
	})
}

// TestPartialBoundAdmissible is the correctness core of the pruned
// search: for every fixed suffix at every depth, the trunk-relaxation
// bound must lex-dominate (sorted order, Definition 2.4) the exact
// max-min fair vector of EVERY completion. A single violation would let
// the branch-and-bound prune the true optimum.
func TestPartialBoundAdmissible(t *testing.T) {
	for _, tc := range []struct {
		n  int
		fs func(*topology.Clos) Collection
	}{
		{3, partialCollection},
		{4, func(c *topology.Clos) Collection {
			return partialCollection(c).Add(c.Source(3, 1), c.Dest(1, 1), 1)
		}},
	} {
		c := topology.MustClos(tc.n)
		fs := tc.fs(c)
		pe, err := NewPartialEvaluator(c, fs)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := NewEvaluator(c, fs)
		if err != nil {
			t.Fatal(err)
		}
		nf := len(fs)
		ma := make(MiddleAssignment, nf)
		for fixedFrom := 0; fixedFrom <= nf; fixedFrom++ {
			forEachAssignment(ma, fixedFrom, nf-fixedFrom, tc.n, func() {
				bound, err := pe.Bound(ma, fixedFrom)
				if err != nil {
					t.Fatal(err)
				}
				forEachAssignment(ma, 0, fixedFrom, tc.n, func() {
					exact, err := ev.Eval(ma)
					if err != nil {
						t.Fatal(err)
					}
					if rational.LexCompareSorted(rational.Vec(bound), rational.Vec(exact)) < 0 {
						t.Fatalf("n=%d fixedFrom=%d ma=%v: bound %v below completion %v",
							tc.n, fixedFrom, ma, bound.SortedCopy(), exact.SortedCopy())
					}
				})
			})
		}
	}
}

// TestPartialMidFillPromotion drives the overflow fallback through the
// test hook: a kernel fill forced to overflow after registration must
// leave Bound's result unchanged (redone on big.Rat), make BoundSorted
// report !ok, count one core.partial_promotions per promoted Bound, and
// leave the kernel's scratch clean for the unforced calls in between.
func TestPartialMidFillPromotion(t *testing.T) {
	c := topology.MustClos(3)
	fs := partialCollection(c)
	ref, err := NewPartialEvaluator(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := NewPartialEvaluator(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	pe.Instrument(&obs.Obs{Reg: reg})
	forced := false
	partialTestOverflow = func(int) bool { return forced }
	defer func() { partialTestOverflow = nil }()
	nf, promoted := len(fs), int64(0)
	ma := make(MiddleAssignment, nf)
	for fixedFrom := 0; fixedFrom <= nf; fixedFrom++ {
		forEachAssignment(ma, fixedFrom, nf-fixedFrom, c.Size(), func() {
			forced = false
			want, err := ref.Bound(ma, fixedFrom)
			if err != nil {
				t.Fatal(err)
			}
			forced = (promoted+int64(fixedFrom))%2 == 0
			got, err := pe.Bound(ma, fixedFrom)
			if err != nil {
				t.Fatal(err)
			}
			if forced {
				promoted++
			}
			if !got.Equal(want) {
				t.Fatalf("fixedFrom=%d ma=%v forced=%v: %v != %v", fixedFrom, ma, forced, got, want)
			}
			if _, ok, err := pe.BoundSorted(ma, fixedFrom); err != nil || ok == forced {
				t.Fatalf("fixedFrom=%d ma=%v forced=%v: BoundSorted ok=%v err=%v", fixedFrom, ma, forced, ok, err)
			}
		})
	}
	if got := reg.Snapshot().Counters["core.partial_promotions"]; promoted == 0 || got != promoted {
		t.Errorf("core.partial_promotions = %d, want %d", got, promoted)
	}
}

func TestPartialBoundErrors(t *testing.T) {
	c := topology.MustClos(2)
	fs := partialCollection(topology.MustClos(2))
	if _, err := NewPartialEvaluator(c, Collection{{Src: c.Input(1), Dst: c.Dest(1, 1)}}); err == nil {
		t.Error("non-server source accepted")
	}
	pe, err := NewPartialEvaluator(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pe.Bound(make(MiddleAssignment, 1), 0); err == nil {
		t.Error("short assignment accepted")
	}
	ma := make(MiddleAssignment, len(fs))
	if _, err := pe.Bound(ma, -1); err == nil {
		t.Error("negative fixedFrom accepted")
	}
	if _, err := pe.Bound(ma, len(fs)+1); err == nil {
		t.Error("fixedFrom beyond the flow count accepted")
	}
	if _, err := pe.Bound(ma, 0); err == nil {
		t.Error("fixed middle 0 accepted")
	}
	ma[len(ma)-1] = c.Size() + 1
	if _, err := pe.Bound(ma, len(ma)-1); err == nil {
		t.Error("fixed middle beyond n accepted")
	}
}

// FuzzPartialBoundAdmissible drives the trunk relaxation with arbitrary
// byte-encoded C_2 instances: at every depth the bound must dominate
// all completions, equal the exact evaluation at the leaves, agree
// between the Rat64 and big.Rat paths, and come back from BoundSorted
// as exactly the sorted Bound vector.
func FuzzPartialBoundAdmissible(f *testing.F) {
	f.Add([]byte{0, 0, 0}, uint8(0))
	f.Add([]byte{1, 2, 1, 3, 4, 0, 5, 6, 1}, uint8(1))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, uint8(3))

	f.Fuzz(func(t *testing.T, data []byte, from uint8) {
		c := topology.MustClos(2)
		fs := Collection{}
		var ma MiddleAssignment
		for i := 0; i+2 < len(data) && len(fs) < 6; i += 3 {
			si := int(data[i]%4) + 1
			sj := int(data[i]%2) + 1
			di := int(data[i+1]%4) + 1
			dj := int(data[i+1]%2) + 1
			fs = fs.Add(c.Source(si, sj), c.Dest(di, dj), 1)
			ma = append(ma, int(data[i+2]%2)+1)
		}
		if len(fs) == 0 {
			return
		}
		fixedFrom := int(from) % (len(fs) + 1)
		pe, err := NewPartialEvaluator(c, fs)
		if err != nil {
			t.Fatalf("new: %v", err)
		}
		big := func() *PartialEvaluator {
			e, err := NewPartialEvaluator(c, fs)
			if err != nil {
				t.Fatal(err)
			}
			e.ForceBig(true)
			return e
		}()
		ev, err := NewEvaluator(c, fs)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := pe.Bound(ma, fixedFrom)
		if err != nil {
			t.Fatalf("bound: %v", err)
		}
		bigBound, err := big.Bound(ma, fixedFrom)
		if err != nil {
			t.Fatalf("big bound: %v", err)
		}
		if !bound.Equal(bigBound) {
			t.Fatalf("fast %v != big %v", bound, bigBound)
		}
		sorted, ok, err := pe.BoundSorted(ma, fixedFrom)
		if err != nil || !ok {
			t.Fatalf("BoundSorted: ok=%v err=%v", ok, err)
		}
		if want := bound.SortedCopy(); len(sorted) != len(want) {
			t.Fatalf("BoundSorted %v != sorted bound %v", sorted, want)
		} else {
			for i, v := range sorted {
				if v.CmpRat(want[i]) != 0 {
					t.Fatalf("BoundSorted %v != sorted bound %v", sorted, want)
				}
			}
		}
		forEachAssignment(ma, 0, fixedFrom, c.Size(), func() {
			exact, err := ev.Eval(ma)
			if err != nil {
				t.Fatal(err)
			}
			if rational.LexCompareSorted(rational.Vec(bound), rational.Vec(exact)) < 0 {
				t.Fatalf("fixedFrom=%d ma=%v: bound %v below completion %v",
					fixedFrom, ma, bound.SortedCopy(), exact.SortedCopy())
			}
			if fixedFrom == 0 && !bound.Equal(exact) {
				t.Fatalf("leaf bound %v != exact %v", bound, exact)
			}
		})
	})
}
