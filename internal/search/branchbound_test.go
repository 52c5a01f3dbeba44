package search

import (
	"fmt"
	"math/big"
	"os"
	"strings"
	"testing"

	"closnet/internal/core"
	"closnet/internal/corpus"
	"closnet/internal/gen"
	"closnet/internal/lp"
	"closnet/internal/rational"
	"closnet/internal/topology"
)

// prunedCase is one instance of the pruned-equals-exhaustive
// equivalence corpus: every exhaustively searchable paper instance plus
// the contended bench shapes.
type prunedCase struct {
	name string
	c    topology.Fabric
	fs   core.Collection
}

// searchBenchInstance mirrors closbench's benchInstance: flows
// alternating between cross-ToR and same-ToR destinations, the
// contended shape of the BENCH_search.json rows.
func searchBenchInstance(n, flows int) (*topology.Clos, core.Collection) {
	c := topology.MustClos(n)
	fs := core.Collection{}
	for f := 0; f < flows; f++ {
		i := f%n + 1
		if f%2 == 0 {
			fs = fs.Add(c.Source(i, 1), c.Dest(i%n+1, 1), 1)
		} else {
			fs = fs.Add(c.Source(i, 1), c.Dest(i, 1), 1)
		}
	}
	return c, fs
}

func prunedCases(t *testing.T) []prunedCase {
	t.Helper()
	var cases []prunedCase
	add := func(name string, n int) {
		scens, _, err := corpus.Scenarios(n, []string{name})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range scens {
			c, fs, _, _, err := s.Build()
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, prunedCase{name: s.Name, c: c, fs: fs})
		}
	}
	add("example23", 0)
	add("theorem34k2", 3)
	add("theorem34k2", 4)
	add("theorem34k8", 3)
	jc, jfs := journalInstance()
	cases = append(cases, prunedCase{name: "journal_c3", c: jc, fs: jfs})
	bc, bfs := searchBenchInstance(4, 6)
	cases = append(cases, prunedCase{name: "bench_c4_f6", c: bc, fs: bfs})
	return cases
}

// TestPrunedLexMatchesExhaustive is the tentpole equivalence suite: on
// every searchable instance of the §4/§5 corpus the branch-and-bound
// must return the bit-identical incumbent — same assignment, same
// rationals — as the exhaustive canonical scan at every worker count
// and as the legacy full-space serial oracle.
func TestPrunedLexMatchesExhaustive(t *testing.T) {
	for _, tc := range prunedCases(t) {
		pruned, err := LexMaxMin(tc.c, tc.fs, Options{Pruned: true})
		if err != nil {
			t.Fatalf("%s: pruned: %v", tc.name, err)
		}
		oracle, err := LexMaxMin(tc.c, tc.fs, Options{FullSpace: true, Workers: 1})
		if err != nil {
			t.Fatalf("%s: full-space oracle: %v", tc.name, err)
		}
		if !sameAssignment(pruned.Assignment, oracle.Assignment) || !pruned.Allocation.Equal(oracle.Allocation) {
			t.Errorf("%s: pruned diverged from the full-space oracle:\n%v %v\n%v %v",
				tc.name, pruned.Assignment, pruned.Allocation, oracle.Assignment, oracle.Allocation)
		}
		for _, workers := range []int{1, 2, 4} {
			ex, err := LexMaxMin(tc.c, tc.fs, Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			if !sameAssignment(pruned.Assignment, ex.Assignment) || !pruned.Allocation.Equal(ex.Allocation) {
				t.Errorf("%s workers=%d: pruned incumbent differs:\npruned:     %v %v\nexhaustive: %v %v",
					tc.name, workers, pruned.Assignment, pruned.Allocation, ex.Assignment, ex.Allocation)
			}
		}
	}
	testPrunedLexSearchLexShape(t)
}

// searchLexShapeSeeds is the number of search-lex-shaped instances —
// seeded uniform 10-flow scenarios on C_4, the shape of perfbench's
// search-lex workload — in the pruned equivalence suite; every
// searchLexShapeLive-th one is also searched exhaustively on each run.
const (
	searchLexShapeSeeds = 200
	searchLexShapeLive  = 20
)

// testPrunedLexSearchLexShape extends the equivalence suite to the
// benchmark's shape. testdata/pruned_c4_states.golden holds, per seed,
// the pruned search's States (bound plus leaf evaluations) and the
// exhaustive search's assignment, rates and throughput; the pruned
// search must reproduce every line — the same optimum, and the same
// search tree node for node. Re-pinning runs all 200 exhaustive
// searches (about 20 s) and fails where the two searches disagree;
// plain runs redo every searchLexShapeLive-th one live:
//
//	go test ./internal/search -run TestPrunedLexMatchesExhaustive -update-golden
func testPrunedLexSearchLexShape(t *testing.T) {
	const golden = "testdata/pruned_c4_states.golden"
	var want []string
	if !*updateGolden {
		data, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (run with -update-golden to create it)", err)
		}
		want = strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
		if len(want) != searchLexShapeSeeds {
			t.Fatalf("%s has %d lines, want %d", golden, len(want), searchLexShapeSeeds)
		}
	}
	sp, err := gen.ClosSpec(4)
	if err != nil {
		t.Fatal(err)
	}
	line := func(seed int64, states int, r *Result) string {
		return fmt.Sprintf("%d %d %v %v %s", seed, states, r.Assignment, r.Allocation,
			core.Throughput(r.Allocation).RatString())
	}
	var got []string
	for seed := int64(1); seed <= searchLexShapeSeeds; seed++ {
		s, err := gen.Scenario(sp, gen.TrafficConfig{Model: gen.ModelUniform, Flows: 10, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		c, fs, _, _, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		pruned, err := LexMaxMin(c, fs, Options{Pruned: true})
		if err != nil {
			t.Fatalf("%s: pruned: %v", s.Name, err)
		}
		pl := line(seed, pruned.States, pruned)
		if *updateGolden || seed%searchLexShapeLive == 0 {
			ex, err := LexMaxMin(c, fs, Options{})
			if err != nil {
				t.Fatalf("%s: exhaustive: %v", s.Name, err)
			}
			if el := line(seed, pruned.States, ex); el != pl {
				t.Errorf("%s: pruned and exhaustive searches differ:\npruned:     %s\nexhaustive: %s", s.Name, pl, el)
			}
		}
		if want != nil && want[seed-1] != pl {
			t.Errorf("%s: pruned search differs from %s:\ngot:  %s\nwant: %s", s.Name, golden, pl, want[seed-1])
		}
		got = append(got, pl)
	}
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPrunedThroughputMatchesExhaustive: same contract for the
// throughput objective, whose exhaustive scan early-exits on the
// matching bound — the branch-and-bound must land on the same
// earliest-rank state.
func TestPrunedThroughputMatchesExhaustive(t *testing.T) {
	for _, tc := range prunedCases(t) {
		if testing.Short() && tc.name == "theorem34k8" {
			continue // LP bound per node; skip the 10-flow case under -short
		}
		pruned, err := ThroughputMaxMin(tc.c, tc.fs, Options{Pruned: true})
		if err != nil {
			t.Fatalf("%s: pruned: %v", tc.name, err)
		}
		for _, workers := range []int{1, 2, 4} {
			ex, err := ThroughputMaxMin(tc.c, tc.fs, Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			if !sameAssignment(pruned.Assignment, ex.Assignment) || !pruned.Allocation.Equal(ex.Allocation) {
				t.Errorf("%s workers=%d: pruned incumbent differs:\npruned:     %v %v\nexhaustive: %v %v",
					tc.name, workers, pruned.Assignment, pruned.Allocation, ex.Assignment, ex.Allocation)
			}
		}
	}
}

// TestPrunedC5Reduction pins the acceptance bar of the pruned mode: on
// the 7-flow C_5 lex benchmark the branch-and-bound must visit at least
// 5x fewer states (bound plus leaf evaluations) than the canonical
// exhaustive scan, with a bit-identical incumbent. The measured ratio
// is ~65x; 5x leaves headroom for bound tweaks without masking a
// pruning regression.
func TestPrunedC5Reduction(t *testing.T) {
	c, fs := searchBenchInstance(5, 7)
	ex, err := LexMaxMin(c, fs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := LexMaxMin(c, fs, Options{Pruned: true})
	if err != nil {
		t.Fatal(err)
	}
	if !sameAssignment(pruned.Assignment, ex.Assignment) || !pruned.Allocation.Equal(ex.Allocation) {
		t.Fatalf("pruned incumbent differs:\npruned:     %v %v\nexhaustive: %v %v",
			pruned.Assignment, pruned.Allocation, ex.Assignment, ex.Allocation)
	}
	if pruned.States <= 0 || ex.States < 5*pruned.States {
		t.Errorf("pruning below the 5x bar: exhaustive %d states, pruned %d (%.1fx)",
			ex.States, pruned.States, float64(ex.States)/float64(pruned.States))
	}
}

// TestThroughputBoundAdmissiblePrefixes cross-checks the LP bound the
// throughput branch-and-bound prunes on: at every depth, for every
// fixed suffix, the certified splittable bound (capped by the matching
// bound, exactly as throughputBranchBound computes it) must dominate
// the throughput of every completion.
func TestThroughputBoundAdmissiblePrefixes(t *testing.T) {
	c, fs := journalInstance()
	n := c.Size()
	nf := len(fs)
	ub, err := maxMatchingSize(fs)
	if err != nil {
		t.Fatal(err)
	}
	ubRat := rational.Int(int64(ub))
	net := c.Network()
	ev, err := core.NewEvaluator(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	ma := make(core.MiddleAssignment, nf)
	walk := func() {
		for fixedFrom := 0; fixedFrom <= nf; fixedFrom++ {
			paths, err := lp.PrefixPaths(c, fs, ma, fixedFrom)
			if err != nil {
				t.Fatal(err)
			}
			bound, err := lp.SplittableThroughputBound(net, fs, paths)
			if err != nil {
				t.Fatal(err)
			}
			if bound.Cmp(ubRat) > 0 {
				bound = new(big.Rat).Set(ubRat)
			}
			// Every completion of the fixed suffix stays below the bound.
			comp := make(core.MiddleAssignment, nf)
			copy(comp, ma)
			var complete func(p int)
			complete = func(p int) {
				if p == fixedFrom {
					a, err := ev.Eval(comp)
					if err != nil {
						t.Fatal(err)
					}
					if thr := core.Throughput(a); thr.Cmp(bound) > 0 {
						t.Fatalf("fixedFrom=%d ma=%v: completion throughput %s above bound %s",
							fixedFrom, comp, rational.String(thr), rational.String(bound))
					}
					return
				}
				for v := 1; v <= n; v++ {
					comp[p] = v
					complete(p + 1)
				}
			}
			complete(0)
		}
	}
	// Sample the suffix space: all assignments of the two highest flows,
	// lowest flows pinned to 1 — 9 suffixes x 5 depths x up to 81
	// completions keeps the LP count bounded.
	for v2 := 1; v2 <= n; v2++ {
		for v3 := 1; v3 <= n; v3++ {
			ma[0], ma[1], ma[2], ma[3] = 1, 1, v2, v3
			walk()
		}
	}
}

func TestPrunedOptionErrors(t *testing.T) {
	c, fs := journalInstance()
	if _, err := LexMaxMin(c, fs, Options{Pruned: true, FullSpace: true}); err == nil ||
		!strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("lex Pruned+FullSpace: err = %v, want mutual-exclusion error", err)
	}
	if _, err := ThroughputMaxMin(c, fs, Options{Pruned: true, FullSpace: true}); err == nil ||
		!strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("throughput Pruned+FullSpace: err = %v, want mutual-exclusion error", err)
	}
	demands := make(rational.Vec, len(fs))
	for i := range demands {
		demands[i] = rational.Int(1)
	}
	if _, err := RelativeMaxMin(c, fs, demands, Options{Pruned: true}); err == nil ||
		!strings.Contains(err.Error(), "no pruned mode") {
		t.Errorf("relative Pruned: err = %v, want no-pruned-mode error", err)
	}
}

func TestPrunedEmptyCollection(t *testing.T) {
	c := topology.MustClos(2)
	res, err := LexMaxMin(c, nil, Options{Pruned: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignment) != 0 || len(res.Allocation) != 0 {
		t.Errorf("unexpected result %+v", res)
	}
}

// TestPrunedStateCap: the pruned mode enforces the same state budget as
// the exhaustive scan — the canonical space size is checked up front.
func TestPrunedStateCap(t *testing.T) {
	c := topology.MustClos(3)
	fs := core.Collection{}
	for i := 0; i < 20; i++ {
		fs = fs.Add(c.Source(1, 1), c.Dest(1, 1), 1)
	}
	if _, err := LexMaxMin(c, fs, Options{Pruned: true, MaxStates: 1000}); err == nil {
		t.Error("pruned search accepted a space beyond MaxStates")
	}
}
