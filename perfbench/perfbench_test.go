package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"

	"closnet/internal/codec"
)

// TestBuildDeterministic pins the seeding contract: the same seed gives
// byte-identical request bodies and delta streams, another seed gives
// other inputs.
func TestBuildDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a, err := build(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			b, err := build(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			c, err := build(name, 8)
			if err != nil {
				t.Fatal(err)
			}
			if !sameInputs(a, b) {
				t.Fatal("seed 7 built different inputs twice")
			}
			if sameInputs(a, c) {
				t.Fatal("seeds 7 and 8 built the same inputs")
			}
		})
	}
}

func sameInputs(a, b *workload) bool {
	eq := func(x, y [][]byte) bool { return slices.EqualFunc(x, y, bytes.Equal) }
	if !eq(a.warmup, b.warmup) || !eq(a.bodies, b.bodies) || len(a.plans) != len(b.plans) {
		return false
	}
	for i := range a.plans {
		pa, pb := a.plans[i], b.plans[i]
		if !bytes.Equal(pa.open, pb.open) || !eq(pa.bodies, pb.bodies) ||
			!slices.Equal(pa.arrived, pb.arrived) || !slices.Equal(pa.sampled, pb.sampled) {
			return false
		}
	}
	return true
}

// TestColdInputsAreDistinct checks what evaluate-cold relies on to miss
// the result cache and the evaluator pool: no two bodies share a
// topology.
func TestColdInputsAreDistinct(t *testing.T) {
	w, err := build(evaluateCold, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[32]byte]bool{}
	for i, body := range append(append([][]byte(nil), w.warmup...), w.bodies...) {
		s, err := codec.Decode(body)
		if err != nil {
			t.Fatal(err)
		}
		h, err := codec.TopologyHash(s)
		if err != nil {
			t.Fatal(err)
		}
		if seen[h] {
			t.Fatalf("body %d repeats a topology", i)
		}
		seen[h] = true
	}
}

// TestSessionPlanBandAndMix replays a delta stream on the reference
// model: the live flow count stays in its band, the mix is as designed,
// and every arrival gets the ID the plan expects.
func TestSessionPlanBandAndMix(t *testing.T) {
	p, err := newSessionPlan(11)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	want := make([]int, n)
	for k := range want {
		want[k] = k
	}
	count := map[string]int{}
	err = replayPlan(p, want, func(k int, st *sessionState) error {
		count[p.deltas[k].Op]++
		if l := len(st.ids); l < sessionLow || l > sessionHigh {
			t.Fatalf("delta %d leaves %d live flows, outside [%d, %d]", k, l, sessionLow, sessionHigh)
		}
		if id := p.arrived[k]; id >= 0 && st.ids[len(st.ids)-1] != id {
			t.Fatalf("delta %d: arrival got ID %d, plan expects %d", k, st.ids[len(st.ids)-1], id)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for op, share := range map[string]float64{codec.DeltaReroute: 0.5, codec.DeltaArrive: 0.25, codec.DeltaDepart: 0.25} {
		if got := float64(count[op]) / n; math.Abs(got-share) > 0.02 {
			t.Errorf("%s share %.3f, designed %.2f", op, got, share)
		}
	}
}

// TestPercentileSampleCount checks the nearest-rank percentile and the
// count of samples above it that the summary reports for p99.
func TestPercentileSampleCount(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	for _, tc := range []struct {
		q      float64
		value  float64
		beyond int
	}{{0.5, 500, 500}, {0.99, 990, 10}, {0.999, 999, 1}, {1, 1000, 0}} {
		v, beyond := percentile(xs, tc.q)
		if v != tc.value || beyond != tc.beyond {
			t.Errorf("percentile(%v) = %v with %d beyond, want %v with %d", tc.q, v, beyond, tc.value, tc.beyond)
		}
	}
	if v, beyond := percentile(nil, 0.5); !math.IsNaN(v) || beyond != 0 {
		t.Errorf("empty sample: %v with %d beyond, want NaN with 0", v, beyond)
	}
	if xs[0] != 1000 {
		t.Error("percentile reordered its input")
	}
}

// TestWindowSlices checks that requests are grouped by the slice they
// ended in and that requests ending after the window are left out.
func TestWindowSlices(t *testing.T) {
	w := &window{
		length: 3 * sliceLength,
		latMs:  []float64{1, 2, 3, 4, 5},
		doneAt: []float64{0.1, 0.9, 1.5, 2.99, 3.2},
	}
	for i := range w.doneAt {
		w.doneAt[i] *= sliceLength.Seconds()
	}
	lat, length := w.slices()
	if length != sliceLength || len(lat) != 3 {
		t.Fatalf("got %d slices of %v, want 3 of %v", len(lat), length, sliceLength)
	}
	want := [][]float64{{1, 2}, {3}, {4}}
	for i := range want {
		if !slices.Equal(lat[i], want[i]) {
			t.Errorf("slice %d = %v, want %v", i, lat[i], want[i])
		}
	}
}

// TestBenchmarkJSONMatchesSpecs keeps BENCHMARK.json and the metrics
// the program reports in step.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricSpec            `json:"end_to_end"`
		PerLayer  []metricSpec            `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Errorf("BENCHMARK.json workload %q is not one the program runs", w.Name)
		}
	}
	strip := func(specs []metricSpec) []metricSpec {
		out := make([]metricSpec, len(specs))
		for i, s := range specs {
			out[i] = metricSpec{Name: s.Name, Unit: s.Unit, Better: s.Better}
		}
		return out
	}
	if !slices.Equal(strip(bench.EndToEnd), strip(endToEnd)) {
		t.Errorf("BENCHMARK.json end_to_end differs from the reported metrics:\n%v\n%v", bench.EndToEnd, endToEnd)
	}
	if !slices.Equal(strip(bench.PerLayer), strip(perLayer)) {
		t.Errorf("BENCHMARK.json per_layer differs from the reported metrics")
	}
}
