package codec_test

import (
	"math/rand"
	"testing"

	"closnet/internal/codec"
	"closnet/internal/corpus"
	"closnet/internal/gen"
)

// onePassScenarios is the equivalence corpus of the one-pass hashes:
// every corpus family over C_4 plus seeded gen scenarios of every
// topology family and traffic model.
func onePassScenarios(t *testing.T) map[string]*codec.Scenario {
	t.Helper()
	out := make(map[string]*codec.Scenario)
	scens, names, err := corpus.Scenarios(4, corpus.Families())
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range scens {
		out["corpus/"+names[i]] = s
	}
	specs := map[string]func() (gen.Spec, error){
		"clos4":      func() (gen.Spec, error) { return gen.ClosSpec(4) },
		"general":    func() (gen.Spec, error) { return gen.GeneralClosSpec(6, 2, 3) },
		"oversub":    func() (gen.Spec, error) { return gen.OversubscribedClosSpec(4, 4, 2, 1) },
		"fattree4":   func() (gen.Spec, error) { return gen.FatTreeSpec(4) },
		"benes8":     func() (gen.Spec, error) { return gen.BenesSpec(8) },
		"clos8-many": func() (gen.Spec, error) { return gen.ClosSpec(8) },
	}
	for name, spec := range specs {
		sp, err := spec()
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range gen.Models() {
			for seed := int64(1); seed <= 2; seed++ {
				s, err := gen.Scenario(sp, gen.TrafficConfig{Model: model, ElephantFraction: 0.3, Seed: seed})
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", name, model, seed, err)
				}
				out[s.Name] = s
			}
		}
	}
	return out
}

// variants returns s as given plus the projections the topology hash
// must ignore and the content hash must not: demands dropped, a seeded
// assignment added (with and without demands), the family spelled
// out, and the flow list reversed.
func variants(s *codec.Scenario, rng *rand.Rand) map[string]*codec.Scenario {
	assign := make([]int, len(s.Flows))
	for i := range assign {
		assign[i] = rng.Intn(s.Middles) + 1
	}
	noDemands := *s
	noDemands.Demands = nil
	withAssign := *s
	withAssign.Assignment = assign
	assignOnly := noDemands
	assignOnly.Assignment = assign
	reversed := withAssign
	reversed.Flows = append([]codec.FlowJSON(nil), s.Flows...)
	reversed.Assignment = append([]int(nil), assign...)
	if s.Demands != nil {
		reversed.Demands = append([]string(nil), s.Demands...)
	}
	for i, j := 0, len(reversed.Flows)-1; i < j; i, j = i+1, j-1 {
		reversed.Flows[i], reversed.Flows[j] = reversed.Flows[j], reversed.Flows[i]
		reversed.Assignment[i], reversed.Assignment[j] = reversed.Assignment[j], reversed.Assignment[i]
		if reversed.Demands != nil {
			reversed.Demands[i], reversed.Demands[j] = reversed.Demands[j], reversed.Demands[i]
		}
	}
	out := map[string]*codec.Scenario{
		"as-is": s, "no-demands": &noDemands, "assignment": &withAssign,
		"assignment-only": &assignOnly, "reversed": &reversed,
	}
	if s.Topology == "" {
		spelled := withAssign
		spelled.Topology = "clos"
		out["spelled-clos"] = &spelled
	}
	return out
}

// TestCanonicalizeMatchesReference: the content hash and the prefix-
// derived topology hash of the one canonicalization pass equal the
// direct json.Marshal hashes of the canonical and the stripped form,
// the permutation reproduces the canonical flow order, and the topology
// hash is invariant across every variant of a scenario.
func TestCanonicalizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	checked := 0
	for name, base := range onePassScenarios(t) {
		_, topo0, err := codec.ReferenceHashes(base)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for vname, s := range variants(base, rng) {
			cz, err := codec.Canonicalize(s)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, vname, err)
			}
			hash, topo, err := codec.ReferenceHashes(s)
			if err != nil {
				t.Fatalf("%s/%s: reference: %v", name, vname, err)
			}
			if cz.Hash != hash {
				t.Errorf("%s/%s: content hash %x, reference %x", name, vname, cz.Hash, hash)
			}
			if cz.TopologyHash != topo {
				t.Errorf("%s/%s: topology hash %x, reference %x", name, vname, cz.TopologyHash, topo)
			}
			if got, _ := codec.TopologyHash(s); got != topo {
				t.Errorf("%s/%s: TopologyHash %x, reference %x", name, vname, got, topo)
			}
			if topo != topo0 {
				t.Errorf("%s/%s: topology hash differs from the as-is variant", name, vname)
			}
			for i, fi := range cz.Perm {
				if s.Flows[fi] != cz.Scenario.Flows[i] {
					t.Fatalf("%s/%s: Perm[%d] = %d does not reproduce the canonical flow", name, vname, i, fi)
				}
			}
			checked++
		}
	}
	if checked < 100 {
		t.Fatalf("only %d scenarios checked", checked)
	}
}
