package codec

import (
	"crypto/sha256"
	"encoding/json"
	"testing"
)

// referenceHashes is the test oracle of Canonicalize's two hashes,
// computed the direct way: the content hash is SHA-256 over
// json.Marshal of the canonical form, the topology hash SHA-256 over
// json.Marshal of the canonical form with demands and assignment
// stripped — no shared encoding, no prefix argument.
func referenceHashes(s *Scenario) (hash, topo [32]byte, err error) {
	c, err := Canonical(s)
	if err != nil {
		return hash, topo, err
	}
	full, err := json.Marshal(c)
	if err != nil {
		return hash, topo, err
	}
	stripped, err := json.Marshal(&Scenario{
		Topology: c.Topology, Tors: c.Tors, Servers: c.Servers, Middles: c.Middles, Flows: c.Flows,
	})
	if err != nil {
		return hash, topo, err
	}
	return sha256.Sum256(full), sha256.Sum256(stripped), nil
}

// ReferenceHashes exports the oracle to the external test package.
var ReferenceHashes = referenceHashes

func topoScenario() *Scenario {
	return &Scenario{
		Name: "a", Tors: 2, Servers: 2, Middles: 3,
		Flows: []FlowJSON{
			{SrcSwitch: 2, SrcServer: 1, DstSwitch: 1, DstServer: 1},
			{SrcSwitch: 1, SrcServer: 1, DstSwitch: 2, DstServer: 1},
		},
		Demands:    []string{"1/2", "2/4"},
		Assignment: []int{3, 1},
	}
}

// TestTopologyHashInvariants: the topology hash ignores exactly the
// parts of a scenario that do not change the (Clos, Collection) pair —
// name, demands, assignment, flow order — and changes with everything
// that does.
func TestTopologyHashInvariants(t *testing.T) {
	base, err := TopologyHash(topoScenario())
	if err != nil {
		t.Fatal(err)
	}

	same := []func(*Scenario){
		func(s *Scenario) { s.Name = "renamed" },
		func(s *Scenario) { s.Demands = []string{"7", "0"} },
		func(s *Scenario) { s.Demands = nil },
		func(s *Scenario) { s.Assignment = []int{1, 2} },
		func(s *Scenario) { s.Assignment = nil },
		func(s *Scenario) { // flow order (with parallel demand/assignment swap)
			s.Flows[0], s.Flows[1] = s.Flows[1], s.Flows[0]
			s.Demands[0], s.Demands[1] = s.Demands[1], s.Demands[0]
			s.Assignment[0], s.Assignment[1] = s.Assignment[1], s.Assignment[0]
		},
	}
	for i, mutate := range same {
		s := topoScenario()
		mutate(s)
		h, err := TopologyHash(s)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if h != base {
			t.Errorf("case %d: topology-preserving mutation changed the hash", i)
		}
	}

	diff := []func(*Scenario){
		func(s *Scenario) { s.Middles = 4 },
		func(s *Scenario) { s.Servers = 3 },
		func(s *Scenario) { s.Tors = 3 },
		func(s *Scenario) { s.Flows[0].DstServer = 2 },
		func(s *Scenario) { s.Flows = s.Flows[:1]; s.Demands = s.Demands[:1]; s.Assignment = s.Assignment[:1] },
	}
	for i, mutate := range diff {
		s := topoScenario()
		mutate(s)
		h, err := TopologyHash(s)
		if err != nil {
			t.Fatalf("diff case %d: %v", i, err)
		}
		if h == base {
			t.Errorf("diff case %d: topology-changing mutation kept the hash", i)
		}
	}

	if _, err := TopologyHash(&Scenario{Tors: 0}); err == nil {
		t.Error("invalid scenario hashed without error")
	}
}
