// Package codec serializes problem instances — topology shape, flow
// collection, offered demands and routing — as JSON, so that scenarios
// can be saved, replayed and exchanged with external tools. Rates are
// encoded as exact rational strings ("2/3"), never floats.
package codec

import (
	"encoding/json"
	"fmt"

	"closnet/internal/adversary"
	"closnet/internal/core"
	"closnet/internal/rational"
	"closnet/internal/topology"
)

// FlowJSON is one flow, identified by the paper's (i, j) server indices.
type FlowJSON struct {
	SrcSwitch int `json:"srcSwitch"`
	SrcServer int `json:"srcServer"`
	DstSwitch int `json:"dstSwitch"`
	DstServer int `json:"dstServer"`
}

// Scenario is a self-contained problem instance.
type Scenario struct {
	Name string `json:"name,omitempty"`
	// Topology names the fabric family the shape describes (see
	// topology.FamilyNames). Empty means "clos", kept empty in encoded
	// form so pre-family scenario files and their content addresses are
	// unchanged.
	Topology string `json:"topology,omitempty"`
	Tors     int    `json:"tors"`
	Servers  int    `json:"servers"`
	Middles  int    `json:"middles"`

	Flows []FlowJSON `json:"flows"`
	// Demands are exact rational strings, parallel to Flows; optional.
	Demands []string `json:"demands,omitempty"`
	// Assignment is a middle-switch index per flow (1-based); optional.
	Assignment []int `json:"assignment,omitempty"`
}

// FromInstance converts an adversarial instance into a scenario,
// carrying its macro-switch rates as demands and its witness routing (if
// any) as the assignment.
func FromInstance(in *adversary.Instance) (*Scenario, error) {
	s := &Scenario{
		Name:    in.Name,
		Tors:    in.Clos.NumToRs(),
		Servers: in.Clos.ServersPerToR(),
		Middles: in.Clos.Size(),
	}
	for fi, f := range in.Flows {
		si, sj, ok := in.Clos.SourceIndexOf(f.Src)
		if !ok {
			return nil, fmt.Errorf("codec: flow %d source is not a server", fi)
		}
		di, dj, ok := in.Clos.DestIndexOf(f.Dst)
		if !ok {
			return nil, fmt.Errorf("codec: flow %d destination is not a server", fi)
		}
		s.Flows = append(s.Flows, FlowJSON{si, sj, di, dj})
	}
	for _, rate := range in.MacroRates {
		s.Demands = append(s.Demands, rational.String(rate))
	}
	if in.Witness != nil {
		s.Assignment = append([]int(nil), in.Witness...)
	}
	return s, nil
}

// Encode marshals the scenario as indented JSON.
func Encode(s *Scenario) ([]byte, error) {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	return out, nil
}

// Decode unmarshals and structurally validates a scenario. Bodies in
// the strict grammar of scanScenario — the way Encode writes every
// generated and corpus scenario — are decoded by that scanner; anything
// else goes to json.Unmarshal, so the accepted inputs, the decoded
// values and the error messages are json.Unmarshal's either way.
func Decode(data []byte) (*Scenario, error) {
	s, ok := scanScenario(data)
	if !ok {
		s = new(Scenario)
		if err := json.Unmarshal(data, s); err != nil {
			return nil, fmt.Errorf("codec: %w", err)
		}
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Scenario) validate() error {
	if s.Tors < 1 || s.Servers < 1 || s.Middles < 1 {
		return fmt.Errorf("codec: invalid shape (%d, %d, %d)", s.Tors, s.Servers, s.Middles)
	}
	if s.Topology != "" {
		known := false
		for _, f := range topology.FamilyNames() {
			if s.Topology == f {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("codec: unknown topology family %q", s.Topology)
		}
	}
	for fi, f := range s.Flows {
		if f.SrcSwitch < 1 || f.SrcSwitch > s.Tors || f.DstSwitch < 1 || f.DstSwitch > s.Tors {
			return fmt.Errorf("codec: flow %d switch index out of range", fi)
		}
		if f.SrcServer < 1 || f.SrcServer > s.Servers || f.DstServer < 1 || f.DstServer > s.Servers {
			return fmt.Errorf("codec: flow %d server index out of range", fi)
		}
	}
	if s.Demands != nil && len(s.Demands) != len(s.Flows) {
		return fmt.Errorf("codec: %d demands for %d flows", len(s.Demands), len(s.Flows))
	}
	if s.Assignment != nil {
		if len(s.Assignment) != len(s.Flows) {
			return fmt.Errorf("codec: %d assignments for %d flows", len(s.Assignment), len(s.Flows))
		}
		for fi, m := range s.Assignment {
			if m < 1 || m > s.Middles {
				return fmt.Errorf("codec: flow %d middle %d out of range [1,%d]", fi, m, s.Middles)
			}
		}
	}
	return nil
}

// Build materializes the scenario: the fabric of its topology family
// (a Clos when the family is empty), the flow collection, the demands
// (nil if absent) and the assignment (nil if absent).
func (s *Scenario) Build() (topology.Fabric, core.Collection, rational.Vec, core.MiddleAssignment, error) {
	if err := s.validate(); err != nil {
		return nil, nil, nil, nil, err
	}
	c, err := topology.BuildFamily(s.Topology, s.Tors, s.Servers, s.Middles)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	demands, err := s.DemandVec()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	var ma core.MiddleAssignment
	if s.Assignment != nil {
		ma = append(core.MiddleAssignment(nil), s.Assignment...)
	}
	return c, s.ResolveFlows(c), demands, ma, nil
}

// ResolveFlows maps the scenario's flows onto fab, which must be the
// fabric of the scenario's family and shape (Build's, or an equal one
// shared across requests). The scenario must be valid: an index out of
// fab's range panics.
func (s *Scenario) ResolveFlows(fab topology.Fabric) core.Collection {
	fs := make(core.Collection, len(s.Flows))
	for fi, f := range s.Flows {
		fs[fi] = core.Flow{
			Src: fab.Source(f.SrcSwitch, f.SrcServer),
			Dst: fab.Dest(f.DstSwitch, f.DstServer),
		}
	}
	return fs
}

// DemandVec parses the demand strings, nil when the scenario has none.
func (s *Scenario) DemandVec() (rational.Vec, error) {
	if s.Demands == nil {
		return nil, nil
	}
	demands := make(rational.Vec, len(s.Demands))
	for fi, str := range s.Demands {
		d, err := parseDemand(fi, str)
		if err != nil {
			return nil, err
		}
		demands[fi] = d.rat()
	}
	return demands, nil
}
