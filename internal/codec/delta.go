package codec

import (
	"encoding/json"
	"fmt"
)

// Delta ops.
const (
	// DeltaArrive admits Flow on middle Middle; the response assigns it
	// the next session flow ID.
	DeltaArrive = "arrive"
	// DeltaDepart removes the session flow ID.
	DeltaDepart = "depart"
	// DeltaReroute moves the session flow ID onto middle Middle.
	DeltaReroute = "reroute"
)

// Delta is one mutation of a session's live scenario — the wire format
// of POST /v1/session/{id}/delta. The response after every delta
// reports the session's state in canonical scenario order with its
// content hash, so a replayed delta sequence is directly comparable
// (hash-equal) to a one-shot /v1/evaluate of the end state.
type Delta struct {
	Op string `json:"op"`
	// Flow is the arriving flow (arrive only).
	Flow *FlowJSON `json:"flow,omitempty"`
	// Middle is the 1-based middle switch (arrive, reroute).
	Middle int `json:"middle,omitempty"`
	// ID is the session flow ID to depart or reroute.
	ID int `json:"id,omitempty"`
}

// DecodeDelta unmarshals one delta. Structural validation against a
// session's shape is Validate's job.
func DecodeDelta(data []byte) (*Delta, error) {
	var d Delta
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	switch d.Op {
	case DeltaArrive, DeltaDepart, DeltaReroute:
	default:
		return nil, fmt.Errorf("codec: unknown delta op %q (known: %s, %s, %s)",
			d.Op, DeltaArrive, DeltaDepart, DeltaReroute)
	}
	return &d, nil
}

// Validate checks the delta against a topology shape. Liveness of ID is
// the session's business; Validate only checks what the wire form can.
func (d *Delta) Validate(tors, servers, middles int) error {
	switch d.Op {
	case DeltaArrive:
		if d.Flow == nil {
			return fmt.Errorf("codec: arrive delta without a flow")
		}
		f := d.Flow
		if f.SrcSwitch < 1 || f.SrcSwitch > tors || f.DstSwitch < 1 || f.DstSwitch > tors {
			return fmt.Errorf("codec: arrive flow switch index out of range [1,%d]", tors)
		}
		if f.SrcServer < 1 || f.SrcServer > servers || f.DstServer < 1 || f.DstServer > servers {
			return fmt.Errorf("codec: arrive flow server index out of range [1,%d]", servers)
		}
		if d.Middle < 1 || d.Middle > middles {
			return fmt.Errorf("codec: arrive middle %d out of range [1,%d]", d.Middle, middles)
		}
	case DeltaDepart:
		if d.ID < 0 {
			return fmt.Errorf("codec: depart id %d is negative", d.ID)
		}
	case DeltaReroute:
		if d.ID < 0 {
			return fmt.Errorf("codec: reroute id %d is negative", d.ID)
		}
		if d.Middle < 1 || d.Middle > middles {
			return fmt.Errorf("codec: reroute middle %d out of range [1,%d]", d.Middle, middles)
		}
	default:
		return fmt.Errorf("codec: unknown delta op %q", d.Op)
	}
	return nil
}
