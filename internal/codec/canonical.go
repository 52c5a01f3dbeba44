package codec

import (
	"cmp"
	"crypto/sha256"
	"fmt"
	"math/big"
	"os"
	"slices"
	"strconv"

	"closnet/internal/rational"
)

// Canonical returns the canonical form of a scenario: the unique
// representative of every scenario that denotes the same problem
// instance. Two scenarios that differ only in flow order, in the
// textual representation of their demand strings ("2/4" vs "1/2") or
// in their display name canonicalize to the same value, so the
// canonical form is a content-address for the instance — the cache key
// of the serving layer (internal/server) and the preimage of Hash.
//
// Canonicalization (the input is not mutated):
//
//   - the Name is dropped (a label, not part of the instance),
//   - every demand string is normalized to big.Rat.RatString form
//     (lowest terms, no denominator when it is 1),
//   - flows are sorted by (srcSwitch, srcServer, dstSwitch, dstServer,
//     demand, assignment), with demands and assignment permuted in
//     parallel so each flow keeps its own demand and middle switch.
//
// The routing symmetry of the search layer (relabeling middle
// switches) is deliberately NOT quotiented out: an assignment is part
// of the instance as stated, and evaluation results are reported in
// canonical flow order.
func Canonical(s *Scenario) (*Scenario, error) {
	c, _, err := canonicalize(s)
	return c, err
}

// Canonicalized is the outcome of one canonicalization pass over a
// scenario: everything the serving layers key on, computed together so
// no request pays for canonicalizing twice.
type Canonicalized struct {
	// Scenario is the canonical form (Canonical).
	Scenario *Scenario
	// Perm is the permutation applied to the flow list: Perm[i] is the
	// index in the input's Flows of the i-th canonical flow. Callers
	// that track per-flow state keyed by original position (the session
	// layer of internal/engine) use it to report rates in canonical
	// order.
	Perm []int
	// Hash is the content address, as (*Scenario).Hash returns it.
	Hash [32]byte
	// TopologyHash is the topology address, as TopologyHash returns it.
	TopologyHash [32]byte
}

// Canonicalize canonicalizes s once and returns the canonical form, its
// permutation, its content hash and its topology hash.
//
// Both hashes come from one encoding. The content hash is the SHA-256
// of the compact JSON encoding of the canonical form. The stripped
// scenario TopologyHash commits to — canonical form minus demands and
// assignment (the name is already gone) — encodes to a byte prefix of
// that encoding: the fields before "demands" are identical and
// identically ordered, so the stripped encoding is the canonical one
// cut after the flows array and closed with '}'.
func Canonicalize(s *Scenario) (*Canonicalized, error) {
	c, perm, err := canonicalize(s)
	if err != nil {
		return nil, err
	}
	// Room for the shape plus ~64 bytes per flow, 8 per demand and 2
	// per middle, so the encoding does not regrow.
	buf := make([]byte, 0, 64+64*len(c.Flows)+8*len(c.Demands)+2*len(c.Assignment))
	data, flowsEnd := appendCanonicalJSON(buf, c)
	out := &Canonicalized{Scenario: c, Perm: perm, Hash: sha256.Sum256(data)}
	h := sha256.New()
	h.Write(data[:flowsEnd])
	h.Write([]byte{'}'})
	h.Sum(out.TopologyHash[:0])
	return out, nil
}

// canonicalize validates s and builds its canonical form together with
// the flow permutation.
func canonicalize(s *Scenario) (*Scenario, []int, error) {
	if err := s.validate(); err != nil {
		return nil, nil, err
	}
	demands := make([]demand, len(s.Demands))
	for fi, str := range s.Demands {
		d, err := parseDemand(fi, str)
		if err != nil {
			return nil, nil, err
		}
		demands[fi] = d
	}

	perm := make([]int, len(s.Flows))
	for i := range perm {
		perm[i] = i
	}
	slices.SortStableFunc(perm, func(a, b int) int {
		fa, fb := s.Flows[a], s.Flows[b]
		if c := cmp.Compare(fa.SrcSwitch, fb.SrcSwitch); c != 0 {
			return c
		}
		if c := cmp.Compare(fa.SrcServer, fb.SrcServer); c != 0 {
			return c
		}
		if c := cmp.Compare(fa.DstSwitch, fb.DstSwitch); c != 0 {
			return c
		}
		if c := cmp.Compare(fa.DstServer, fb.DstServer); c != 0 {
			return c
		}
		// Demands compare numerically, on the values parsed above.
		if len(demands) > 0 {
			if c := demands[a].cmp(demands[b]); c != 0 {
				return c
			}
		}
		if len(s.Assignment) > 0 {
			return cmp.Compare(s.Assignment[a], s.Assignment[b])
		}
		return 0
	})

	c := &Scenario{
		Topology: s.Topology,
		Tors:     s.Tors,
		Servers:  s.Servers,
		Middles:  s.Middles,
	}
	// "clos" and "" denote the same family; the canonical form uses the
	// empty spelling so pre-family content addresses are preserved.
	if c.Topology == "clos" {
		c.Topology = ""
	}
	c.Flows = make([]FlowJSON, len(s.Flows))
	for i, fi := range perm {
		c.Flows[i] = s.Flows[fi]
	}
	if s.Demands != nil {
		c.Demands = make([]string, len(demands))
		for i, fi := range perm {
			c.Demands[i] = demands[fi].String()
		}
	}
	if s.Assignment != nil {
		c.Assignment = make([]int, len(s.Assignment))
		for i, fi := range perm {
			c.Assignment[i] = s.Assignment[fi]
		}
	}
	return c, perm, nil
}

// demand is one parsed demand value: a Rat64 when it fits, the big.Rat
// otherwise.
type demand struct {
	r   rational.Rat64
	big *big.Rat // non-nil when the value does not fit a Rat64
}

// parseDemand parses flow fi's demand string, taking the allocation-
// free rational.ParseRat64 path for plain "p" and "p/q" strings and
// big.Rat.SetString for everything else, so the accepted strings and
// the values are exactly SetString's.
func parseDemand(fi int, str string) (demand, error) {
	var d demand
	if r, ok := rational.ParseRat64(str); ok {
		d.r = r
	} else {
		r, ok := new(big.Rat).SetString(str)
		if !ok {
			return demand{}, fmt.Errorf("codec: flow %d demand %q is not a rational", fi, str)
		}
		if d.r, ok = rational.FromRat(r); !ok {
			d.big = r
		}
	}
	if d.sign() < 0 {
		return demand{}, fmt.Errorf("codec: flow %d demand %q is negative", fi, str)
	}
	return d, nil
}

func (d demand) sign() int {
	if d.big != nil {
		return d.big.Sign()
	}
	return d.r.Sign()
}

// rat returns the value as a *big.Rat, to be treated as immutable.
func (d demand) rat() *big.Rat {
	if d.big != nil {
		return d.big
	}
	return d.r.Rat()
}

// String returns the big.Rat.RatString form of the value.
func (d demand) String() string {
	if d.big != nil {
		return d.big.RatString()
	}
	return d.r.String()
}

func (d demand) cmp(e demand) int {
	if d.big == nil && e.big == nil {
		return d.r.Cmp(e.r)
	}
	return d.rat().Cmp(e.rat())
}

// appendCanonicalJSON appends the compact JSON encoding of the
// canonical scenario c — byte-identical to json.Marshal(c) — and
// returns it with the length of the prefix that ends with the flows
// array. No string needs escaping: the topology is a validated family
// name and demands are RatString forms (digits, '-', '/').
func appendCanonicalJSON(b []byte, c *Scenario) ([]byte, int) {
	b = append(b, '{')
	if c.Topology != "" {
		b = append(b, `"topology":"`...)
		b = append(b, c.Topology...)
		b = append(b, `",`...)
	}
	b = append(b, `"tors":`...)
	b = strconv.AppendInt(b, int64(c.Tors), 10)
	b = append(b, `,"servers":`...)
	b = strconv.AppendInt(b, int64(c.Servers), 10)
	b = append(b, `,"middles":`...)
	b = strconv.AppendInt(b, int64(c.Middles), 10)
	b = append(b, `,"flows":[`...)
	for i, f := range c.Flows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"srcSwitch":`...)
		b = strconv.AppendInt(b, int64(f.SrcSwitch), 10)
		b = append(b, `,"srcServer":`...)
		b = strconv.AppendInt(b, int64(f.SrcServer), 10)
		b = append(b, `,"dstSwitch":`...)
		b = strconv.AppendInt(b, int64(f.DstSwitch), 10)
		b = append(b, `,"dstServer":`...)
		b = strconv.AppendInt(b, int64(f.DstServer), 10)
		b = append(b, '}')
	}
	b = append(b, ']')
	flowsEnd := len(b)
	if len(c.Demands) > 0 {
		b = append(b, `,"demands":[`...)
		for i, d := range c.Demands {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '"')
			b = append(b, d...)
			b = append(b, '"')
		}
		b = append(b, ']')
	}
	if len(c.Assignment) > 0 {
		b = append(b, `,"assignment":[`...)
		for i, m := range c.Assignment {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(m), 10)
		}
		b = append(b, ']')
	}
	return append(b, '}'), flowsEnd
}

// Hash returns the SHA-256 content address of the scenario: the hash
// of the compact JSON encoding of its canonical form. Semantically
// equal scenarios — same instance up to flow order, demand-string
// representation and name — hash equal; any change to the shape, the
// flows, a demand value or the assignment changes the hash.
func (s *Scenario) Hash() ([32]byte, error) {
	cz, err := Canonicalize(s)
	if err != nil {
		return [32]byte{}, err
	}
	return cz.Hash, nil
}

// TopologyHash returns the SHA-256 address of the scenario's topology:
// the hash of the compact JSON encoding of its canonical form with the
// demands and assignment stripped (the shape plus the canonically
// ordered flow list). Scenarios that share a topology hash build the
// identical (Fabric, Collection) pair from their canonical forms, so
// evaluator state prepared for one can evaluate any assignment of the
// other — the key of the serving layer's shared-evaluator pool
// (internal/engine).
//
// Ties in the canonical flow sort that are broken by demand or
// assignment only occur between flows identical in all four endpoint
// indices, so the projected (src, dst) sequence — all the evaluator
// sees — is uniquely determined by the hashed value: equal hashes can
// never alias two different flow collections.
func TopologyHash(s *Scenario) ([32]byte, error) {
	cz, err := Canonicalize(s)
	if err != nil {
		return [32]byte{}, err
	}
	return cz.TopologyHash, nil
}

// LoadFile reads and decodes a scenario file — the one JSON-reading
// path shared by the CLIs and the closnetd daemon.
func LoadFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	return Decode(data)
}
