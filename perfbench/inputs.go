package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"closnet/internal/codec"
	"closnet/internal/corpus"
	"closnet/internal/gen"
)

// The workloads. Each drives one serving path of closnetd and bypasses
// the others; the README gives the reasons.
const (
	evaluateCold = "evaluate-cold"
	evaluateWarm = "evaluate-warm"
	sessionChurn = "session-churn"
	searchLex    = "search-lex"
)

var workloadNames = []string{evaluateCold, evaluateWarm, sessionChurn, searchLex}

// conns is the number of client connections, one per core of the
// two-core machines the benchmark is sized for. Every connection runs a
// closed loop: it sends its next request when the previous reply has
// been read and checked.
const conns = 2

// Input sizes. Each connection replays its half of coldScenarios or
// searchInstances cyclically; a half still exceeds both the daemon's
// result cache (server.DefaultCacheSize, 1024 entries, LRU) and its
// evaluator pool (64 topologies, FIFO), so every request misses both
// even if the other connection stalls.
const (
	closN           = 8    // C_8: 16 ToRs of 8 servers, 8 middles
	coldFlows       = 128  // flows per evaluate-cold scenario
	coldScenarios   = 3072 // distinct timed evaluate-cold bodies
	coldWarmup      = 128  // distinct warm-up bodies, never replayed
	warmReplay      = 1024 // seeded replay order over the paper corpus
	corpusN         = 4    // corpus families over C_4
	searchN         = 4    // C_4 instances for search-lex
	searchFlows     = 10
	searchInstances = 3072
	searchWarmup    = 64
	sessionFlows    = 128   // flows a session opens with
	sessionLow      = 112   // a depart never takes a session below this
	sessionHigh     = 144   // an arrive never takes a session above this
	sessionDeltas   = 50000 // deltas generated per connection
	sessionWarmup   = 256   // leading deltas sent before the timed window
	sessionSample   = 512   // one delta in this many is checked in full
)

// workload is one generated input set. The daemon sees only the encoded
// bodies.
type workload struct {
	name   string
	op     string // engine op of the stateless workloads
	path   string // request path, query included
	warmup [][]byte
	bodies [][]byte // replayed cyclically, connection c taking c, c+conns, ...
	plans  []*sessionPlan
}

// sessionPlan is one connection's session-churn input: the scenario it
// opens and the delta stream it sends, with the session flow IDs the
// daemon is expected to assign (sessions number their opening flows
// 0..n-1 in canonical order and each arrival with the next ID).
type sessionPlan struct {
	open    []byte
	initial *codec.Scenario
	deltas  []codec.Delta
	bodies  [][]byte
	arrived []int  // the flow ID an arrive delta is assigned, else -1
	sampled []bool // deltas whose response is checked in full
}

// build generates the inputs of workload name from seed. The same
// (name, seed) pair always yields byte-identical bodies and delta
// streams.
func build(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case evaluateCold:
		w := &workload{name: name, op: "evaluate", path: "/v1/evaluate"}
		var err error
		if w.warmup, err = closBodies(rng, coldWarmup, closN, coldFlows, gen.ModelGravity, true); err != nil {
			return nil, err
		}
		if w.bodies, err = closBodies(rng, coldScenarios, closN, coldFlows, gen.ModelGravity, true); err != nil {
			return nil, err
		}
		return w, nil
	case evaluateWarm:
		w := &workload{name: name, op: "evaluate", path: "/v1/evaluate"}
		bodies, _, err := corpus.Build(corpusN, corpus.Families())
		if err != nil {
			return nil, err
		}
		w.warmup = bodies
		for i := 0; i < warmReplay; i++ {
			w.bodies = append(w.bodies, bodies[rng.Intn(len(bodies))])
		}
		return w, nil
	case searchLex:
		w := &workload{name: name, op: "search:lex:pruned", path: "/v1/search?objective=lex&strategy=pruned"}
		var err error
		if w.warmup, err = closBodies(rng, searchWarmup, searchN, searchFlows, gen.ModelUniform, false); err != nil {
			return nil, err
		}
		if w.bodies, err = closBodies(rng, searchInstances, searchN, searchFlows, gen.ModelUniform, false); err != nil {
			return nil, err
		}
		return w, nil
	case sessionChurn:
		w := &workload{name: name}
		for c := 0; c < conns; c++ {
			p, err := newSessionPlan(rng.Int63())
			if err != nil {
				return nil, err
			}
			w.plans = append(w.plans, p)
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
}

// closScenario draws one C_n scenario with the given traffic model and
// flow count; withMiddles adds a uniformly random middle per flow.
func closScenario(seed int64, n, flows int, model string, withMiddles bool) (*codec.Scenario, error) {
	sp, err := gen.ClosSpec(n)
	if err != nil {
		return nil, err
	}
	s, err := gen.Scenario(sp, gen.TrafficConfig{Model: model, Flows: flows, Seed: seed})
	if err != nil {
		return nil, err
	}
	if withMiddles {
		r := rand.New(rand.NewSource(^seed))
		s.Assignment = make([]int, len(s.Flows))
		for i := range s.Assignment {
			s.Assignment[i] = 1 + r.Intn(sp.Middles)
		}
	}
	return s, nil
}

// closBodies encodes count scenarios drawn by closScenario, each from
// its own seed taken from rng.
func closBodies(rng *rand.Rand, count, n, flows int, model string, withMiddles bool) ([][]byte, error) {
	out := make([][]byte, count)
	for i := range out {
		s, err := closScenario(rng.Int63(), n, flows, model, withMiddles)
		if err != nil {
			return nil, err
		}
		if out[i], err = codec.Encode(s); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// newSessionPlan draws a session's opening scenario and its delta
// stream: 50% reroutes to a different middle, 25% arrivals, 25%
// departures. An arrival that would leave the band [sessionLow,
// sessionHigh] becomes a departure and vice versa, which keeps the
// live flow count near sessionFlows without changing the mix.
func newSessionPlan(seed int64) (*sessionPlan, error) {
	s, err := closScenario(seed, closN, sessionFlows, gen.ModelGravity, true)
	if err != nil {
		return nil, err
	}
	open, err := codec.Encode(s)
	if err != nil {
		return nil, err
	}
	p := &sessionPlan{open: open, initial: s}
	st, err := p.openState()
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(seed + 1))
	live := st.ids
	middle := make(map[int]int, len(live))
	for i, id := range live {
		middle[id] = st.middle[i]
	}
	next := len(live)
	for k := 0; k < sessionDeltas; k++ {
		var d codec.Delta
		arrived := -1
		u := rng.Float64()
		arrive := u < 0.75
		if arrive && len(live) >= sessionHigh {
			arrive = false
		} else if !arrive && len(live) <= sessionLow {
			arrive = true
		}
		switch {
		case u < 0.5:
			id := live[rng.Intn(len(live))]
			m := 1 + (middle[id]+rng.Intn(s.Middles-1))%s.Middles
			d = codec.Delta{Op: codec.DeltaReroute, ID: id, Middle: m}
			middle[id] = m
		case arrive:
			f := codec.FlowJSON{
				SrcSwitch: 1 + rng.Intn(s.Tors), SrcServer: 1 + rng.Intn(s.Servers),
				DstSwitch: 1 + rng.Intn(s.Tors), DstServer: 1 + rng.Intn(s.Servers),
			}
			d = codec.Delta{Op: codec.DeltaArrive, Flow: &f, Middle: 1 + rng.Intn(s.Middles)}
			arrived = next
			middle[next] = d.Middle
			live = append(live, next)
			next++
		default:
			j := rng.Intn(len(live))
			d = codec.Delta{Op: codec.DeltaDepart, ID: live[j]}
			delete(middle, live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		body, err := json.Marshal(d)
		if err != nil {
			return nil, err
		}
		p.deltas = append(p.deltas, d)
		p.bodies = append(p.bodies, body)
		p.arrived = append(p.arrived, arrived)
		p.sampled = append(p.sampled, rng.Intn(sessionSample) == 0)
	}
	return p, nil
}

// sessionState is the flow set a session holds after a prefix of its
// delta stream, in session insertion order.
type sessionState struct {
	ids    []int
	flows  []codec.FlowJSON
	middle []int
}

// replayPlan applies deltas[0:upto] of p to its opening state and calls
// at(k, state) after each delta k listed in want (ascending), state
// being the flow set after deltas[0..k]. It is the reference model of
// the session layer: open in canonical order, arrive appends, depart
// removes, reroute changes the middle.
func replayPlan(p *sessionPlan, want []int, at func(k int, st *sessionState) error) error {
	st, err := p.openState()
	if err != nil {
		return err
	}
	next := len(st.ids)
	find := func(id int) int {
		for i, x := range st.ids {
			if x == id {
				return i
			}
		}
		return -1
	}
	for k, d := range p.deltas {
		if len(want) == 0 {
			return nil
		}
		switch d.Op {
		case codec.DeltaArrive:
			st.ids = append(st.ids, next)
			st.flows = append(st.flows, *d.Flow)
			st.middle = append(st.middle, d.Middle)
			next++
		case codec.DeltaDepart:
			i := find(d.ID)
			if i < 0 {
				return fmt.Errorf("delta %d departs unknown flow %d", k, d.ID)
			}
			st.ids = append(st.ids[:i], st.ids[i+1:]...)
			st.flows = append(st.flows[:i], st.flows[i+1:]...)
			st.middle = append(st.middle[:i], st.middle[i+1:]...)
		case codec.DeltaReroute:
			i := find(d.ID)
			if i < 0 {
				return fmt.Errorf("delta %d reroutes unknown flow %d", k, d.ID)
			}
			st.middle[i] = d.Middle
		}
		if want[0] == k {
			if err := at(k, st); err != nil {
				return err
			}
			want = want[1:]
		}
	}
	if len(want) > 0 {
		return fmt.Errorf("delta %d is past the end of the stream", want[0])
	}
	return nil
}

// openState is the flow set right after the session opens.
func (p *sessionPlan) openState() (*sessionState, error) {
	stripped := *p.initial
	stripped.Demands = nil
	canon, err := codec.Canonical(&stripped)
	if err != nil {
		return nil, err
	}
	st := &sessionState{}
	for i, f := range canon.Flows {
		st.ids = append(st.ids, i)
		st.flows = append(st.flows, f)
		st.middle = append(st.middle, canon.Assignment[i])
	}
	return st, nil
}

// scenario renders the state as the one-shot evaluate request that must
// give the same hash, assignment and rates as the session.
func (st *sessionState) scenario(shape *codec.Scenario) *codec.Scenario {
	return &codec.Scenario{
		Topology:   shape.Topology,
		Tors:       shape.Tors,
		Servers:    shape.Servers,
		Middles:    shape.Middles,
		Flows:      append([]codec.FlowJSON(nil), st.flows...),
		Assignment: append([]int(nil), st.middle...),
	}
}
