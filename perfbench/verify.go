package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"sync"

	"closnet/internal/codec"
	"closnet/internal/core"
	"closnet/internal/engine"
)

// refEngine is a fresh in-process engine with the daemon's default
// settings: the reference every daemon reply is compared against.
func refEngine() *engine.Engine { return engine.New(engine.Options{SearchWorkers: 1}) }

// refSet holds the expected reply bodies of a workload, parallel to its
// inputs.
type refSet struct {
	warmup [][]byte
	bodies [][]byte
	open   [][]byte // session-churn: evaluate of each plan's opening state
}

// references computes every expected reply before anything is timed.
func references(w *workload) (*refSet, error) {
	eng := refEngine()
	refs := &refSet{}
	if w.plans != nil {
		for _, p := range w.plans {
			st, err := p.openState()
			if err != nil {
				return nil, err
			}
			body, err := evaluateBody(eng, st.scenario(p.initial))
			if err != nil {
				return nil, err
			}
			refs.open = append(refs.open, body)
		}
		return refs, nil
	}
	var err error
	if refs.warmup, err = runAll(eng, w.op, w.warmup); err != nil {
		return nil, err
	}
	if refs.bodies, err = runAll(eng, w.op, w.bodies); err != nil {
		return nil, err
	}
	return refs, nil
}

// runAll runs op over every distinct body on conns goroutines and
// returns the reply bodies in input order.
func runAll(eng *engine.Engine, op string, bodies [][]byte) ([][]byte, error) {
	first := make(map[string]int, len(bodies))
	var distinct []int
	for i, b := range bodies {
		if _, ok := first[string(b)]; !ok {
			first[string(b)] = i
			distinct = append(distinct, i)
		}
	}
	out := make([][]byte, len(bodies))
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := g; j < len(distinct); j += conns {
				i := distinct[j]
				scen, err := codec.Decode(bodies[i])
				if err != nil {
					errs[g] = err
					return
				}
				resp, err := eng.Run(context.Background(), engine.Request{Op: op, Scenario: scen})
				if err != nil {
					errs[g] = fmt.Errorf("reference %s for body %d: %w", op, i, err)
					return
				}
				out[i] = resp.Body
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i, b := range bodies {
		out[i] = out[first[string(b)]]
	}
	return out, nil
}

func evaluateBody(eng *engine.Engine, s *codec.Scenario) ([]byte, error) {
	resp, err := eng.Run(context.Background(), engine.Request{Op: engine.OpEvaluate, Scenario: s})
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// allocReply is the part of an evaluate or search reply the
// allocation checks read.
type allocReply struct {
	Hash       string   `json:"hash"`
	Flows      int      `json:"flows"`
	Assignment []int    `json:"assignment"`
	Rates      []string `json:"rates"`
	Throughput string   `json:"throughput"`
}

// checkAllocation verifies a reply to scenBody with the paper's
// characterisation rather than by comparison: the reported rates must
// be feasible for the reported routing (core.IsFeasible) and every
// flow must have a bottleneck link (core.IsMaxMinFair, Lemma 2.2).
func checkAllocation(scenBody, reply []byte) error {
	scen, err := codec.Decode(scenBody)
	if err != nil {
		return err
	}
	canon, err := codec.Canonical(scen)
	if err != nil {
		return err
	}
	fab, fs, _, _, err := canon.Build()
	if err != nil {
		return err
	}
	var r allocReply
	if err := json.Unmarshal(reply, &r); err != nil {
		return err
	}
	a := make(core.Allocation, len(r.Rates))
	for i, s := range r.Rates {
		var ok bool
		if a[i], ok = new(big.Rat).SetString(s); !ok {
			return fmt.Errorf("rate %q is not a rational", s)
		}
	}
	routing, err := core.ClosRouting(fab, fs, core.MiddleAssignment(r.Assignment))
	if err != nil {
		return err
	}
	if err := core.IsFeasible(fab.Network(), fs, routing, a); err != nil {
		return fmt.Errorf("infeasible allocation: %w", err)
	}
	if err := core.IsMaxMinFair(fab.Network(), fs, routing, a); err != nil {
		return fmt.Errorf("allocation is not max-min fair: %w", err)
	}
	return nil
}

// checkExhaustive verifies that a pruned lex search reply has the
// assignment and rates of the exhaustive search:lex optimum.
func checkExhaustive(eng *engine.Engine, scenBody, reply []byte) error {
	scen, err := codec.Decode(scenBody)
	if err != nil {
		return err
	}
	resp, err := eng.Run(context.Background(), engine.Request{Op: engine.OpSearchLex, Scenario: scen})
	if err != nil {
		return err
	}
	var got, want allocReply
	if err := json.Unmarshal(reply, &got); err != nil {
		return err
	}
	if err := json.Unmarshal(resp.Body, &want); err != nil {
		return err
	}
	if got.Hash != want.Hash || !slices.Equal(got.Assignment, want.Assignment) || !slices.Equal(got.Rates, want.Rates) {
		return fmt.Errorf("pruned search reply differs from the exhaustive optimum")
	}
	return nil
}

// sessionReply is the part of a session reply the checks read.
type sessionReply struct {
	Session    string   `json:"session"`
	Seq        int      `json:"seq"`
	Hash       string   `json:"hash"`
	Flows      []int    `json:"flows"`
	Assignment []int    `json:"assignment"`
	Rates      []string `json:"rates"`
	Throughput string   `json:"throughput"`
}

// checkSession verifies a session reply against the evaluate reply of
// the state it should hold: same hash, assignment, rates and
// throughput, and the same live flow IDs.
func checkSession(reply, evalReply []byte, ids []int) (*sessionReply, error) {
	var got sessionReply
	if err := json.Unmarshal(reply, &got); err != nil {
		return nil, fmt.Errorf("session reply: %w", err)
	}
	var want allocReply
	if err := json.Unmarshal(evalReply, &want); err != nil {
		return nil, err
	}
	switch {
	case got.Hash != want.Hash:
		return nil, fmt.Errorf("session seq %d: hash %s, evaluate says %s", got.Seq, got.Hash, want.Hash)
	case !slices.Equal(got.Assignment, want.Assignment):
		return nil, fmt.Errorf("session seq %d: assignment differs from evaluate", got.Seq)
	case !slices.Equal(got.Rates, want.Rates) || got.Throughput != want.Throughput:
		return nil, fmt.Errorf("session seq %d: rates differ from evaluate", got.Seq)
	}
	flows := append([]int(nil), got.Flows...)
	sort.Ints(flows)
	live := append([]int(nil), ids...)
	sort.Ints(live)
	if !slices.Equal(flows, live) {
		return nil, fmt.Errorf("session seq %d: live flow IDs differ from the delta stream's", got.Seq)
	}
	return &got, nil
}

// deltaCheck is the per-reply check of one session delta, cheap enough
// to run on every reply inside the timed window: the reply names the
// session, the delta's sequence number and, for an arrival, the flow ID
// the stream expects. Sampled replies are checked in full afterwards.
func deltaCheck(session string, p *sessionPlan, k int) func([]byte) error {
	prefix := `{"session":"` + session + `","op":"session:delta","seq":` + strconv.Itoa(k+1) + `,"hash":"`
	suffix := "\"}\n"
	if id := p.arrived[k]; id >= 0 {
		suffix = `,"arrived":` + strconv.Itoa(id) + "}\n"
	}
	return func(resp []byte) error {
		if !bytes.HasPrefix(resp, []byte(prefix)) || !bytes.HasSuffix(resp, []byte(suffix)) {
			return fmt.Errorf("delta %d: unexpected reply %.120s", k, resp)
		}
		return nil
	}
}

// sample draws count distinct indices below n, seeded, ascending.
func sample(seed int64, n, count int) []int {
	if count > n {
		count = n
	}
	idx := rand.New(rand.NewSource(seed)).Perm(n)[:count]
	sort.Ints(idx)
	return idx
}
