package engine_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"closnet/internal/codec"
	"closnet/internal/engine"
	"closnet/internal/obs"
)

func sessionEngine(opts engine.Options) *engine.Engine {
	if opts.Obs == nil {
		opts.Obs = &obs.Obs{Reg: obs.NewRegistry()}
	}
	return engine.New(opts)
}

// sessionScenario is a 4-ToR, 2-server, 2-middle Clos with two flows
// deliberately listed in non-canonical order.
func sessionScenario() *codec.Scenario {
	return &codec.Scenario{
		Tors: 4, Servers: 2, Middles: 2,
		Flows: []codec.FlowJSON{
			{SrcSwitch: 3, SrcServer: 1, DstSwitch: 4, DstServer: 1},
			{SrcSwitch: 1, SrcServer: 1, DstSwitch: 2, DstServer: 1},
		},
		Assignment: []int{2, 1},
	}
}

// TestSessionMatchesOneShotEvaluate is the session contract: after any
// delta sequence, the session response's hash, assignment, rates, and
// throughput equal what a one-shot evaluate of the end state reports.
func TestSessionMatchesOneShotEvaluate(t *testing.T) {
	eng := sessionEngine(engine.Options{})
	ctx := context.Background()

	resp, err := eng.Sessions().Open(ctx, sessionScenario())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Op != engine.OpSessionOpen || resp.Seq != 0 {
		t.Fatalf("open response op=%q seq=%d", resp.Op, resp.Seq)
	}
	// Session flow IDs are assigned in canonical order: id 0 is the
	// (1,1)->(2,1) flow, id 1 the (3,1)->(4,1) flow.
	if len(resp.Flows) != 2 || resp.Flows[0] != 0 || resp.Flows[1] != 1 {
		t.Fatalf("open flow ids %v", resp.Flows)
	}

	deltas := []string{
		`{"op":"arrive","flow":{"srcSwitch":1,"srcServer":2,"dstSwitch":3,"dstServer":2},"middle":1}`,
		`{"op":"arrive","flow":{"srcSwitch":2,"srcServer":1,"dstSwitch":1,"dstServer":1},"middle":2}`,
		`{"op":"reroute","id":0,"middle":2}`,
		`{"op":"depart","id":1}`,
		`{"op":"arrive","flow":{"srcSwitch":4,"srcServer":2,"dstSwitch":2,"dstServer":2},"middle":1}`,
		`{"op":"reroute","id":3,"middle":1}`,
	}
	var last *engine.SessionResponse
	for i, raw := range deltas {
		d, err := codec.DecodeDelta([]byte(raw))
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		last, err = eng.Sessions().Delta(ctx, resp.Session, d)
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		if last.Seq != i+1 {
			t.Fatalf("delta %d: seq %d", i, last.Seq)
		}
	}
	// Arrivals got ids 2, 3, 4; id 1 departed. Live: 0, 2, 3, 4.
	// End state: flow 0 on middle 2 (rerouted), flow 2 on middle 1,
	// flow 3 on middle 1 (rerouted from 2), flow 4 on middle 1.
	end := &codec.Scenario{
		Tors: 4, Servers: 2, Middles: 2,
		Flows: []codec.FlowJSON{
			{SrcSwitch: 1, SrcServer: 1, DstSwitch: 2, DstServer: 1}, // id 0
			{SrcSwitch: 1, SrcServer: 2, DstSwitch: 3, DstServer: 2}, // id 2
			{SrcSwitch: 2, SrcServer: 1, DstSwitch: 1, DstServer: 1}, // id 3
			{SrcSwitch: 4, SrcServer: 2, DstSwitch: 2, DstServer: 2}, // id 4
		},
		Assignment: []int{2, 1, 1, 1},
	}
	oneShot, err := eng.Run(ctx, engine.Request{Op: engine.OpEvaluate, Scenario: end})
	if err != nil {
		t.Fatal(err)
	}
	var ev struct {
		Hash       string   `json:"hash"`
		Assignment []int    `json:"assignment"`
		Rates      []string `json:"rates"`
		Throughput string   `json:"throughput"`
	}
	if err := json.Unmarshal(oneShot.Body, &ev); err != nil {
		t.Fatal(err)
	}
	if last.Hash != ev.Hash {
		t.Fatalf("session hash %s != one-shot %s", last.Hash, ev.Hash)
	}
	if fmt.Sprint(last.Assignment) != fmt.Sprint(ev.Assignment) {
		t.Fatalf("session assignment %v != one-shot %v", last.Assignment, ev.Assignment)
	}
	if fmt.Sprint(last.Rates) != fmt.Sprint(ev.Rates) {
		t.Fatalf("session rates %v != one-shot %v", last.Rates, ev.Rates)
	}
	if last.Throughput != ev.Throughput {
		t.Fatalf("session throughput %s != one-shot %s", last.Throughput, ev.Throughput)
	}

	closed, err := eng.Sessions().Close(ctx, resp.Session)
	if err != nil {
		t.Fatal(err)
	}
	if !closed.Closed || closed.Deltas != len(deltas) {
		t.Fatalf("close response %+v", closed)
	}
}

// TestSessionArrivedIDAndEmptyOpen: an empty session admits flows one
// at a time, reporting each new ID; draining it back to empty is legal.
func TestSessionArrivedIDAndEmptyOpen(t *testing.T) {
	eng := sessionEngine(engine.Options{})
	ctx := context.Background()
	resp, err := eng.Sessions().Open(ctx, &codec.Scenario{Tors: 4, Servers: 2, Middles: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Flows) != 0 || resp.Throughput != "0" {
		t.Fatalf("empty open response %+v", resp)
	}
	d, _ := codec.DecodeDelta([]byte(`{"op":"arrive","flow":{"srcSwitch":1,"srcServer":1,"dstSwitch":2,"dstServer":1},"middle":1}`))
	r, err := eng.Sessions().Delta(ctx, resp.Session, d)
	if err != nil {
		t.Fatal(err)
	}
	if r.Arrived == nil || *r.Arrived != 0 {
		t.Fatalf("arrive response did not report id 0: %+v", r)
	}
	if len(r.Rates) != 1 || r.Rates[0] != "1" {
		t.Fatalf("lone flow rates %v", r.Rates)
	}
	d, _ = codec.DecodeDelta([]byte(`{"op":"depart","id":0}`))
	r, err = eng.Sessions().Delta(ctx, resp.Session, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Flows) != 0 || r.Arrived != nil {
		t.Fatalf("drained session response %+v", r)
	}
}

// TestSessionDeltaErrorsLeaveStateIntact: structural and semantic delta
// failures return errors without mutating the session.
func TestSessionDeltaErrorsLeaveStateIntact(t *testing.T) {
	eng := sessionEngine(engine.Options{})
	ctx := context.Background()
	resp, err := eng.Sessions().Open(ctx, sessionScenario())
	if err != nil {
		t.Fatal(err)
	}
	bad := []string{
		`{"op":"arrive","flow":{"srcSwitch":9,"srcServer":1,"dstSwitch":1,"dstServer":1},"middle":1}`,
		`{"op":"arrive","flow":{"srcSwitch":1,"srcServer":1,"dstSwitch":2,"dstServer":1},"middle":7}`,
		`{"op":"reroute","id":0,"middle":9}`,
		`{"op":"reroute","id":42,"middle":1}`,
		`{"op":"depart","id":42}`,
	}
	for i, raw := range bad {
		var d codec.Delta
		if err := json.Unmarshal([]byte(raw), &d); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Sessions().Delta(ctx, resp.Session, &d); err == nil {
			t.Fatalf("bad delta %d accepted", i)
		}
	}
	// Session still live and unchanged.
	d, _ := codec.DecodeDelta([]byte(`{"op":"reroute","id":0,"middle":1}`))
	r, err := eng.Sessions().Delta(ctx, resp.Session, d)
	if err != nil {
		t.Fatal(err)
	}
	if r.Seq != 1 {
		t.Fatalf("failed deltas advanced seq: %d", r.Seq)
	}
}

// TestSessionTTLExpiry: a session idle past the TTL is evicted lazily
// and a touched one survives. Uses the injected clock.
func TestSessionTTLExpiry(t *testing.T) {
	eng := sessionEngine(engine.Options{SessionTTL: time.Minute})
	ctx := context.Background()
	now := time.Unix(1000, 0)
	eng.Sessions().SetClock(func() time.Time { return now })

	idle, err := eng.Sessions().Open(ctx, sessionScenario())
	if err != nil {
		t.Fatal(err)
	}
	live, err := eng.Sessions().Open(ctx, sessionScenario())
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(40 * time.Second)
	d, _ := codec.DecodeDelta([]byte(`{"op":"reroute","id":0,"middle":1}`))
	if _, err := eng.Sessions().Delta(ctx, live.Session, d); err != nil {
		t.Fatal(err)
	}
	now = now.Add(40 * time.Second) // idle is 80s old, live 40s
	if _, err := eng.Sessions().Delta(ctx, live.Session, d); err != nil {
		t.Fatalf("touched session expired: %v", err)
	}
	if _, err := eng.Sessions().Delta(ctx, idle.Session, d); !errors.Is(err, engine.ErrSessionNotFound) {
		t.Fatalf("idle session: got %v, want ErrSessionNotFound", err)
	}
	st := eng.Sessions().Stats()
	if st.Open != 1 || st.Expired != 1 || st.Opened != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestSessionTableBound: the table refuses opens past MaxSessions and
// admits again after a close.
func TestSessionTableBound(t *testing.T) {
	eng := sessionEngine(engine.Options{MaxSessions: 3})
	ctx := context.Background()
	var ids []string
	for i := 0; i < 3; i++ {
		r, err := eng.Sessions().Open(ctx, sessionScenario())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, r.Session)
	}
	if _, err := eng.Sessions().Open(ctx, sessionScenario()); !errors.Is(err, engine.ErrSessionTableFull) {
		t.Fatalf("4th open: got %v, want ErrSessionTableFull", err)
	}
	if _, err := eng.Sessions().Close(ctx, ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Sessions().Open(ctx, sessionScenario()); err != nil {
		t.Fatalf("open after close: %v", err)
	}
	st := eng.Sessions().Stats()
	if st.Open != 3 || st.Capacity != 3 || st.Closed != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestSessionCloseIdempotency: closing twice or touching a closed
// session reports ErrSessionNotFound, as does a bogus ID.
func TestSessionCloseIdempotency(t *testing.T) {
	eng := sessionEngine(engine.Options{})
	ctx := context.Background()
	r, err := eng.Sessions().Open(ctx, sessionScenario())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Sessions().Close(ctx, r.Session); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Sessions().Close(ctx, r.Session); !errors.Is(err, engine.ErrSessionNotFound) {
		t.Fatalf("double close: %v", err)
	}
	d, _ := codec.DecodeDelta([]byte(`{"op":"depart","id":0}`))
	if _, err := eng.Sessions().Delta(ctx, r.Session, d); !errors.Is(err, engine.ErrSessionNotFound) {
		t.Fatalf("delta on closed session: %v", err)
	}
	if _, err := eng.Sessions().Close(ctx, "no-such-session"); !errors.Is(err, engine.ErrSessionNotFound) {
		t.Fatalf("bogus close: %v", err)
	}
}

// TestSessionOpsListedButNotComputable: the session op family appears
// in Ops() yet Prepare routes callers to the session API.
func TestSessionOpsListedButNotComputable(t *testing.T) {
	eng := sessionEngine(engine.Options{})
	listed := map[string]bool{}
	for _, op := range eng.Ops() {
		listed[op] = true
	}
	for _, op := range []string{engine.OpSessionOpen, engine.OpSessionDelta, engine.OpSessionClose} {
		if !listed[op] {
			t.Errorf("%s missing from Ops()", op)
		}
		if _, err := eng.Prepare(engine.Request{Op: op, Scenario: sessionScenario()}); err == nil {
			t.Errorf("Prepare accepted stateful op %s", op)
		}
	}
}

// TestSessionConcurrentIsolation: concurrent sessions mutate
// independently; run under -race this also proves the table locking.
func TestSessionConcurrentIsolation(t *testing.T) {
	eng := sessionEngine(engine.Options{})
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r, err := eng.Sessions().Open(ctx, sessionScenario())
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 10; i++ {
				m := 1 + (g+i)%2
				d := &codec.Delta{Op: codec.DeltaReroute, ID: 0, Middle: m}
				if _, err := eng.Sessions().Delta(ctx, r.Session, d); err != nil {
					errs <- err
					return
				}
			}
			if _, err := eng.Sessions().Close(ctx, r.Session); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := eng.Sessions().Stats()
	if st.Open != 0 || st.Opened != 8 || st.Closed != 8 || st.Deltas != 80 {
		t.Fatalf("stats %+v", st)
	}
}

// TestSessionCounters: the session table instruments opens, deltas,
// closes, expiries, and the open gauge.
func TestSessionCounters(t *testing.T) {
	o := &obs.Obs{Reg: obs.NewRegistry()}
	eng := sessionEngine(engine.Options{Obs: o, SessionTTL: time.Minute})
	ctx := context.Background()
	now := time.Unix(0, 0)
	eng.Sessions().SetClock(func() time.Time { return now })

	r, err := eng.Sessions().Open(ctx, sessionScenario())
	if err != nil {
		t.Fatal(err)
	}
	d, _ := codec.DecodeDelta([]byte(`{"op":"reroute","id":0,"middle":1}`))
	if _, err := eng.Sessions().Delta(ctx, r.Session, d); err != nil {
		t.Fatal(err)
	}
	now = now.Add(time.Hour)
	eng.Sessions().Stats() // prunes

	snap := o.Reg.Snapshot()
	for name, want := range map[string]int64{
		"engine.sessions.opened":  1,
		"engine.sessions.deltas":  1,
		"engine.sessions.expired": 1,
		"engine.sessions.closed":  0,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := snap.Gauges["engine.sessions.open"]; got != 0 {
		t.Errorf("open gauge = %d after expiry", got)
	}
	// The session's incremental evaluator is instrumented through the
	// same registry.
	if snap.Counters["core.delta_fills"] == 0 {
		t.Error("session deltas did not drive core.delta_fills")
	}
}

// TestSessionDeltasDoNotDeadlock is the lock-order regression test: two
// goroutines send interleaved deltas to two sessions. Each delta's
// table lookup takes the table lock and then, while pruning, every
// session's lock; a delta that took the table lock while holding its
// own session's (to count itself) deadlocked against the other
// goroutine's lookup. The test fails if the deltas do not finish
// within the deadline.
func TestSessionDeltasDoNotDeadlock(t *testing.T) {
	eng := sessionEngine(engine.Options{})
	ctx := context.Background()
	ids := make([]string, 2)
	for i := range ids {
		r, err := eng.Sessions().Open(ctx, sessionScenario())
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = r.Session
	}
	const perSession = 2000
	done := make(chan error, len(ids))
	for g, id := range ids {
		go func(g int, id string) {
			for i := 0; i < perSession; i++ {
				d := &codec.Delta{Op: codec.DeltaReroute, ID: 0, Middle: 1 + (g+i)%2}
				if _, err := eng.Sessions().Delta(ctx, id, d); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g, id)
	}
	deadline := time.After(20 * time.Second)
	for range ids {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("session deltas deadlocked: two sessions taking deltas concurrently did not finish")
		}
	}
	if st := eng.Sessions().Stats(); st.Deltas != 2*perSession {
		t.Fatalf("deltas = %d, want %d", st.Deltas, 2*perSession)
	}
}
