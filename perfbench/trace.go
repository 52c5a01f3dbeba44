package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"closnet/internal/codec"
	"closnet/internal/core"
	"closnet/internal/engine"
	"closnet/internal/rational"
	"closnet/internal/search"
	"closnet/internal/server"
	"closnet/internal/topology"
)

// Requests replayed per pass of the traced run, sized so one pass takes
// about a second.
var replayCount = map[string]int{
	evaluateCold: 256,
	evaluateWarm: 4096,
	sessionChurn: 2048,
	searchLex:    256,
}

// openSamples is how many extra sessions each traced pass opens to time
// engine.session_open.
const openSamples = 8

// span is one timed call into a layer. Spans of one replayed request
// share Req; Parent is the ID of the enclosing span, -1 for a root.
type span struct {
	Req    int    `json:"req"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) us() float64 { return float64(s.End-s.Start) / 1e3 }

// tracer records spans and per-request counts in memory. Off, it
// records nothing, which is the baseline trace.overhead_frac compares
// against.
type tracer struct {
	on     bool
	t0     time.Time
	spans  []span
	counts map[string][]float64
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now(), counts: map[string][]float64{}}
}

func (t *tracer) begin(req int, parent int32, name string) int32 {
	if !t.on {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Req: req, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

func (t *tracer) count(name string, v float64) {
	if t.on {
		t.counts[name] = append(t.counts[name], v)
	}
}

// pipeline replays one workload's requests in process. serve runs
// request i through the server's HTTP handler only; do runs it through
// the handler and then through each layer's public function in the
// order the server calls them, recording a span per call under one root
// span per request.
type pipeline interface {
	serve(i int) ([]byte, error)
	do(tr *tracer, req, i int) error
}

// traced is the outcome of the replay.
type traced struct {
	spans     []span
	counts    map[string][]float64
	perPass   int // requests replayed per pass
	plainDur  time.Duration
	tracedDur time.Duration
	// Deltas over a serve-only pass.
	allocBytes, mallocs, gcs uint64
}

// replay runs four passes over the same requests, tracing off, on, on,
// off (the order cancels a linear drift in machine speed), each on
// freshly built and warmed-up state, then a serve-only pass that
// measures allocation and collection per request.
func replay(w *workload, refs *refSet) (*traced, error) {
	n := replayCount[w.name]
	out := &traced{counts: map[string][]float64{}, perPass: n}
	for pass := 0; pass < 4; pass++ {
		p, err := newPipeline(w, refs)
		if err != nil {
			return nil, err
		}
		tr := newTracer(pass == 1 || pass == 2)
		start := time.Now()
		if sp, ok := p.(*sessionPipeline); ok {
			if err := sp.opens(tr); err != nil {
				return nil, err
			}
		}
		for i := 0; i < n; i++ {
			if err := p.do(tr, pass*n+i, i); err != nil {
				return nil, fmt.Errorf("replay request %d: %w", i, err)
			}
		}
		if tr.on {
			out.tracedDur += time.Since(start)
			base := int32(len(out.spans))
			for _, sp := range tr.spans {
				sp.ID += base
				if sp.Parent >= 0 {
					sp.Parent += base
				}
				out.spans = append(out.spans, sp)
			}
			for k, v := range tr.counts {
				out.counts[k] = append(out.counts[k], v...)
			}
		} else {
			out.plainDur += time.Since(start)
		}
	}

	p, err := newPipeline(w, refs)
	if err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, err := p.serve(i); err != nil {
			return nil, fmt.Errorf("serve-only request %d: %w", i, err)
		}
	}
	runtime.ReadMemStats(&after)
	out.allocBytes = after.TotalAlloc - before.TotalAlloc
	out.mallocs = after.Mallocs - before.Mallocs
	out.gcs = uint64(after.NumGC - before.NumGC)
	return out, nil
}

// computeParts are the layer calls that engine.Compute makes; what
// engine.Compute takes beyond their sum is engine.compute_unattributed.
var computeParts = map[string]bool{
	"codec.topology_hash": true, "topology.build": true, "core.block_new": true,
	"core.block_fill": true, "codec.rates_format": true, "codec.marshal": true,
	"search.lex": true,
}

// values derives the span-based per-layer metrics: the median duration
// of each layer's spans, per-request counts, the memory deltas of the
// serve-only pass, and the two checks on the trace itself.
func (t *traced) values() map[string]float64 {
	byName := map[string][]float64{}
	for _, s := range t.spans {
		byName[s.Name] = append(byName[s.Name], s.us())
	}
	// Per request: the root's duration, the time its children cover,
	// and engine.compute minus its parts.
	type reqSums struct{ root, covered, compute, parts float64 }
	reqs := map[int]*reqSums{}
	for _, s := range t.spans {
		r := reqs[s.Req]
		if r == nil {
			r = &reqSums{}
			reqs[s.Req] = r
		}
		switch {
		case s.Name == "request":
			r.root += s.us()
		case s.Parent >= 0 && t.spans[s.Parent].Name == "request":
			r.covered += s.us()
		}
		if s.Name == "engine.compute" {
			r.compute += s.us()
		}
		if computeParts[s.Name] {
			r.parts += s.us()
		}
	}
	var root, covered float64
	var unattributed []float64
	for _, r := range reqs {
		root += r.root
		covered += r.covered
		if r.compute > 0 {
			unattributed = append(unattributed, r.compute-r.parts)
		}
	}
	mean := func(name string) float64 {
		xs := t.counts[name]
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		return ratio(sum, float64(len(xs)))
	}
	total := func(name string) float64 {
		sum := 0.0
		for _, x := range t.counts[name] {
			sum += x
		}
		return sum
	}
	n := float64(t.perPass)
	return map[string]float64{
		"server.serve_us":                median(byName["server.serve"]),
		"codec.decode_us":                median(byName["codec.decode"]),
		"codec.request_bytes":            median(t.counts["codec.request_bytes"]),
		"engine.prepare_us":              median(byName["engine.prepare"]),
		"codec.topology_hash_us":         median(byName["codec.topology_hash"]),
		"topology.build_us":              median(byName["topology.build"]),
		"core.block_new_us":              median(byName["core.block_new"]),
		"core.block_fill_us":             median(byName["core.block_fill"]),
		"core.block_promotions":          total("core.block_promotions"),
		"codec.rates_format_us":          median(byName["codec.rates_format"]),
		"codec.marshal_us":               median(byName["codec.marshal"]),
		"codec.response_bytes":           median(t.counts["codec.response_bytes"]),
		"engine.compute_us":              median(byName["engine.compute"]),
		"engine.compute_unattributed_us": median(unattributed),
		"engine.session_delta_us":        median(byName["engine.session_delta"]),
		"engine.session_open_us":         median(byName["engine.session_open"]),
		"codec.decode_delta_us":          median(byName["codec.decode_delta"]),
		"core.incremental_delta_us":      median(byName["core.incremental_delta"]),
		"search.lex_us":                  median(byName["search.lex"]),
		"search.evals_per_req":           mean("search.evals"),
		"process.alloc_kb_per_req":       float64(t.allocBytes) / 1024 / n,
		"process.mallocs_per_req":        float64(t.mallocs) / n,
		"process.gc_per_kreq":            float64(t.gcs) * 1000 / n,
		"trace.overhead_frac":            t.tracedDur.Seconds()/t.plainDur.Seconds() - 1,
		"trace.coverage_frac":            ratio(covered, root),
	}
}

// writeSpans writes every span of the traced passes as JSON lines to
// dir/spans-<workload>-seed<seed>.jsonl.
func (t *traced) writeSpans(dir, workload string, seed int64) error {
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func newPipeline(w *workload, refs *refSet) (pipeline, error) {
	srv, err := server.New(server.Options{})
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if w.plans != nil {
		return newSessionPipeline(w, refs, h)
	}
	p := &statelessPipeline{w: w, refs: refs, h: h, eng: refEngine()}
	for i, body := range w.warmup {
		resp, err := serveHTTP(h, w.path, body)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(resp, refs.warmup[i]) {
			return nil, fmt.Errorf("in-process warm-up %d: reply differs from the reference", i)
		}
	}
	return p, nil
}

// serveHTTP runs one POST through h into an in-memory recorder.
func serveHTTP(h http.Handler, path string, body []byte) ([]byte, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %.200s", path, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes(), nil
}

// statelessPipeline replays evaluate-cold, evaluate-warm and
// search-lex.
type statelessPipeline struct {
	w    *workload
	refs *refSet
	h    http.Handler
	eng  *engine.Engine
}

func (p *statelessPipeline) serve(i int) ([]byte, error) {
	idx := i % len(p.w.bodies)
	resp, err := serveHTTP(p.h, p.w.path, p.w.bodies[idx])
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(resp, p.refs.bodies[idx]) {
		return nil, fmt.Errorf("in-process reply to request %d differs from the reference", idx)
	}
	return resp, nil
}

// searchReply mirrors the engine's search response schema.
type searchReply struct {
	Hash       string   `json:"hash"`
	Objective  string   `json:"objective"`
	Strategy   string   `json:"strategy,omitempty"`
	Assignment []int    `json:"assignment"`
	Rates      []string `json:"rates"`
	Throughput string   `json:"throughput"`
	States     int      `json:"states"`
}

func (p *statelessPipeline) do(tr *tracer, req, i int) error {
	idx := i % len(p.w.bodies)
	body, ref := p.w.bodies[idx], p.refs.bodies[idx]
	root := tr.begin(req, -1, "request")
	defer tr.end(root)

	s := tr.begin(req, root, "server.serve")
	resp, err := p.serve(i)
	tr.end(s)
	if err != nil {
		return err
	}
	tr.count("codec.request_bytes", float64(len(body)))
	tr.count("codec.response_bytes", float64(len(resp)))
	if p.w.name == evaluateWarm {
		// A raw-bytes cache hit: the server calls no other layer.
		return nil
	}

	ctx := context.Background()
	s = tr.begin(req, root, "codec.decode")
	scen, err := codec.Decode(body)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin(req, root, "engine.prepare")
	pr, err := p.eng.Prepare(engine.Request{Op: p.w.op, Scenario: scen})
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin(req, root, "engine.compute")
	out, err := p.eng.Compute(ctx, pr)
	tr.end(s)
	if err != nil {
		return err
	}

	var mine []byte
	if p.w.op == engine.OpEvaluate {
		mine, err = p.evaluateParts(tr, req, root, pr)
	} else {
		mine, err = p.searchParts(tr, req, root, pr)
	}
	if err != nil {
		return err
	}
	if !bytes.Equal(out, ref) || !bytes.Equal(mine, ref) {
		return fmt.Errorf("request %d: layer-by-layer reply differs from the reference", idx)
	}
	return nil
}

// evaluateParts replays engine.Compute of the evaluate op one layer
// call at a time, without the evaluator pool (evaluate-cold never hits
// it).
func (p *statelessPipeline) evaluateParts(tr *tracer, req int, root int32, pr *engine.Prepared) ([]byte, error) {
	s := tr.begin(req, root, "codec.topology_hash")
	_, err := codec.TopologyHash(pr.Canon)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin(req, root, "topology.build")
	fab, fs, _, _, err := pr.Canon.Build()
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin(req, root, "core.block_new")
	bev, err := core.NewBlockEvaluator(fab, fs)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	ma := core.MiddleAssignment(pr.Canon.Assignment)
	if ma == nil {
		ma = core.UniformAssignment(len(pr.Canon.Flows), 1)
	}
	s = tr.begin(req, root, "core.block_fill")
	res, err := bev.EvalBlock(ma, 1)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	tr.count("core.block_promotions", float64(bev.Promotions()))
	// Materialising the big.Rat allocation is part of formatting: the
	// rates exist only to be rendered as strings.
	s = tr.begin(req, root, "codec.rates_format")
	a := res.Alloc(0)
	rates := codec.RateStrings(a)
	thr := rational.String(core.Throughput(a))
	tr.end(s)
	s = tr.begin(req, root, "codec.marshal")
	body, err := codec.MarshalBody(allocReply{
		Hash: hex.EncodeToString(pr.Hash[:]), Flows: len(pr.Canon.Flows),
		Assignment: ma, Rates: rates, Throughput: thr,
	})
	tr.end(s)
	return body, err
}

// searchParts replays engine.Compute of the search:lex:pruned op one
// layer call at a time.
func (p *statelessPipeline) searchParts(tr *tracer, req int, root int32, pr *engine.Prepared) ([]byte, error) {
	s := tr.begin(req, root, "topology.build")
	fab, fs, _, _, err := pr.Canon.Build()
	tr.end(s)
	if err != nil {
		return nil, err
	}
	opts := p.eng.SearchOptions(context.Background())
	opts.Pruned = true
	s = tr.begin(req, root, "search.lex")
	res, err := search.LexMaxMin(fab, fs, opts)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	tr.count("search.evals", float64(res.States))
	s = tr.begin(req, root, "codec.rates_format")
	rates := codec.RateStrings(res.Allocation)
	thr := rational.String(core.Throughput(res.Allocation))
	tr.end(s)
	s = tr.begin(req, root, "codec.marshal")
	body, err := codec.MarshalBody(searchReply{
		Hash: hex.EncodeToString(pr.Hash[:]), Objective: "lex", Strategy: "pruned",
		Assignment: res.Assignment, Rates: rates, Throughput: thr, States: res.States,
	})
	tr.end(s)
	return body, err
}

// sessionPipeline replays session-churn three ways at once: through the
// HTTP handler, through the engine's session API, and on a mirror
// core.IncrementalEvaluator that applies each delta with nothing
// around it.
type sessionPipeline struct {
	w       *workload
	h       http.Handler
	eng     *engine.Engine
	httpIDs []string
	engIDs  []string
	mirrors []*mirror
}

// mirror is a bare incremental evaluator following one session.
type mirror struct {
	fab     topology.Fabric
	ie      *core.IncrementalEvaluator
	handles map[int]core.FlowID // session flow ID -> evaluator handle
}

func newSessionPipeline(w *workload, refs *refSet, h http.Handler) (*sessionPipeline, error) {
	p := &sessionPipeline{w: w, h: h, eng: refEngine()}
	ctx := context.Background()
	for c, pl := range w.plans {
		resp, err := serveHTTP(h, "/v1/session", pl.open)
		if err != nil {
			return nil, err
		}
		st, err := pl.openState()
		if err != nil {
			return nil, err
		}
		sr, err := checkSession(resp, refs.open[c], st.ids)
		if err != nil {
			return nil, err
		}
		er, err := p.eng.Sessions().Open(ctx, pl.initial)
		if err != nil {
			return nil, err
		}
		fab, err := topology.BuildFamily(pl.initial.Topology, pl.initial.Tors, pl.initial.Servers, pl.initial.Middles)
		if err != nil {
			return nil, err
		}
		m := &mirror{fab: fab, ie: core.NewIncrementalEvaluator(fab), handles: map[int]core.FlowID{}}
		for j, f := range st.flows {
			hd, err := m.ie.Arrive(m.flow(f), st.middle[j])
			if err != nil {
				return nil, err
			}
			m.handles[st.ids[j]] = hd
		}
		p.httpIDs = append(p.httpIDs, sr.Session)
		p.engIDs = append(p.engIDs, er.Session)
		p.mirrors = append(p.mirrors, m)
	}
	off := newTracer(false)
	for k := 0; k < sessionWarmup; k++ {
		for c := range w.plans {
			if err := p.apply(off, -1, -1, c, k); err != nil {
				return nil, fmt.Errorf("in-process warm-up delta %d: %w", k, err)
			}
		}
	}
	return p, nil
}

func (m *mirror) flow(f codec.FlowJSON) core.Flow {
	return core.Flow{Src: m.fab.Source(f.SrcSwitch, f.SrcServer), Dst: m.fab.Dest(f.DstSwitch, f.DstServer)}
}

// opens times engine.session_open on extra sessions, closed again at
// once so the table stays as the daemon's is, and the fabric build each
// open starts with.
func (p *sessionPipeline) opens(tr *tracer) error {
	ctx := context.Background()
	for j := 0; j < openSamples; j++ {
		scen := p.w.plans[j%len(p.w.plans)].initial
		s := tr.begin(-1-j, -1, "topology.build")
		_, err := topology.BuildFamily(scen.Topology, scen.Tors, scen.Servers, scen.Middles)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin(-1-j, -1, "engine.session_open")
		r, err := p.eng.Sessions().Open(ctx, scen)
		tr.end(s)
		if err != nil {
			return err
		}
		if _, err := p.eng.Sessions().Close(ctx, r.Session); err != nil {
			return err
		}
	}
	return nil
}

// delta maps replay request i to its connection and delta index,
// alternating connections as the daemon's two clients do.
func (p *sessionPipeline) delta(i int) (c, k int) {
	return i % conns, sessionWarmup + i/conns
}

func (p *sessionPipeline) serve(i int) ([]byte, error) {
	c, k := p.delta(i)
	pl := p.w.plans[c]
	resp, err := serveHTTP(p.h, "/v1/session/"+p.httpIDs[c]+"/delta", pl.bodies[k])
	if err != nil {
		return nil, err
	}
	return resp, deltaCheck(p.httpIDs[c], pl, k)(resp)
}

func (p *sessionPipeline) do(tr *tracer, req, i int) error {
	c, k := p.delta(i)
	root := tr.begin(req, -1, "request")
	defer tr.end(root)
	return p.apply(tr, req, root, c, k)
}

// apply sends delta k of connection c through the handler, the codec,
// the engine's session API and the mirror evaluator.
func (p *sessionPipeline) apply(tr *tracer, req int, root int32, c, k int) error {
	pl := p.w.plans[c]
	s := tr.begin(req, root, "server.serve")
	resp, err := serveHTTP(p.h, "/v1/session/"+p.httpIDs[c]+"/delta", pl.bodies[k])
	tr.end(s)
	if err != nil {
		return err
	}
	if err := deltaCheck(p.httpIDs[c], pl, k)(resp); err != nil {
		return err
	}
	tr.count("codec.request_bytes", float64(len(pl.bodies[k])))
	tr.count("codec.response_bytes", float64(len(resp)))

	s = tr.begin(req, root, "codec.decode_delta")
	d, err := codec.DecodeDelta(pl.bodies[k])
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin(req, root, "engine.session_delta")
	er, err := p.eng.Sessions().Delta(context.Background(), p.engIDs[c], d)
	tr.end(s)
	if err != nil {
		return err
	}

	m := p.mirrors[c]
	s = tr.begin(req, root, "core.incremental_delta")
	switch d.Op {
	case codec.DeltaArrive:
		var hd core.FlowID
		if hd, err = m.ie.Arrive(m.flow(*d.Flow), d.Middle); err == nil {
			m.handles[pl.arrived[k]] = hd
		}
	case codec.DeltaDepart:
		err = m.ie.Depart(m.handles[d.ID])
		delete(m.handles, d.ID)
	case codec.DeltaReroute:
		err = m.ie.Reroute(m.handles[d.ID], d.Middle)
	}
	tr.end(s)
	if err != nil {
		return err
	}
	if er.Seq != k+1 || len(er.Flows) != m.ie.Len() {
		return fmt.Errorf("delta %d: engine session at seq %d with %d flows, mirror has %d", k, er.Seq, len(er.Flows), m.ie.Len())
	}
	return nil
}
