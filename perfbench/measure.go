package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"
)

// measurement is what one timed window against the daemon produced.
type measurement struct {
	win           *window
	before, after *stats
	cpu           time.Duration // daemon CPU time spent in the window
	rssMB         float64       // daemon peak RSS over its lifetime

	// session-churn replies kept for the full check after the window:
	// each connection's last reply and its sampled ones.
	last          [conns]keptReply
	samples       [conns][]keptReply
	checkFailures int
}

type keptReply struct {
	k    int // index in the connection's delta stream
	body []byte
}

// measure runs the timed window on a warmed-up daemon.
func measure(d *daemon, w *workload, refs *refSet, sessions []string, dur time.Duration) (*measurement, error) {
	m := &measurement{}
	var err error
	if m.before, err = d.stats(); err != nil {
		return nil, err
	}
	cpu0, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	m.win = drive(d.client, d.base, m.source(w, refs, sessions), dur)
	cpu1, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	m.cpu = cpu1 - cpu0
	if m.after, err = d.stats(); err != nil {
		return nil, fmt.Errorf("after %d requests, %d failed %q: %w", m.win.attempted, m.win.failed, m.win.errs, err)
	}
	if m.rssMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	return m, nil
}

// source yields the timed calls: connection c replays bodies c,
// c+conns, ... cyclically and each reply must equal its reference byte
// for byte; in session-churn connection c sends its own delta stream
// after the warm-up prefix.
func (m *measurement) source(w *workload, refs *refSet, sessions []string) source {
	if w.plans == nil {
		return func(c, i int) (call, bool) {
			idx := (c + conns*i) % len(w.bodies)
			ref := refs.bodies[idx]
			return call{path: w.path, body: w.bodies[idx], check: func(resp []byte) error {
				if !bytes.Equal(resp, ref) {
					return fmt.Errorf("request %d: reply differs from the reference: %.120s", idx, resp)
				}
				return nil
			}}, true
		}
	}
	return func(c, i int) (call, bool) {
		p := w.plans[c]
		k := sessionWarmup + i
		if k >= len(p.deltas) {
			return call{}, false
		}
		quick := deltaCheck(sessions[c], p, k)
		return call{path: "/v1/session/" + sessions[c] + "/delta", body: p.bodies[k], check: func(resp []byte) error {
			if err := quick(resp); err != nil {
				return err
			}
			m.last[c] = keptReply{k: k, body: append(m.last[c].body[:0], resp...)}
			if p.sampled[k] {
				m.samples[c] = append(m.samples[c], keptReply{k: k, body: bytes.Clone(resp)})
			}
			return nil
		}}, true
	}
}

// Sample sizes of the checks that run after the window.
const (
	coldChecked   = 32 // evaluate-cold replies checked with the bottleneck verifier
	searchChecked = 8  // search-lex replies checked against exhaustive search
)

// checkReferences verifies the expected replies themselves, which every
// daemon reply was compared with byte for byte: a seeded sample with
// the bottleneck verifier and, for search-lex, against exhaustive
// search. It returns the number of failed checks.
func checkReferences(w *workload, refs *refSet, seed int64) (int, error) {
	var errs []error
	switch w.name {
	case evaluateCold:
		for _, i := range sample(seed, len(w.bodies), coldChecked) {
			if err := checkAllocation(w.bodies[i], refs.bodies[i]); err != nil {
				errs = append(errs, fmt.Errorf("request %d: %w", i, err))
			}
		}
	case evaluateWarm:
		for i, body := range w.warmup {
			if err := checkAllocation(body, refs.warmup[i]); err != nil {
				errs = append(errs, fmt.Errorf("corpus entry %d: %w", i, err))
			}
		}
	case searchLex:
		eng := refEngine()
		for _, i := range sample(seed, len(w.bodies), searchChecked) {
			if err := checkAllocation(w.bodies[i], refs.bodies[i]); err != nil {
				errs = append(errs, fmt.Errorf("request %d: %w", i, err))
			}
			if err := checkExhaustive(eng, w.bodies[i], refs.bodies[i]); err != nil {
				errs = append(errs, fmt.Errorf("request %d: %w", i, err))
			}
		}
	}
	return len(errs), errors.Join(errs...)
}

// check runs, after the window, the full checks of the session replies
// kept during it and the workload self-checks on the daemon's counters.
// Reply failures add to checkFailures; every failure is returned.
func (m *measurement) check(w *workload) error {
	var errs []error
	fail := func(err error) {
		m.checkFailures++
		errs = append(errs, err)
	}
	eng := refEngine()
	for c, p := range w.plans {
		kept := append([]keptReply(nil), m.samples[c]...)
		if m.last[c].body == nil {
			fail(fmt.Errorf("connection %d: no delta reply to check", c))
			continue
		}
		if n := len(kept); n == 0 || kept[n-1].k != m.last[c].k {
			kept = append(kept, m.last[c])
		}
		want := make([]int, len(kept))
		for j, r := range kept {
			want[j] = r.k
		}
		j := 0
		err := replayPlan(p, want, func(k int, st *sessionState) error {
			ref, err := evaluateBody(eng, st.scenario(p.initial))
			if err != nil {
				return err
			}
			if _, err := checkSession(kept[j].body, ref, st.ids); err != nil {
				fail(fmt.Errorf("connection %d: %w", c, err))
			}
			if n := len(st.ids); n < sessionLow || n > sessionHigh {
				errs = append(errs, fmt.Errorf("connection %d: %d live flows after delta %d, outside [%d, %d]", c, n, k, sessionLow, sessionHigh))
			}
			j++
			return nil
		})
		if err != nil {
			fail(err)
		}
	}
	return errors.Join(append(errs, m.selfCheck(w)...)...)
}

// selfCheck fails the run when the workload stopped exercising what it
// claims to, as the daemon's own counters show.
func (m *measurement) selfCheck(w *workload) []error {
	var errs []error
	expect := func(ok bool, format string, args ...any) {
		if !ok {
			errs = append(errs, fmt.Errorf("self-check: "+format, args...))
		}
	}
	a := m.after
	expect(a.counter("server.rejects") == 0, "%v requests rejected by admission control", a.counter("server.rejects"))
	expect(a.counter("server.coalesced") == 0, "%v requests coalesced", a.counter("server.coalesced"))
	switch w.name {
	case evaluateCold:
		expect(a.counter("server.cache.hits") == 0, "%v result-cache hits on distinct scenarios", a.counter("server.cache.hits"))
		expect(a.counter("engine.evaluator_reuses") == 0, "%v evaluator-pool reuses on distinct topologies", a.counter("engine.evaluator_reuses"))
	case searchLex:
		expect(a.counter("server.cache.hits") == 0, "%v result-cache hits on distinct instances", a.counter("server.cache.hits"))
	case evaluateWarm:
		hits := m.delta("server.cache.hits")
		r := ratio(hits, hits+m.delta("server.cache.misses"))
		expect(r >= 0.99, "cache hit ratio %.4f below 0.99 after warm-up", r)
	case sessionChurn:
		var count = map[string]float64{}
		total := 0.0
		for c, p := range w.plans {
			for k := sessionWarmup; k < sessionWarmup+m.win.sent[c] && k < len(p.deltas); k++ {
				count[p.deltas[k].Op]++
				total++
			}
		}
		expect(total > 0, "no deltas sent")
		for op, want := range map[string]float64{"reroute": 0.5, "arrive": 0.25, "depart": 0.25} {
			share := ratio(count[op], total)
			expect(share > want-0.03 && share < want+0.03, "%s share %.3f, designed %.2f", op, share, want)
		}
		expect(m.delta("engine.sessions.deltas") == float64(m.win.attempted),
			"daemon applied %v deltas, client sent %d", m.delta("engine.sessions.deltas"), m.win.attempted)
	}
	return errs
}

// delta is the change of a daemon counter over the timed window.
func (m *measurement) delta(name string) float64 {
	return m.after.counter(name) - m.before.counter(name)
}

// sliceLength is the target length of the slices each timed window is
// cut into. Throughput and latency percentiles are computed per slice
// and reported as the median over all slices of a run, so a burst of
// load from outside the benchmark that spoils one slice does not move
// the result.
const sliceLength = 2 * time.Second

// slices groups the verified requests' latencies by the slice of the
// window in which they completed. Requests completing after the window
// (started before its end) are left out.
func (w *window) slices() (lat [][]float64, length time.Duration) {
	n := int(w.length / sliceLength)
	if n < 1 {
		n = 1
	}
	length = w.length / time.Duration(n)
	lat = make([][]float64, n)
	for i, t := range w.doneAt {
		if b := int(t / length.Seconds()); b < n {
			lat[b] = append(lat[b], w.latMs[i])
		}
	}
	return lat, length
}

// measurements are the timed windows of one run, one per daemon
// instance. A run spreads its window over several fresh daemons so that
// what varies between process instances (thread placement, heap layout,
// collector pacing) averages out instead of deciding the whole run.
type measurements []*measurement

// sum adds f over the instances.
func (ms measurements) sum(f func(m *measurement) float64) float64 {
	t := 0.0
	for _, m := range ms {
		t += f(m)
	}
	return t
}

func (ms measurements) attempted() int {
	return int(ms.sum(func(m *measurement) float64 { return float64(m.win.attempted) }))
}

func (ms measurements) failed() int {
	return int(ms.sum(func(m *measurement) float64 { return float64(m.win.failed + m.checkFailures) }))
}

func (ms measurements) verified() int {
	return int(ms.sum(func(m *measurement) float64 { return float64(len(m.win.latMs)) }))
}

func (ms measurements) delta(name string) float64 {
	return ms.sum(func(m *measurement) float64 { return m.delta(name) })
}

// perSlice returns throughput, p50 and p99 of every slice of every
// window, and the size and tail count of the smallest slice.
func (ms measurements) perSlice() (thr, p50s, p99s []float64, fewest, fewestBeyond int) {
	fewest = -1
	for _, m := range ms {
		lat, length := m.win.slices()
		for _, l := range lat {
			p50, _ := percentile(l, 0.5)
			p99, beyond := percentile(l, 0.99)
			thr = append(thr, float64(len(l))/length.Seconds())
			p50s = append(p50s, p50)
			p99s = append(p99s, p99)
			if fewest < 0 || len(l) < fewest {
				fewest, fewestBeyond = len(l), beyond
			}
		}
	}
	return thr, p50s, p99s, fewest, fewestBeyond
}

// endToEnd returns the end-to-end metrics of the run (setup_s is added
// by the caller): throughput, p50 and p99 as medians over all slices,
// and the median of the instances' peak RSS.
func (ms measurements) endToEnd() map[string]float64 {
	thr, p50s, p99s, _, _ := ms.perSlice()
	var rss []float64
	for _, m := range ms {
		rss = append(rss, m.rssMB)
	}
	return map[string]float64{
		"throughput_rps": median(thr),
		"latency_p50_ms": median(p50s),
		"latency_p99_ms": median(p99s),
		"success_rate":   ratio(float64(ms.verified()), float64(ms.attempted())),
		"server_rss_mb":  median(rss),
	}
}

// layers combines the traced replay's span metrics with the daemons'
// counters over the timed windows.
func (ms measurements) layers(tr *traced) map[string]float64 {
	v := tr.values()
	reqs := float64(ms.attempted())
	hits := ms.delta("server.cache.hits")
	v["server.cache_hit_ratio"] = ratio(hits, hits+ms.delta("server.cache.misses"))
	v["server.coalesced_ratio"] = ratio(ms.delta("server.coalesced"), reqs)
	v["server.rejects"] = ms.sum(func(m *measurement) float64 { return m.after.counter("server.rejects") })
	builds, reuses := ms.delta("engine.evaluator_builds"), ms.delta("engine.evaluator_reuses")
	v["engine.evaluator_reuse_ratio"] = ratio(reuses, builds+reuses)
	v["core.delta_levels_skipped_per_delta"] = ratio(ms.delta("core.delta_levels_skipped"), ms.delta("engine.sessions.deltas"))
	v["core.delta_promotions"] = ms.delta("core.delta_promotions")
	v["search.bound_evals_per_req"] = ratio(ms.delta("search.bound_evals"), reqs)
	v["search.pruned_subtrees_per_req"] = ratio(ms.delta("search.pruned_subtrees"), reqs)
	cpu := ms.sum(func(m *measurement) float64 { return float64(m.cpu) / float64(time.Microsecond) })
	v["process.cpu_us_per_req"] = ratio(cpu, reqs)
	_, p50s, _, _, _ := ms.perSlice()
	v["http.transport_us"] = median(p50s)*1000 - v["server.serve_us"]
	return v
}

// printSummary writes a human-readable account of the run ahead of the
// result line: counts, the sample size behind the tail percentile, and
// every reported metric with its unit.
func (ms measurements) printSummary(out io.Writer, w *workload, values map[string]float64, specs []metricSpec) {
	attempted, failed := ms.attempted(), ms.failed()
	fmt.Fprintf(out, "workload %s: %d attempted, %d failed (error_rate %.4g), %d verified, %d daemon instances, %d connections each\n",
		w.name, attempted, failed, ratio(float64(failed), float64(attempted)), ms.verified(), len(ms), conns)
	thr, _, _, fewest, fewestBeyond := ms.perSlice()
	fmt.Fprintf(out, "throughput and latency percentiles are medians over %d slices; the smallest slice has %d samples, %d above its p99\n",
		len(thr), fewest, fewestBeyond)
	names := make([]string, 0, len(specs))
	for _, s := range specs {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	byName := map[string]metricSpec{}
	for _, s := range specs {
		byName[s.Name] = s
	}
	for _, n := range names {
		s := byName[n]
		line := fmt.Sprintf("  %-38s %14.4f %-10s", n, values[n], s.Unit)
		if s.Moves != "" {
			line += " moves: " + s.Moves
		}
		fmt.Fprintln(out, line)
	}
}
