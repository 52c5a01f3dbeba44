package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"closnet/internal/corpus"
	"closnet/internal/obs"
	"closnet/internal/server"
)

// runLoadgen is the `closnetd loadgen` mode: it replays a C_n scenario
// corpus against a server — a freshly started in-process one by
// default, or a running daemon via -url — and reports achieved request
// rate and latency percentiles. The default corpus is the paper's §4
// collections over C_n (replication impossibility and starvation), so
// the cold path exercises the real water-filling cost (Theorem 4.3 at
// n=4 is 77 flows); the Theorem 3.4 gadgets are available via -corpus.
func runLoadgen(args []string, stdout, stderr io.Writer) error {
	fl := flag.NewFlagSet("closnetd loadgen", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		url      = fl.String("url", "", "base URL of a running daemon (default: start an in-process server)")
		endpoint = fl.String("endpoint", "evaluate", "endpoint to exercise: evaluate, doom (search needs small instances)")
		n        = fl.Int("n", 4, "corpus network size (adversarial families over C_n)")
		conns    = fl.Int("conns", 8, "concurrent client connections")
		rps      = fl.Int("rps", 0, "target request rate (0 = closed loop, as fast as the server answers)")
		duration = fl.Duration("duration", 5*time.Second, "measurement window (ignored when -requests > 0)")
		requests = fl.Int("requests", 0, "fixed request count instead of a time window")
		cold     = fl.Bool("cold", false, "disable the in-process server's result cache (measure the compute path)")
		workers  = fl.Int("workers", 0, "in-process server worker pool (0 = one per core)")
		families = fl.String("corpus", "theorem42,theorem43",
			"comma-separated corpus families ("+strings.Join(corpus.Families(), ", ")+")")
	)
	if err := fl.Parse(args); err != nil {
		return err
	}
	// Value validation: a zero or negative setting silently turning into
	// "no measurement at all" (or a divide-by-zero pacing ticker) is the
	// kind of benchmark bug that publishes wrong numbers. Reject, don't
	// default.
	switch {
	case *conns < 1:
		return fmt.Errorf("loadgen: -conns must be at least 1 (got %d)", *conns)
	case *rps < 0:
		return fmt.Errorf("loadgen: -rps must not be negative (got %d)", *rps)
	case *requests < 0:
		return fmt.Errorf("loadgen: -requests must not be negative (got %d)", *requests)
	case *requests == 0 && *duration <= 0:
		return fmt.Errorf("loadgen: -duration must be positive when -requests is unset (got %s)", *duration)
	}

	bodies, names, err := corpus.Build(*n, strings.Split(*families, ","))
	if err != nil {
		return err
	}

	base := *url
	var reg *obs.Registry
	if base == "" {
		cacheSize := 0 // Options default
		if *cold {
			cacheSize = -1
		}
		reg = obs.NewRegistry()
		srv, err := server.New(server.Options{
			Workers:   *workers,
			CacheSize: cacheSize,
			Obs:       &obs.Obs{Reg: reg},
		})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		httpSrv := newHTTPServer(srv.Handler())
		go httpSrv.Serve(ln)
		defer httpSrv.Close()
		base = "http://" + ln.Addr().String()
		mode := "warm (cached)"
		if *cold {
			mode = "cold (cache disabled)"
		}
		fmt.Fprintf(stderr, "closnetd loadgen: in-process server on %s, %s\n", base, mode)
	}
	target := base + "/v1/" + *endpoint

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *conns * 2,
		MaxIdleConnsPerHost: *conns * 2,
	}}

	// One sequential pass over the corpus outside the measurement
	// window: fills the cache on the warm path and establishes
	// connections on both.
	for _, body := range bodies {
		if _, _, err := fire(client, target, body); err != nil {
			return fmt.Errorf("warmup: %w", err)
		}
	}

	res := drive(client, target, bodies, *conns, *rps, *requests, *duration)

	pacing := "closed loop"
	if *rps > 0 {
		pacing = fmt.Sprintf("%d req/s target", *rps)
	}
	fmt.Fprintf(stdout, "closnetd loadgen: endpoint /v1/%s, corpus C_%d (%v), %d conns, %s\n",
		*endpoint, *n, names, *conns, pacing)
	fmt.Fprintf(stdout, "requests %d  ok %d  errors %d  elapsed %s  rate %.1f req/s\n",
		res.total, res.ok, res.total-res.ok, res.elapsed.Round(time.Millisecond),
		float64(res.total)/res.elapsed.Seconds())
	if st := res.lat.Stats(); st.Count > 0 {
		fmt.Fprintf(stdout, "latency  p50 %s  p95 %s  p99 %s  max %s\n",
			time.Duration(res.lat.Quantile(0.50)).Round(time.Microsecond),
			time.Duration(res.lat.Quantile(0.95)).Round(time.Microsecond),
			time.Duration(res.lat.Quantile(0.99)).Round(time.Microsecond),
			time.Duration(st.MaxNs).Round(time.Microsecond))
	}
	if reg != nil {
		snap := reg.Snapshot()
		fmt.Fprintf(stdout, "server   cache hits %d  misses %d  coalesced %d  rejects %d\n",
			snap.Counters["server.cache.hits"], snap.Counters["server.cache.misses"],
			snap.Counters["server.coalesced"], snap.Counters["server.rejects"])
	}
	if res.total > res.ok {
		return fmt.Errorf("%d requests failed", res.total-res.ok)
	}
	return nil
}

type loadResult struct {
	total   int64
	ok      int64
	elapsed time.Duration
	// lat is the shared latency histogram every connection observes
	// into: Observe is lock-free and allocation-free, so one histogram
	// replaces the per-worker sample slices (and their unbounded growth)
	// without serializing the workers. Quantiles come out within the
	// obs.Histogram error bound (< 50% per bucket octave split) instead
	// of exact rank order — the right trade for a load generator whose
	// sample arrays used to dominate client-side memory traffic.
	lat *obs.Histogram
}

// drive replays the corpus round-robin from conns concurrent clients
// until the request budget or the time window runs out.
func drive(client *http.Client, target string, corpus [][]byte, conns, rps, requests int, window time.Duration) *loadResult {
	var (
		next   atomic.Int64
		total  atomic.Int64
		ok     atomic.Int64
		ticker <-chan time.Time
	)
	if rps > 0 {
		t := time.NewTicker(time.Second / time.Duration(rps))
		defer t.Stop()
		ticker = t.C
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if requests <= 0 {
		timer := time.AfterFunc(window, cancel)
		defer timer.Stop()
	}

	lat := &obs.Histogram{}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := next.Add(1) - 1
				if requests > 0 && i >= int64(requests) {
					return
				}
				if ticker != nil {
					select {
					case <-ticker:
					case <-ctx.Done():
						return
					}
				}
				t0 := time.Now()
				status, err := fireDiscard(client, target, corpus[i%int64(len(corpus))])
				total.Add(1)
				if err == nil && status == http.StatusOK {
					ok.Add(1)
				}
				lat.Observe(time.Since(t0))
			}
		}(w)
	}
	wg.Wait()
	return &loadResult{total: total.Load(), ok: ok.Load(), elapsed: time.Since(start), lat: lat}
}

func fire(client *http.Client, target string, body []byte) (int, []byte, error) {
	resp, err := client.Post(target, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, data, nil
}

// fireDiscard is fire without materializing the response body — the
// measurement loop only needs the status, and on a small machine the
// client's allocations compete with the server for the same cores.
func fireDiscard(client *http.Client, target string, body []byte) (int, error) {
	resp, err := client.Post(target, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}
