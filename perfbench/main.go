// Command perfbench is closnet's end-to-end benchmark. It starts a real
// closnetd daemon as a separate process, drives it over loopback from
// conns closed-loop connections with one seeded workload, checks every
// reply, and prints the end-to-end metrics. With -trace 1 it also
// replays the same seeded requests in process through the public
// function of each layer, in the order the server calls them, and
// prints the per-layer metrics instead.
//
// Run it through run.sh, which builds the daemon and this program from
// the same checkout:
//
//	bash perfbench/run.sh --workload evaluate-cold --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"time"
)

// instances is how many fresh daemons a run starts, one after another.
// Each is set up (setup_s is the median set-up time) and then serves an
// equal share of the timed window.
const instances = 4

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	daemon   string // closnetd binary
	out      string // directory for the span file
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var o options
	var trace int
	fl.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run %v", workloadNames))
	fl.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fl.IntVar(&o.seconds, "seconds", 8, "length of the timed window")
	fl.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of the traced replay, 0 the end-to-end metrics")
	fl.StringVar(&o.daemon, "daemon", "", "closnetd binary to benchmark")
	fl.StringVar(&o.out, "out", ".", "directory the span file is written to")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	switch {
	case o.daemon == "":
		fmt.Fprintln(stderr, "perfbench: -daemon is required")
		return 2
	case o.seconds < 1:
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1")
		return 2
	case trace != 0 && trace != 1:
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	o.trace = trace == 1
	// The client shares the machine with the daemon; fewer collections
	// of its large, long-lived input set leave the cores to the daemon.
	debug.SetGCPercent(400)

	res, err := run(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		if res == nil {
			return 1
		}
	}
	line, merr := json.Marshal(res)
	if merr != nil {
		fmt.Fprintln(stderr, "perfbench:", merr)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// run measures one workload. A nil result means nothing was measured; a
// result with Correct false comes with the error that made it so.
func run(o options, stdout io.Writer) (*result, error) {
	w, err := build(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	refs, err := references(w)
	if err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}

	var (
		ms     measurements
		setups []float64
	)
	for k := 0; k < instances; k++ {
		t0 := time.Now()
		d, err := startDaemon(o.daemon)
		if err != nil {
			return nil, err
		}
		sessions, err := warmUp(d, w, refs)
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		m, err := measure(d, w, refs, sessions, time.Duration(o.seconds)*time.Second/instances)
		if err != nil {
			d.stop()
			return nil, err
		}
		if err := d.stop(); err != nil {
			return nil, fmt.Errorf("closnetd shutdown: %w", err)
		}
		ms = append(ms, m)
	}

	refFailures, refErr := checkReferences(w, refs, o.seed)
	checkErrs := []error{refErr}
	for _, m := range ms {
		checkErrs = append(checkErrs, m.check(w))
	}
	checkErr := errors.Join(checkErrs...)

	res := &result{Attempted: ms.attempted(), Failed: ms.failed() + refFailures}
	values := ms.endToEnd()
	values["setup_s"] = median(setups)
	specs := endToEnd
	if o.trace {
		specs = perLayer
		tr, err := replay(w, refs)
		if err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		if err := tr.writeSpans(o.out, w.name, o.seed); err != nil {
			return nil, err
		}
		values = ms.layers(tr)
	}
	if o.trace {
		ms.printSummary(stdout, w, values, append(append([]metricSpec(nil), specs...), layerDetail...))
	} else {
		ms.printSummary(stdout, w, values, specs)
	}
	if res.Metrics, err = report(specs, values); err != nil {
		return nil, err
	}
	res.Correct = checkErr == nil && res.Failed == 0
	if checkErr == nil && !res.Correct {
		var errs []string
		for _, m := range ms {
			errs = append(errs, m.win.errs...)
		}
		checkErr = fmt.Errorf("requests failed: %q", errs)
	}
	return res, checkErr
}

// warmUp brings a fresh daemon to the state the timed window starts
// from, checking every reply: one sequential pass over the warm-up
// bodies, or for session-churn the session opens plus the first
// sessionWarmup deltas of each stream. It returns the session IDs.
func warmUp(d *daemon, w *workload, refs *refSet) ([]string, error) {
	var buf bytes.Buffer
	if w.plans == nil {
		for i, body := range w.warmup {
			status, resp, err := post(d.client, d.base+w.path, body, &buf)
			if err != nil {
				return nil, err
			}
			if status != 200 || !bytes.Equal(resp, refs.warmup[i]) {
				return nil, fmt.Errorf("warm-up request %d: status %d, reply differs from the reference", i, status)
			}
		}
		return nil, nil
	}
	ids := make([]string, len(w.plans))
	for c, p := range w.plans {
		status, resp, err := post(d.client, d.base+"/v1/session", p.open, &buf)
		if err != nil {
			return nil, err
		}
		if status != 200 {
			return nil, fmt.Errorf("session open: status %d: %s", status, resp)
		}
		st, err := p.openState()
		if err != nil {
			return nil, err
		}
		sr, err := checkSession(resp, refs.open[c], st.ids)
		if err != nil {
			return nil, fmt.Errorf("session open: %w", err)
		}
		ids[c] = sr.Session
		for k := 0; k < sessionWarmup; k++ {
			status, resp, err := post(d.client, d.base+"/v1/session/"+sr.Session+"/delta", p.bodies[k], &buf)
			if err != nil {
				return nil, err
			}
			if status != 200 {
				return nil, fmt.Errorf("warm-up delta %d: status %d: %s", k, status, resp)
			}
			if err := deltaCheck(sr.Session, p, k)(resp); err != nil {
				return nil, err
			}
		}
	}
	return ids, nil
}
