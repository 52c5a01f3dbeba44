package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// call is one request a connection sends and the check its reply must
// pass. check sees the body of a 200 reply; it may not retain it.
type call struct {
	path  string
	body  []byte
	check func(resp []byte) error
}

// source yields connection c's i-th call; ok false means the
// connection's input is used up, which fails the run.
type source func(c, i int) (cl call, ok bool)

// window is the outcome of a timed closed loop.
type window struct {
	latMs     []float64 // client-observed latency of every verified request
	doneAt    []float64 // when each verified request ended, seconds into the window
	length    time.Duration
	attempted int
	failed    int
	errs      []string   // the first few failures
	sent      [conns]int // calls each connection sent
}

const maxErrs = 5

// drive runs conns closed-loop connections against base for d: each
// sends its next call when the previous reply has been read in full and
// checked. A call started before the deadline runs to completion.
func drive(client *http.Client, base string, src source, d time.Duration) *window {
	var (
		mu sync.Mutex
		w  window
		wg sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var (
				buf  bytes.Buffer
				lat  []float64
				done []float64
				errs []string
				n    int
			)
			attempted, failed := 0, 0
			for ; time.Now().Before(deadline); n++ {
				cl, ok := src(c, n)
				if !ok {
					failed++
					errs = append(errs, fmt.Sprintf("connection %d ran out of input after %d calls", c, n))
					break
				}
				t0 := time.Now()
				status, resp, err := post(client, base+cl.path, cl.body, &buf)
				elapsed := time.Since(t0)
				attempted++
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("%s: status %d: %.200s", cl.path, status, resp)
				}
				if err == nil {
					err = cl.check(resp)
				}
				if err != nil {
					failed++
					if len(errs) < maxErrs {
						errs = append(errs, err.Error())
					}
					continue
				}
				lat = append(lat, float64(elapsed)/float64(time.Millisecond))
				done = append(done, time.Since(start).Seconds())
			}
			mu.Lock()
			defer mu.Unlock()
			w.latMs = append(w.latMs, lat...)
			w.doneAt = append(w.doneAt, done...)
			w.attempted += attempted
			w.failed += failed
			w.sent[c] = n
			for _, e := range errs {
				if len(w.errs) < maxErrs {
					w.errs = append(w.errs, e)
				}
			}
		}(c)
	}
	wg.Wait()
	w.length = d
	return &w
}

// post sends one POST and reads the whole reply into buf. The returned
// body aliases buf.
func post(client *http.Client, url string, body []byte, buf *bytes.Buffer) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, fmt.Errorf("%s: read reply: %w", url, err)
	}
	return resp.StatusCode, buf.Bytes(), nil
}
