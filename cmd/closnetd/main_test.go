package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer lets the test read the daemon's stderr while serve is
// writing to it from another goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenLine = regexp.MustCompile(`listening on (http://[^\s]+)`)

// TestServeAndShutdown boots the daemon on an ephemeral port, round-trips
// a health check and an evaluation, then cancels the context and expects
// a clean drain.
func TestServeAndShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stderr := &syncBuffer{}
	served := make(chan error, 1)
	go func() {
		served <- serve(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "2"}, stderr)
	}()

	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if m := listenLine.FindStringSubmatch(stderr.String()); m != nil {
			base = m[1]
			break
		}
		select {
		case err := <-served:
			t.Fatalf("serve exited early: %v\nstderr: %s", err, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address\nstderr: %s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	scenario := `{"tors": 2, "servers": 1, "middles": 2,
		"flows": [{"srcSwitch": 1, "srcServer": 1, "dstSwitch": 2, "dstServer": 1}]}`
	post, err := http.Post(base+"/v1/evaluate", "application/json", strings.NewReader(scenario))
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	body, _ := io.ReadAll(post.Body)
	post.Body.Close()
	if post.StatusCode != http.StatusOK {
		t.Fatalf("evaluate: status %d, body %s", post.StatusCode, body)
	}
	if !strings.Contains(string(body), `"throughput"`) {
		t.Errorf("evaluate response lacks a throughput: %s", body)
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve: %v\nstderr: %s", err, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon never shut down\nstderr: %s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "shutdown complete") {
		t.Errorf("no clean shutdown marker in stderr: %s", stderr.String())
	}
}

// TestLoadgenSmoke replays a small fixed budget against an in-process
// server and checks the report shape.
func TestLoadgenSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"loadgen", "-requests", "40", "-conns", "4", "-n", "3"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("loadgen: %v\nstdout: %s\nstderr: %s", err, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"requests 40", "errors 0", "rate", "latency", "cache hits"} {
		if !strings.Contains(out, want) {
			t.Errorf("loadgen report lacks %q:\n%s", want, out)
		}
	}
}

// TestLoadgenColdDisablesCache checks the cold configuration actually
// bypasses the result cache.
func TestLoadgenColdDisablesCache(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"loadgen", "-cold", "-requests", "20", "-conns", "2", "-n", "3"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("loadgen -cold: %v\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "cache hits 0") {
		t.Errorf("cold run reported cache hits:\n%s", stdout.String())
	}
}

func TestBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &stdout, &stderr); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestLoadgenRejectsBadValues: semantically invalid load settings exit
// non-zero with a diagnostic instead of silently measuring nothing.
func TestLoadgenRejectsBadValues(t *testing.T) {
	for name, args := range map[string][]string{
		"zero conns":     {"loadgen", "-conns", "0", "-requests", "1"},
		"negative conns": {"loadgen", "-conns", "-3", "-requests", "1"},
		"negative rps":   {"loadgen", "-rps", "-1", "-requests", "1"},
		"negative reqs":  {"loadgen", "-requests", "-5"},
		"zero window":    {"loadgen", "-duration", "0s"},
		"bad duration":   {"loadgen", "-duration", "fast"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("%s (%v): accepted", name, args)
		}
	}
}

// TestHTTPServerTimeouts pins the connection timeouts of the daemon's
// http.Server: a zero value would let a client hold a connection open
// forever by trickling headers or idling on keep-alive.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout != 2*time.Minute {
		t.Errorf("IdleTimeout = %v, want 2m", srv.IdleTimeout)
	}
	if srv.Handler == nil {
		t.Error("handler not installed")
	}
}
