package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat;
// Linux fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// daemon is one closnetd process started by the benchmark.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	client *http.Client

	logMu sync.Mutex
	log   bytes.Buffer // the daemon's stderr, kept for error reports
	logWG sync.WaitGroup

	stopped bool
	stopErr error
}

// startDaemon execs closnetd on an ephemeral loopback port and returns
// once /readyz answers 200.
func startDaemon(bin string) (*daemon, error) {
	d := &daemon{cmd: exec.Command(bin, "-addr", "127.0.0.1:0")}
	// The daemon must not outlive the benchmark, however it ends.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start closnetd: %w", err)
	}
	addr := make(chan string, 1)
	d.logWG.Add(1)
	go func() {
		defer d.logWG.Done()
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			d.logMu.Lock()
			if d.log.Len() < 64<<10 {
				d.log.WriteString(line + "\n")
			}
			d.logMu.Unlock()
			if _, a, ok := strings.Cut(line, "listening on "); ok && !sent {
				addr <- strings.TrimSpace(a)
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			return nil, d.fail(errors.New("closnetd exited before listening"))
		}
		d.base = a
	case <-time.After(30 * time.Second):
		return nil, d.fail(errors.New("closnetd did not report its address within 30s"))
	}
	d.client = newClient()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			return nil, d.fail(fmt.Errorf("closnetd not ready within 30s (last error %v)", err))
		}
		time.Sleep(time.Millisecond)
	}
}

// requestTimeout bounds every request, so a daemon that stops answering
// fails the run instead of hanging it.
const requestTimeout = 10 * time.Second

// newClient is the benchmark's HTTP client: at most conns loopback
// connections, kept alive across requests.
func newClient() *http.Client {
	return &http.Client{Timeout: requestTimeout, Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// fail stops the daemon after a start-up error and returns err with the
// daemon's log attached.
func (d *daemon) fail(err error) error {
	d.stop()
	return fmt.Errorf("%w\n%s", err, d.logText())
}

func (d *daemon) logText() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return d.log.String()
}

// stop drains the daemon with SIGTERM, kills it if it has not exited
// within 30s, and waits for the process and its log reader to end.
func (d *daemon) stop() error {
	if d.stopped {
		return d.stopErr
	}
	d.stopped = true
	d.stopErr = d.terminate()
	return d.stopErr
}

func (d *daemon) terminate() error {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	if d.cmd.Process == nil {
		return nil
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		d.logWG.Wait()
		done <- d.cmd.Wait()
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return errors.New("closnetd did not drain within 30s; killed")
	}
}

// stats is the part of the /v1/stats response the benchmark reads.
type stats struct {
	Metrics struct {
		Counters map[string]int64 `json:"counters"`
	} `json:"metrics"`
}

func (s *stats) counter(name string) float64 { return float64(s.Metrics.Counters[name]) }

func (d *daemon) stats() (*stats, error) {
	resp, err := d.client.Get(d.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	var s stats
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("/v1/stats: %w", err)
	}
	return &s, nil
}

// cpuTime is the daemon's user plus system CPU time so far.
func (d *daemon) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSSMB is the daemon's peak resident set size (VmHWM) in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
