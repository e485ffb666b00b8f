package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// target is a running treeschedd: its base URL, the pid whose CPU time
// and peak RSS are read from /proc, and how to stop it.
type target struct {
	url  string
	pid  int
	stop func() error
}

// starter starts a fresh server. The benchmark execs the daemon binary;
// the package test serves the handler in-process.
type starter func(ctx context.Context) (*target, error)

// daemonStarter execs the treeschedd binary at path with default flags
// except the listen address, and stderr sent to /dev/null.
func daemonStarter(path string) starter {
	return func(ctx context.Context) (*target, error) {
		var lastErr error
		// A free port can be taken between probing and the daemon's bind;
		// a daemon that exits before /readyz answers is retried on another.
		for attempt := 0; attempt < 3; attempt++ {
			addr, err := freeAddr()
			if err != nil {
				return nil, err
			}
			cmd := exec.Command(path, "-addr", addr)
			cmd.Stdout, cmd.Stderr = nil, nil // both go to /dev/null
			// The daemon must not outlive the benchmark, even if the
			// benchmark itself is killed.
			cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
			if err := cmd.Start(); err != nil {
				return nil, fmt.Errorf("starting %s: %w", path, err)
			}
			exited := make(chan error, 1)
			go func() { exited <- cmd.Wait() }()
			t := &target{
				url: "http://" + addr,
				pid: cmd.Process.Pid,
				stop: func() error {
					cmd.Process.Signal(syscall.SIGTERM)
					select {
					case <-exited:
						return nil
					case <-time.After(10 * time.Second):
						cmd.Process.Kill()
						<-exited
						return errors.New("treeschedd ignored SIGTERM for 10s; killed")
					}
				},
			}
			if lastErr = waitReady(ctx, t.url, exited); lastErr == nil {
				return t, nil
			}
			t.stop()
		}
		return nil, lastErr
	}
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("probing a free port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// waitReady polls /readyz until it answers 200. exited, when non-nil,
// reports the daemon's early exit.
func waitReady(ctx context.Context, url string, exited <-chan error) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case err := <-exited:
			return fmt.Errorf("treeschedd exited before /readyz answered: %v", err)
		case <-ctx.Done():
			return fmt.Errorf("waiting for /readyz: %w", ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuTime returns the process's user+system CPU time.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields after its
	// closing parenthesis are space-separated, utime and stime being the
	// 14th and 15th fields of the line.
	rest := b[bytes.LastIndexByte(b, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat: %w", pid, err)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSS returns the process's peak resident set size (VmHWM) in bytes.
func peakRSS(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// scrape is one /metrics page: every sample keyed by its series, e.g.
// `treeschedd_errors_total{kind="shed"}`.
type scrape map[string]float64

func scrapeMetrics(ctx context.Context, c *http.Client, url string) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	s := scrape{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		s[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	return s, nil
}

// get returns one series or, for a family exposed only with labels, the
// sum of its series.
func (s scrape) get(series string) float64 {
	if v, ok := s[series]; ok {
		return v
	}
	var v float64
	for k, x := range s {
		if strings.HasPrefix(k, series+"{") {
			v += x
		}
	}
	return v
}

// delta is how much a series grew between two scrapes.
func delta(before, after scrape, series string) float64 {
	return after.get(series) - before.get(series)
}
