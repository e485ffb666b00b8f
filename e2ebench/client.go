package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"treesched/internal/forest"
	"treesched/internal/service"
)

// forestLine is one line of a /v1/forest reply: a job result, or the
// trailing summary.
type forestLine struct {
	forest.JobResult
	Summary *forest.Summary `json:"summary"`
}

// forestReply is a decoded /v1/forest reply.
type forestReply struct {
	jobs    []forest.JobResult
	summary *forest.Summary
}

// sample is one HTTP request of a run and its decoded reply.
type sample struct {
	idx     int
	latency time.Duration
	// pcache is the X-Precompute-Cache header ("hit", "miss" or empty).
	pcache string
	// lines holds the Response of a schedule request, or one per batch
	// line.
	lines  []service.Response
	forest *forestReply
	// err is a transport error, a non-200 status or an undecodable reply.
	err error
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
}

// send posts request i of w and decodes the reply.
func send(ctx context.Context, c *http.Client, base string, w *workload, i int) sample {
	body := w.body(i)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+w.path, bytes.NewReader(body))
	if err != nil {
		return sample{idx: i, err: err}
	}
	start := time.Now()
	resp, err := c.Do(req)
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	s := sample{idx: i, latency: time.Since(start)}
	if err != nil {
		s.err = err
		return s
	}
	if resp.StatusCode != http.StatusOK {
		s.err = fmt.Errorf("status %d: %.200s", resp.StatusCode, raw)
		return s
	}
	s.pcache = resp.Header.Get("X-Precompute-Cache")
	s.err = s.decode(w.kind, raw)
	return s
}

func (s *sample) decode(k kind, raw []byte) error {
	switch k {
	case kindSchedule:
		s.lines = make([]service.Response, 1)
		return json.Unmarshal(raw, &s.lines[0])
	case kindBatch:
		dec := json.NewDecoder(bytes.NewReader(raw))
		for dec.More() {
			var r service.Response
			if err := dec.Decode(&r); err != nil {
				return fmt.Errorf("batch line %d: %w", len(s.lines), err)
			}
			s.lines = append(s.lines, r)
		}
		return nil
	}
	s.forest = &forestReply{}
	dec := json.NewDecoder(bytes.NewReader(raw))
	for dec.More() {
		var l forestLine
		if err := dec.Decode(&l); err != nil {
			return fmt.Errorf("forest line %d: %w", len(s.forest.jobs), err)
		}
		if l.Summary != nil {
			s.forest.summary = l.Summary
			continue
		}
		s.forest.jobs = append(s.forest.jobs, l.JobResult)
	}
	if s.forest.summary == nil {
		return errors.New("forest reply has no summary line")
	}
	return nil
}

// warmUp sends the workload's warm-up requests, clients at a time, and
// fails unless every one succeeds.
func warmUp(ctx context.Context, c *http.Client, base string, w *workload) error {
	errs := make([]error, len(w.warm))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1) - 1); j < len(w.warm); j = int(next.Add(1) - 1) {
				s := send(ctx, c, base, w, w.warm[j])
				errs[j] = s.err
				for _, r := range s.lines {
					if r.Error != "" && errs[j] == nil {
						errs[j] = fmt.Errorf("warm-up request %d: %s", w.warm[j], r.Error)
					}
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// drive runs the closed loop: each client sends its next request as soon
// as the previous one is answered, until d has passed. Requests are
// numbered from first. It returns the samples in request order and the
// wall time until the last answer.
func drive(ctx context.Context, c *http.Client, base string, w *workload, first int, d time.Duration) ([]sample, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var next atomic.Int64
	next.Store(int64(first))
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for k := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				per[k] = append(per[k], send(ctx, c, base, w, int(next.Add(1)-1)))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].idx < all[b].idx })
	return all, elapsed
}
