package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"treesched/internal/forest"
	"treesched/internal/machine"
	"treesched/internal/sched"
	"treesched/internal/service"
	"treesched/internal/tree"
)

const (
	// clients is the closed loop's width: each client waits for an answer
	// before sending its next request. Two clients keep both CPUs of the
	// box the benchmark was tuned on busy.
	clients = 2
	// setups is how many servers a run starts and warms up, one after
	// another; each serves an equal share of the timed window.
	setups = 3
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	sizes    sizes
	start    starter
	// spanDir receives the traced run's spans; empty writes none.
	spanDir string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// answer is the in-process reference for one request content.
type answer struct {
	lines  []*service.Response
	forest *forest.Result
	// jobLB is each forest job's makespan lower bound on its plan width.
	jobLB []float64
	err   error
}

// segment is the part of the timed window measured on one server.
type segment struct {
	elapsed time.Duration
	ops     int
	cpu     time.Duration
	rss     int64
	before  scrape
	after   scrape
}

// run is everything measured in one run, before it is reduced to metrics.
type run struct {
	cfg       config
	w         *workload
	setups    []float64 // seconds
	segments  []segment
	samples   []sample
	workers   int
	refs      map[int]*answer
	rec       *recorder
	ops       int
	failedOps int
}

// execute makes one run. Each set-up starts a fresh server and warms it
// up; each server then serves an equal share of the timed window, so a
// server that settles into a slow regime moves one segment's figures,
// not the run's median.
func execute(ctx context.Context, cfg config) (*result, *run, error) {
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.sizes)
	if err != nil {
		return nil, nil, err
	}
	r := &run{cfg: cfg, w: w}
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	for k := 0; k < setups; k++ {
		if err := r.measureSegment(ctx, c, cfg.duration/time.Duration(setups)); err != nil {
			return nil, nil, err
		}
		c.CloseIdleConnections()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	r.references()
	r.check()
	res := &result{Attempted: r.ops, Metrics: map[string]metric{}}
	// The server's own books must agree: a shed, degraded or
	// breaker-guarded answer is a failed op even if its reply slipped
	// past the check.
	serverFailed := int(r.delta(`treeschedd_errors_total{kind="shed"}`) + r.delta("treeschedd_degraded_total"))
	res.Failed = max(r.failedOps, serverFailed) + int(r.delta("treeschedd_breaker_opens_total"))
	res.Correct = res.Failed == 0
	if cfg.trace {
		r.layerMetrics(res.Metrics)
		if cfg.spanDir != "" {
			if err := r.writeSpans(); err != nil {
				return nil, nil, err
			}
		}
	} else {
		r.endToEndMetrics(res.Metrics)
	}
	return res, r, nil
}

// measureSegment starts and warms up a server, timing the set-up, then
// drives the closed loop against it for d.
func (r *run) measureSegment(ctx context.Context, c *http.Client, d time.Duration) (err error) {
	t0 := time.Now()
	tg, err := r.cfg.start(ctx)
	if err != nil {
		return err
	}
	defer func() {
		if serr := tg.stop(); err == nil {
			err = serr
		}
	}()
	if err := warmUp(ctx, c, tg.url, r.w); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	r.setups = append(r.setups, time.Since(t0).Seconds())

	if r.workers, err = serverWorkers(ctx, c, tg.url); err != nil {
		return err
	}
	var seg segment
	if seg.before, err = scrapeMetrics(ctx, c, tg.url); err != nil {
		return err
	}
	cpu0, err := cpuTime(tg.pid)
	if err != nil {
		return err
	}
	samples, elapsed := drive(ctx, c, tg.url, r.w, len(r.samples), d)
	cpu1, err := cpuTime(tg.pid)
	if err != nil {
		return err
	}
	if seg.after, err = scrapeMetrics(ctx, c, tg.url); err != nil {
		return err
	}
	if seg.rss, err = peakRSS(tg.pid); err != nil {
		return err
	}
	if len(samples) == 0 {
		return errors.New("no request completed in the timed window")
	}
	seg.elapsed, seg.cpu = elapsed, cpu1-cpu0
	for _, s := range samples {
		seg.ops += r.w.ops(s.idx)
	}
	r.segments = append(r.segments, seg)
	r.samples = append(r.samples, samples...)
	return nil
}

func serverWorkers(ctx context.Context, c *http.Client, url string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, fmt.Errorf("reading /healthz: %w", err)
	}
	defer resp.Body.Close()
	var h struct {
		Workers int `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil || h.Workers < 1 {
		return 0, fmt.Errorf("reading /healthz: workers %d, %v", h.Workers, err)
	}
	return h.Workers, nil
}

// delta is how much a /metrics series grew while the servers were timed.
func (r *run) delta(series string) float64 {
	var d float64
	for _, seg := range r.segments {
		d += delta(seg.before, seg.after, series)
	}
	return d
}

// references computes the in-process answer of every request content the
// run sent. The traced run first replays its leading requests one at a
// time under spans; the remaining contents are answered untimed, in
// parallel.
func (r *run) references() {
	r.refs = map[int]*answer{}
	if r.cfg.trace {
		r.rec = newRecorder()
		for _, s := range r.samples[:min(r.w.replay, len(r.samples))] {
			k := r.w.key(s.idx)
			r.rec.begin(s.idx)
			a := r.reference(s.idx, &s, r.refs[k])
			r.rec.end()
			r.rec.spans[r.rec.root].RTT = s.latency.Nanoseconds()
			if r.refs[k] == nil {
				r.refs[k] = a
			}
		}
	}
	var todo []int
	for _, s := range r.samples {
		k := r.w.key(s.idx)
		if _, ok := r.refs[k]; !ok {
			r.refs[k] = nil
			todo = append(todo, s.idx)
		}
	}
	answers := make([]*answer, len(todo))
	var wg sync.WaitGroup
	for l := 0; l < clients; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := l; j < len(todo); j += clients {
				answers[j] = r.reference(todo[j], nil, nil)
			}
		}()
	}
	wg.Wait()
	for j, i := range todo {
		r.refs[r.w.key(i)] = answers[j]
	}
}

// reference answers request i in process. With a sample it records spans
// into r.rec, marking which calls the server also made for that request;
// known is the answer to the same content, if already computed.
func (r *run) reference(i int, s *sample, known *answer) *answer {
	rec := r.rec
	if s == nil {
		rec = nil
	}
	body := r.w.body(i)
	a := &answer{}
	switch r.w.kind {
	case kindForest:
		var jobs []forest.Job
		a.forest, jobs, a.err = replayForest(body, rec)
		if a.err == nil {
			for _, jr := range a.forest.Jobs {
				a.jobLB = append(a.jobLB, jobLowerBound(jobs[jr.Index].Tree, jr.Width))
			}
		}
	default:
		lines := [][]byte{body}
		if r.w.kind == kindBatch {
			lines = splitLines(body)
		}
		for j, line := range lines {
			var sv served
			if s != nil && j < len(s.lines) {
				sv = served{cached: s.lines[j].Cached, pcHit: s.pcache == "hit"}
			}
			var k *service.Response
			if known != nil && known.err == nil && j < len(known.lines) {
				k = known.lines[j]
			}
			resp, err := replayRequest(line, rec, sv, k)
			if err != nil {
				a.err = fmt.Errorf("line %d: %w", j, err)
				return a
			}
			a.lines = append(a.lines, resp)
		}
	}
	return a
}

func jobLowerBound(t *tree.Tree, width int) float64 {
	if t == nil || width < 1 {
		return 0
	}
	return sched.MakespanLowerBoundOn(t, machine.Uniform(width))
}

func splitLines(body []byte) [][]byte {
	var out [][]byte
	for _, l := range bytes.Split(body, []byte{'\n'}) {
		if l = bytes.TrimSpace(l); len(l) > 0 {
			out = append(out, l)
		}
	}
	return out
}

// check compares every reply with its reference and counts failed ops:
// a transport error, a non-200 status, an error or degraded answer, or
// any mismatch.
func (r *run) check() {
	for si := range r.samples {
		s := &r.samples[si]
		ops := r.w.ops(s.idx)
		r.ops += ops
		ref := r.refs[r.w.key(s.idx)]
		switch {
		case s.err != nil:
			r.failedOps += ops
		case ref == nil || ref.err != nil:
			r.failedOps += ops
			if ref != nil {
				s.err = fmt.Errorf("reference: %w", ref.err)
			}
		case r.w.kind == kindForest:
			if s.err = compareForest(s.forest, ref.forest); s.err != nil {
				r.failedOps += ops
			}
		default:
			bad := len(ref.lines) - len(s.lines)
			if bad < 0 {
				bad = 0
			}
			for j := range min(len(ref.lines), len(s.lines)) {
				if err := compareResponse(&s.lines[j], ref.lines[j]); err != nil {
					bad++
					if s.err == nil {
						s.err = fmt.Errorf("line %d: %w", j, err)
					}
				}
			}
			r.failedOps += bad
		}
	}
}

func compareResponse(got, want *service.Response) error {
	switch {
	case got.Error != "":
		return fmt.Errorf("error answer: %s", got.Error)
	case len(got.Degraded) > 0:
		return fmt.Errorf("degraded answer: %v", got.Degraded)
	case got.ID != want.ID:
		return fmt.Errorf("id %q, want %q", got.ID, want.ID)
	case got.TreeHash != want.TreeHash:
		return fmt.Errorf("tree_hash %s, want %s", got.TreeHash, want.TreeHash)
	case got.Bounds == nil || *got.Bounds != *want.Bounds:
		return fmt.Errorf("bounds %+v, want %+v", got.Bounds, *want.Bounds)
	case len(got.Results) != len(want.Results):
		return fmt.Errorf("%d results, want %d", len(got.Results), len(want.Results))
	}
	for k, g := range got.Results {
		w := want.Results[k]
		if g.Heuristic != w.Heuristic || g.Makespan != w.Makespan || g.PeakMemory != w.PeakMemory || g.Error != w.Error {
			return fmt.Errorf("result %d: %s makespan %v peak %d error %q, want %s makespan %v peak %d error %q",
				k, g.Heuristic, g.Makespan, g.PeakMemory, g.Error, w.Heuristic, w.Makespan, w.PeakMemory, w.Error)
		}
	}
	if !slices.Equal(got.Frontier, want.Frontier) {
		return fmt.Errorf("frontier %v, want %v", got.Frontier, want.Frontier)
	}
	if (got.Winner == nil) != (want.Winner == nil) || got.Winner != nil && *got.Winner != *want.Winner {
		return fmt.Errorf("winner %v, want %v", got.Winner, want.Winner)
	}
	return nil
}

func compareForest(got *forestReply, want *forest.Result) error {
	g, w := got.summary, &want.Summary
	switch {
	case len(got.jobs) != len(want.Jobs):
		return fmt.Errorf("%d job lines, want %d", len(got.jobs), len(want.Jobs))
	case g.Completed != w.Completed:
		return fmt.Errorf("%d jobs completed, want %d", g.Completed, w.Completed)
	case g.MemCap != w.MemCap:
		return fmt.Errorf("mem_cap %d, want %d", g.MemCap, w.MemCap)
	case g.PeakResident > g.MemCap:
		return fmt.Errorf("peak_resident %d above mem_cap %d", g.PeakResident, g.MemCap)
	case g.Makespan != w.Makespan:
		return fmt.Errorf("makespan %v, want %v", g.Makespan, w.Makespan)
	}
	return nil
}

func (r *run) latencies() []float64 {
	ms := make([]float64, len(r.samples))
	for i, s := range r.samples {
		ms[i] = float64(s.latency.Nanoseconds()) / 1e6
	}
	sort.Float64s(ms)
	return ms
}

// quantile interpolates linearly between the closest ranks of sorted xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// geomean accumulates a geometric mean of positive values.
type geomean struct {
	logSum float64
	n      int
}

func (g *geomean) add(x float64) {
	if x > 0 {
		g.logSum += math.Log(x)
		g.n++
	}
}

func (g *geomean) value() float64 {
	if g.n == 0 {
		return 0
	}
	return math.Exp(g.logSum / float64(g.n))
}

// qualityRatios are the paper's two objectives over every heuristic
// result of the run, each normalized by its lower bound: makespan by
// max(work/p, critical path), peak memory by M_seq. On the forest, every
// completed job's standalone plan is a heuristic result.
func (r *run) qualityRatios() (mk, mem float64) {
	var gm, gp geomean
	for _, s := range r.samples {
		for _, l := range s.lines {
			for _, hr := range l.Results {
				if hr.Error == "" {
					gm.add(hr.MakespanRatio)
					gp.add(hr.MemoryRatio)
				}
			}
		}
		if s.forest == nil {
			continue
		}
		ref := r.refs[r.w.key(s.idx)]
		for j, jr := range s.forest.jobs {
			if jr.Status != forest.StatusCompleted || ref == nil || j >= len(ref.jobLB) {
				continue
			}
			if lb := ref.jobLB[j]; lb > 0 {
				gm.add(jr.PlanMakespan / lb)
			}
			if jr.MemSeq > 0 {
				gp.add(float64(jr.PlanPeakMemory) / float64(jr.MemSeq))
			}
		}
	}
	return gm.value(), gp.value()
}

func (r *run) endToEndMetrics(m map[string]metric) {
	lat := r.latencies()
	mk, mem := r.qualityRatios()
	var rate, cpu, rss []float64
	for _, seg := range r.segments {
		rate = append(rate, float64(seg.ops)/seg.elapsed.Seconds())
		cpu = append(cpu, seg.cpu.Seconds()*1e3/float64(seg.ops))
		rss = append(rss, float64(seg.rss)/(1<<20))
	}
	m["setup_s"] = metric{median(r.setups), "s"}
	m["ops_per_s"] = metric{median(rate), "1/s"}
	m["latency_p50_ms"] = metric{quantile(lat, 0.5), "ms"}
	m["latency_p90_ms"] = metric{quantile(lat, 0.9), "ms"}
	m["server_cpu_ms_per_op"] = metric{median(cpu), "ms"}
	m["server_rss_peak_mb"] = metric{median(rss), "MB"}
	m["makespan_ratio_geomean"] = metric{mk, "ratio"}
	m["memory_ratio_geomean"] = metric{mem, "ratio"}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics reduces the traced replay, the /metrics deltas and the
// replies to per-layer metrics. A layer's time is its mean self time per
// call the server also made: zero where the server skipped the layer.
func (r *run) layerMetrics(m map[string]metric) {
	self := r.selfTimes()
	type agg struct {
		ns     float64
		allocs float64
		calls  float64
	}
	layers := map[string]*agg{}
	add := func(name string, ns float64, allocs uint64) {
		a := layers[name]
		if a == nil {
			a = &agg{}
			layers[name] = a
		}
		a.ns += ns
		a.allocs += float64(allocs)
		a.calls++
	}
	attributed := map[int]float64{}
	for i, sp := range r.rec.spans {
		if sp.Parent < 0 {
			continue
		}
		if sp.Served {
			attributed[sp.Req] += self[i]
		}
		replayOnly := sp.Name == "traversal.liu" || sp.Name == "exact.solve"
		if !sp.Served && !replayOnly {
			continue
		}
		add(sp.Name, self[i], sp.Allocs)
		if strings.HasPrefix(sp.Name, "sched.schedule.") {
			add("sched.schedule", self[i], sp.Allocs)
		}
	}
	ms := func(name string) metric {
		if a := layers[name]; a != nil {
			return metric{a.ns / a.calls / 1e6, "ms"}
		}
		return metric{0, "ms"}
	}
	allocs := func(name string) metric {
		if a := layers[name]; a != nil {
			return metric{a.allocs / a.calls, "count"}
		}
		return metric{0, "count"}
	}
	m["service.request_decode_ms"] = ms("service.request_decode")
	m["tree.parse_ms"] = ms("tree.parse")
	m["tree.parse_allocs"] = allocs("tree.parse")
	m["tree.hash_ms"] = ms("tree.hash")
	m["sched.precompute_ms"] = ms("sched.precompute")
	m["traversal.liu_ms"] = ms("traversal.liu")
	for _, id := range sched.PaperHeuristics() {
		m["sched.schedule_ms."+id.String()] = ms("sched.schedule." + id.String())
	}
	m["sched.schedule_allocs"] = allocs("sched.schedule")
	m["sched.evaluate_ms"] = ms("sched.evaluate")
	m["portfolio.race_ms"] = ms("portfolio.race")
	m["exact.solve_ms"] = ms("exact.solve")
	m["forest.decode_trace_ms"] = ms("forest.decode_trace")
	m["forest.run_ms"] = ms("forest.run")
	m["service.response_encode_ms"] = ms("service.response_encode")

	c := r.rec.counts
	m["portfolio.frontier_size"] = metric{ratio(c["portfolio.frontier_size"], c["portfolio.races"]), "count"}
	m["exact.explored_nodes"] = metric{c["exact.explored_nodes"], "count"}
	m["exact.proved_ratio"] = metric{ratio(c["exact.proved"], c["exact.solves"]), "ratio"}

	// The round trip not covered by replayed layers. A batch's lines run
	// on all the server's workers at once, so its layers are shared
	// among them.
	lanes := 1.0
	if r.w.kind == kindBatch {
		lanes = float64(r.workers)
	}
	var rtt, covered float64
	var roots int
	for _, sp := range r.rec.spans {
		if sp.Parent < 0 {
			rtt += float64(sp.RTT)
			covered += attributed[sp.Req] / lanes
			roots++
		}
	}
	m["service.residual_ms"] = metric{ratio(rtt-covered, float64(roots)) / 1e6, "ms"}
	m["service.attributed_share"] = metric{ratio(covered, rtt), "ratio"}

	hits, misses := r.delta("treeschedd_cache_hits_total"), r.delta("treeschedd_cache_misses_total")
	m["service.response_cache_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	pcHits, pcMisses := r.delta("treeschedd_precompute_cache_hits_total"), r.delta("treeschedd_precompute_cache_misses_total")
	m["service.precompute_cache_hit_ratio"] = metric{ratio(pcHits, pcHits+pcMisses), "ratio"}
	m["service.precompute_cache_evictions"] = metric{r.delta("treeschedd_precompute_cache_evictions_total"), "count"}
	m["service.queue_wait_ms"] = metric{ratio(r.delta("treeschedd_queue_wait_seconds_sum"), r.delta("treeschedd_queue_wait_seconds_count")) * 1e3, "ms"}
	m["service.gc_pause_ms_per_op"] = metric{r.delta("treeschedd_gc_pause_seconds_total") * 1e3 / float64(r.ops), "ms"}
	m["service.shed"] = metric{r.delta(`treeschedd_errors_total{kind="shed"}`), "count"}
	m["service.degraded"] = metric{r.delta("treeschedd_degraded_total"), "count"}

	traces := r.delta(`treeschedd_requests_total{endpoint="/v1/forest"}`)
	m["forest.rounds"] = metric{ratio(r.delta("treeschedd_forest_rounds_total"), traces), "count"}
	m["forest.booking_rejections"] = metric{ratio(r.delta("treeschedd_forest_booking_rejections_total"), traces), "count"}
	var stretch, resident float64
	var n int
	for _, s := range r.samples {
		if s.forest != nil && s.forest.summary != nil {
			stretch += s.forest.summary.MeanStretch
			resident += ratio(float64(s.forest.summary.PeakResident), float64(s.forest.summary.MemCap))
			n++
		}
	}
	m["forest.mean_stretch"] = metric{ratio(stretch, float64(n)), "ratio"}
	m["forest.peak_resident_ratio"] = metric{ratio(resident, float64(n)), "ratio"}
}

// selfTimes is each span's duration minus the part its children cover.
func (r *run) selfTimes() []float64 {
	self := make([]float64, len(r.rec.spans))
	for i, sp := range r.rec.spans {
		self[i] += float64(sp.End - sp.Start)
		if sp.Parent >= 0 {
			self[sp.Parent] -= float64(sp.End - sp.Start)
		}
	}
	return self
}

// writeSpans writes the traced run's spans as JSON lines.
func (r *run) writeSpans() error {
	if err := os.MkdirAll(r.cfg.spanDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.cfg.spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", r.cfg.workload, r.cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range r.rec.spans {
		if err := enc.Encode(sp); err != nil {
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

// summarize prints the run in human-readable form, ahead of the result
// line.
func summarize(out io.Writer, cfg config, r *run, res *result) {
	lat := r.latencies()
	p90 := quantile(lat, 0.9)
	above := 0
	for _, x := range lat {
		if x > p90 {
			above++
		}
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	fmt.Fprintf(out, "e2ebench workload=%s seed=%d seconds=%g trace=%d clients=%d requests=%d ops=%d failed=%d samples_above_p90=%d\n",
		cfg.workload, cfg.seed, cfg.duration.Seconds(), trace, clients, len(r.samples), res.Attempted, res.Failed, above)
	for _, s := range r.samples {
		if s.err != nil {
			fmt.Fprintf(out, "  first failure: request %d: %v\n", s.idx, s.err)
			break
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-36s %16.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}
