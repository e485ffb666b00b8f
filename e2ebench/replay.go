package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"time"

	"treesched/internal/exact"
	"treesched/internal/forest"
	"treesched/internal/portfolio"
	"treesched/internal/sched"
	"treesched/internal/service"
	"treesched/internal/traversal"
	"treesched/internal/tree"
)

// span is one timed call of the traced replay.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs"`
	// RTT is the HTTP round trip of the request a root span replays.
	RTT int64 `json:"rtt_ns,omitempty"`
	// Served marks a call the server also made for this request. Calls
	// made only to build the reference answer — scheduling behind a cache
	// hit, the separate Liu and exact calls — are not attributed to the
	// request's round trip.
	Served bool `json:"served"`
}

// recorder keeps the traced run's spans and counts in memory. A nil
// recorder runs every call untimed: that is the reference check alone.
type recorder struct {
	t0     time.Time
	spans  []span
	counts map[string]float64
	req    int
	root   int
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), counts: map[string]float64{}}
}

// begin opens request req's root span; every call until end is its child.
func (r *recorder) begin(req int) {
	if r == nil {
		return
	}
	r.req, r.root = req, len(r.spans)
	now := time.Since(r.t0).Nanoseconds()
	r.spans = append(r.spans, span{Req: req, ID: r.root, Parent: -1, Name: "request", Start: now, End: now, Served: true})
}

func (r *recorder) end() {
	if r == nil {
		return
	}
	r.spans[r.root].End = time.Since(r.t0).Nanoseconds()
}

// call runs fn as a child span of the open request, counting its heap
// allocations. The allocation count is read outside the timed interval.
func (r *recorder) call(name string, served bool, fn func()) {
	if r == nil {
		fn()
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Since(r.t0).Nanoseconds()
	fn()
	end := time.Since(r.t0).Nanoseconds()
	runtime.ReadMemStats(&after)
	r.spans = append(r.spans, span{Req: r.req, ID: len(r.spans), Parent: r.root, Name: name,
		Start: start, End: end, Allocs: after.Mallocs - before.Mallocs, Served: served})
}

func (r *recorder) add(name string, v float64) {
	if r != nil {
		r.counts[name] += v
	}
}

// served is what the server did for one request, as its reply shows: a
// response-cache hit skips everything after the hash, a Precompute-cache
// hit skips the precompute.
type served struct {
	cached bool
	pcHit  bool
}

// replayRequest answers one /v1/schedule request (or batch line) in
// process, through the layers' public functions in the server's order:
// json.Unmarshal into service.Request → tree.DecodeMax →
// (*tree.Tree).CanonicalHash → sched.NewPrecompute → Options.SelectPre +
// Heuristic.RunOn and sched.Evaluate per heuristic, or portfolio.RunPre →
// json.Marshal(service.Response). The traced run also times
// traversal.BestPostOrder and, for Exact lines, exact.SolvePre as calls
// of their own. When the server answered from its response cache and the
// answer is known, the replay stops after the hash, as the server does,
// and encodes the known answer.
func replayRequest(raw []byte, rec *recorder, sv served, known *service.Response) (*service.Response, error) {
	var req service.Request
	var err error
	rec.call("service.request_decode", true, func() { err = json.Unmarshal(raw, &req) })
	if err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	if req.Machine != "" {
		return nil, errors.New("machine specs are not replayed")
	}
	t := req.Tree
	if req.TreeText != "" {
		rec.call("tree.parse", true, func() {
			t, err = tree.DecodeMax(strings.NewReader(req.TreeText), service.DefaultMaxNodes)
		})
		if err != nil {
			return nil, fmt.Errorf("parsing tree_text: %w", err)
		}
	}
	if t == nil || t.Len() == 0 {
		return nil, errors.New("request has no tree")
	}
	var hash string
	rec.call("tree.hash", true, func() { hash = t.CanonicalHash() })
	if sv.cached && known != nil {
		resp := *known
		resp.ID = req.ID
		rec.call("service.response_encode", true, func() { _, err = json.Marshal(&resp) })
		return &resp, err
	}
	scheduled := !sv.cached
	var pc *sched.Precompute
	rec.call("sched.precompute", scheduled && !sv.pcHit, func() { pc = sched.NewPrecompute(t) })
	if rec != nil {
		rec.call("traversal.liu", false, func() { traversal.BestPostOrder(t) })
	}
	ids, obj := resolveSelection(req)
	opts := sched.Options{Processors: req.Processors, Heuristics: ids,
		MemCapFactor: req.MemCapFactor, Partitions: req.Partitions}
	var resp *service.Response
	if obj != nil {
		resp, err = replayPortfolio(pc, opts, obj, rec, scheduled)
	} else {
		resp, err = replayPlain(pc, opts, rec, scheduled)
	}
	if err != nil {
		return nil, err
	}
	resp.ID, resp.TreeHash, resp.Nodes = req.ID, hash, t.Len()
	rec.call("service.response_encode", true, func() { _, err = json.Marshal(resp) })
	return resp, err
}

// resolveSelection mirrors the service's: Auto expands in place into the
// default portfolio candidates, and an objective — explicit, or implied by
// Auto or Exact — puts the request in portfolio mode.
func resolveSelection(req service.Request) ([]sched.HeuristicID, *portfolio.Objective) {
	hasAuto, hasExact := false, false
	for _, id := range req.Heuristics {
		hasAuto = hasAuto || id == sched.IDAuto
		hasExact = hasExact || id == sched.IDExact
	}
	ids := req.Heuristics
	if hasAuto {
		ids = nil
		seen := map[sched.HeuristicID]bool{}
		for _, id := range req.Heuristics {
			expand := []sched.HeuristicID{id}
			if id == sched.IDAuto {
				expand = portfolio.DefaultCandidates()
			}
			for _, e := range expand {
				if !seen[e] {
					seen[e] = true
					ids = append(ids, e)
				}
			}
		}
	}
	obj := req.Objective
	if obj == nil && (hasAuto || hasExact) {
		def := portfolio.MinMakespan()
		obj = &def
	}
	if obj != nil && len(ids) == 0 {
		ids = portfolio.DefaultCandidates()
	}
	return ids, obj
}

func replayPlain(pc *sched.Precompute, opts sched.Options, rec *recorder, scheduled bool) (*service.Response, error) {
	t, m := pc.Tree(), opts.Model()
	var hs []sched.Heuristic
	var memSeq int64
	var err error
	rec.call("sched.select", scheduled, func() { hs, memSeq, err = opts.SelectPre(pc) })
	if err != nil {
		return nil, err
	}
	var lb float64
	rec.call("sched.bounds", scheduled, func() { lb = sched.MakespanLowerBoundOn(t, m) })
	resp := &service.Response{Processors: m.P(), Bounds: &service.Bounds{MakespanLB: lb, MemorySeq: memSeq}}
	for _, h := range hs {
		hr := service.HeuristicResult{Heuristic: h.ID}
		var sc *sched.Schedule
		rec.call("sched.schedule."+h.ID.String(), scheduled, func() { sc, err = h.RunOn(t, m) })
		if err == nil {
			rec.call("sched.evaluate", scheduled, func() { hr.Makespan, hr.PeakMemory, err = sched.Evaluate(t, sc) })
		}
		if err != nil {
			hr.Error = err.Error()
		} else {
			if lb > 0 {
				hr.MakespanRatio = hr.Makespan / lb
			}
			if memSeq > 0 {
				hr.MemoryRatio = float64(hr.PeakMemory) / float64(memSeq)
			}
		}
		resp.Results = append(resp.Results, hr)
	}
	return resp, nil
}

func replayPortfolio(pc *sched.Precompute, opts sched.Options, obj *portfolio.Objective, rec *recorder, scheduled bool) (*service.Response, error) {
	var res *portfolio.Result
	var err error
	rec.call("portfolio.race", scheduled, func() {
		res, err = portfolio.RunPre(context.Background(), pc, *obj, portfolio.Options{
			Options: opts, Parallelism: 1, ExactNodes: service.DefaultExactNodes})
	})
	if err != nil {
		return nil, fmt.Errorf("portfolio race: %w", err)
	}
	resp := &service.Response{
		Processors: res.Processors,
		Bounds:     &service.Bounds{MakespanLB: res.MakespanLB, MemorySeq: res.MemorySeq},
		Objective:  obj,
	}
	for _, c := range res.Candidates {
		hr := service.HeuristicResult{Heuristic: c.ID, Proven: c.Proven,
			ExploredNodes: c.Explored, PrunedNodes: c.Pruned, MemoHits: c.MemoHits}
		if c.Err != nil {
			hr.Error = c.Err.Error()
		} else {
			hr.Makespan, hr.PeakMemory = c.Makespan, c.PeakMemory
			hr.MakespanRatio, hr.MemoryRatio = c.MakespanRatio, c.MemoryRatio
		}
		resp.Results = append(resp.Results, hr)
		if c.ID == sched.IDExact && scheduled {
			rec.add("exact.solves", 1)
			rec.add("exact.explored_nodes", float64(c.Explored))
			if c.Proven {
				rec.add("exact.proved", 1)
			}
		}
	}
	for _, i := range res.Frontier {
		resp.Frontier = append(resp.Frontier, res.Candidates[i].ID)
	}
	if w, ok := res.WinnerCandidate(); ok {
		id := w.ID
		resp.Winner = &id
	}
	if scheduled {
		rec.add("portfolio.races", 1)
		rec.add("portfolio.frontier_size", float64(len(res.Frontier)))
	}
	if rec != nil && hasExact(opts.Heuristics) {
		// The race runs Exact among the other candidates; this separate
		// call times the solver alone, with the race's cap and budget.
		m := opts.Model()
		rec.call("exact.solve", false, func() {
			_, err = exact.SolvePre(pc, m, exact.CapFromFactor(opts.MemCapFactor, pc.MSeq()), service.DefaultExactNodes)
		})
		if err != nil {
			return nil, fmt.Errorf("exact solve: %w", err)
		}
	}
	return resp, nil
}

func hasExact(ids []sched.HeuristicID) bool {
	for _, id := range ids {
		if id == sched.IDExact {
			return true
		}
	}
	return false
}

// forestConfig parses forestQuery the way the service reads its query.
func forestConfig() (forest.Config, error) {
	q, err := url.ParseQuery(forestQuery)
	if err != nil {
		return forest.Config{}, err
	}
	p, err1 := strconv.Atoi(q.Get("p"))
	factor, err2 := strconv.ParseFloat(q.Get("mem_cap_factor"), 64)
	pol, err3 := forest.ParsePolicy(q.Get("policy"))
	if err := errors.Join(err1, err2, err3); err != nil {
		return forest.Config{}, fmt.Errorf("forest query %q: %w", forestQuery, err)
	}
	return forest.Config{Processors: p, Policy: pol, MemCapFactor: factor}, nil
}

// replayForest answers one /v1/forest trace in process:
// forest.DecodeTrace → forest.Run → the NDJSON reply's encoding. It also
// returns the decoded jobs.
func replayForest(raw []byte, rec *recorder) (*forest.Result, []forest.Job, error) {
	cfg, err := forestConfig()
	if err != nil {
		return nil, nil, err
	}
	var jobs []forest.Job
	rec.call("forest.decode_trace", true, func() {
		jobs, err = forest.DecodeTrace(bytes.NewReader(raw), forest.DecodeLimits{
			MaxJobs:      service.DefaultMaxForestJobs,
			MaxNodes:     service.DefaultMaxNodes,
			MaxLineBytes: service.DefaultMaxBodyBytes,
		})
	})
	if err != nil {
		return nil, nil, fmt.Errorf("decoding trace: %w", err)
	}
	var res *forest.Result
	rec.call("forest.run", true, func() { res, err = forest.Run(context.Background(), jobs, cfg) })
	if err != nil {
		return nil, nil, fmt.Errorf("forest run: %w", err)
	}
	rec.call("service.response_encode", true, func() {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for i := range res.Jobs {
			enc.Encode(&res.Jobs[i]) // a bytes.Buffer write cannot fail
		}
		enc.Encode(struct {
			Summary *forest.Summary `json:"summary"`
		}{&res.Summary})
	})
	return res, jobs, nil
}
