package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"treesched/internal/dataset"
	"treesched/internal/forest"
	"treesched/internal/portfolio"
	"treesched/internal/sched"
	"treesched/internal/service"
	"treesched/internal/tree"
)

// kind selects how a workload's requests are sent, decoded and checked.
type kind int

const (
	kindSchedule kind = iota // one JSON Request per POST /v1/schedule
	kindBatch                // NDJSON Request lines per POST /v1/schedule/batch
	kindForest               // an NDJSON job trace per POST /v1/forest
)

// workload is one traffic mix. Timed request i carries body(i); requests
// with equal key(i) carry equal bodies, so they share one reference
// answer. Warm-up requests use negative indices, whose contents never
// appear in the timed window.
type workload struct {
	name string
	kind kind
	path string
	warm []int
	body func(i int) []byte
	key  func(i int) int
	// ops is the number of operations one request counts for: 1 per
	// request, a batch's lines, or a trace's jobs.
	ops func(i int) int
	// replay is how many leading requests the traced run replays.
	replay int
}

// sizes scales the workloads. The benchmark runs fullSizes; the package
// test runs toySizes.
type sizes struct {
	coldNodes   int
	repeatNodes int
	repeatTrees int
	batchLines  int
	batchPool   int
	batchMin    int
	batchMax    int
	traceJobs   int
	tracePool   int
	dataset     dataset.Scale
	// How many leading requests the traced run replays one at a time
	// under spans: a fixed prefix, so counts taken from the replay repeat
	// exactly for a seed.
	replaySingles int
	replayBatches int
	replayTraces  int
}

var fullSizes = sizes{
	coldNodes:   20_000,
	repeatNodes: 100_000,
	repeatTrees: 8,
	batchLines:  150,
	batchPool:   48,
	batchMin:    100,
	batchMax:    1000,
	traceJobs:   50,
	tracePool:   96,
	dataset:     dataset.Standard,

	replaySingles: 24,
	replayBatches: 6,
	replayTraces:  12,
}

var toySizes = sizes{
	coldNodes:   300,
	repeatNodes: 500,
	repeatTrees: 3,
	batchLines:  100,
	batchPool:   3,
	// treeschedd's batch handler loses the rest of a request body whose
	// unread part is under net/http's 256 KiB post-handler limit when it
	// flushes its first answer line (it does not enable full duplex), so
	// even toy batches stay well above that size.
	batchMin:  200,
	batchMax:  400,
	traceJobs: 6,
	tracePool: 2,
	dataset:   dataset.Quick,

	replaySingles: 4,
	replayBatches: 2,
	replayTraces:  2,
}

var workloadNames = []string{"cold_large", "repeat_large", "batch_mixed", "forest_trace"}

// weights draws the node weights of every generated tree: processing
// times and file sizes up to 100.
var weights = tree.WeightSpec{WMin: 1, WMax: 100, NMin: 0, NMax: 20, FMin: 1, FMax: 100}

// rngFor derives an independent generator for item i of a stream.
func rngFor(seed int64, stream, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*7_919_000 + int64(i)))
}

// family builds a random tree of n nodes from one of the three treegen
// families: rotating attachment, Prüfer and binary trees.
func family(rng *rand.Rand, f, n int) *tree.Tree {
	switch f % 3 {
	case 0:
		return tree.RandomAttachment(rng, n, weights)
	case 1:
		return tree.RandomPrufer(rng, n, weights)
	}
	return tree.RandomBinary(rng, n, weights)
}

func treeText(t *tree.Tree) string {
	var b strings.Builder
	t.Encode(&b) // a strings.Builder write cannot fail
	return b.String()
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("e2ebench: encoding a generated request: %v", err))
	}
	return b
}

func one(int) int { return 1 }

// warmRequests is the size of the batch and forest warm-up passes, two
// requests per client.
const warmRequests = 4

var warmIndices = []int{-1, -2, -3, -4}

func newWorkload(name string, seed int64, sz sizes) (*workload, error) {
	switch name {
	case "cold_large":
		return coldLarge(seed, sz), nil
	case "repeat_large":
		return repeatLarge(seed, sz), nil
	case "batch_mixed":
		return batchMixed(seed, sz)
	case "forest_trace":
		return forestTrace(seed, sz)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(workloadNames, ", "))
}

// coldLarge sends every tree once: distinct large trees at p=8 with the
// paper's four heuristics, so both server caches miss and the scheduling
// layers do most of the work. A run's bodies would not fit in memory at
// once, so each is written on demand: random shapes, 64 per family, each
// request drawing fresh weights over one of them.
func coldLarge(seed int64, sz sizes) *workload {
	shapes := make([][]int32, 192)
	for k := range shapes {
		shapes[k] = parents(family(rngFor(seed, 4, k), k, sz.coldNodes))
	}
	return &workload{
		name: "cold_large",
		kind: kindSchedule,
		path: "/v1/schedule",
		warm: []int{-1, -2, -3, -4, -5, -6},
		body: func(i int) []byte {
			shape := shapes[(i%len(shapes)+len(shapes))%len(shapes)]
			return requestBody(fmt.Sprintf("cold-%d", i), shape, rngFor(seed, 1, i), 8)
		},
		key:    func(i int) int { return i },
		ops:    one,
		replay: sz.replaySingles,
	}
}

// repeatLarge sends a few large trees once each during warm-up and then
// round-robin, so every timed request is a response-cache hit: the bytes
// path (read, decode, parse, hash, lookup, encode) with no scheduling.
func repeatLarge(seed int64, sz sizes) *workload {
	bodies := make([][]byte, sz.repeatTrees)
	warm := make([]int, sz.repeatTrees)
	for k := range bodies {
		shape := parents(family(rngFor(seed, 2, k), k, sz.repeatNodes))
		bodies[k] = requestBody(fmt.Sprintf("repeat-%d", k), shape, rngFor(seed, 5, k), 8)
		warm[k] = -1 - k
	}
	key := func(i int) int {
		if i < 0 {
			return -1 - i
		}
		return i % len(bodies)
	}
	return &workload{
		name:   "repeat_large",
		kind:   kindSchedule,
		path:   "/v1/schedule",
		warm:   warm,
		body:   func(i int) []byte { return bodies[key(i)] },
		key:    key,
		ops:    one,
		replay: sz.replaySingles,
	}
}

func parents(t *tree.Tree) []int32 {
	p := make([]int32, t.Len())
	for v := range p {
		p[v] = int32(t.Parent(v))
	}
	return p
}

// requestBody writes a /v1/schedule request for the tree of the given
// parent array, with weights drawn from the weights spec, in tree_text
// form (the textual format of tree.Encode). The text needs no JSON
// escaping beyond its newlines.
func requestBody(id string, parent []int32, rng *rand.Rand, p int) []byte {
	b := make([]byte, 0, 36*len(parent)+64)
	b = append(b, `{"id":"`...)
	b = append(b, id...)
	b = append(b, `","p":`...)
	b = strconv.AppendInt(b, int64(p), 10)
	b = append(b, `,"tree_text":"`...)
	b = strconv.AppendInt(b, int64(len(parent)), 10)
	for v, par := range parent {
		b = append(b, `\n`...)
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(par), 10)
		b = append(b, ' ')
		b = strconv.AppendFloat(b, centis(rng, weights.WMin, weights.WMax), 'g', -1, 64)
		b = append(b, ' ')
		b = strconv.AppendInt(b, weights.NMin+rng.Int63n(weights.NMax-weights.NMin+1), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, weights.FMin+rng.Int63n(weights.FMax-weights.FMin+1), 10)
	}
	return append(b, `\n"}`...)
}

// batchMixed sends NDJSON batches of small realistic trees drawn from a
// pool of distinct batches. The pool is far larger than the response
// cache, so a batch's lines have been evicted by the time it comes round
// again; hits come from the line mix inside each batch.
func batchMixed(seed int64, sz sizes) (*workload, error) {
	// The assembly trees are a fixed corpus, as a collection of real
	// matrices would be; the seed picks which of them each batch sends.
	insts, err := dataset.Collection(sz.dataset, corpusSeed)
	if err != nil {
		return nil, err
	}
	pool := make([][]byte, sz.batchPool+warmRequests) // the last batches are the warm-up pass
	for b := range pool {
		pool[b] = genBatch(rngFor(seed, 3, b), insts, sz)
	}
	key := func(i int) int {
		if i < 0 {
			return sz.batchPool - 1 - i
		}
		return i % sz.batchPool
	}
	return &workload{
		name:   "batch_mixed",
		kind:   kindBatch,
		path:   "/v1/schedule/batch",
		warm:   warmIndices,
		body:   func(i int) []byte { return pool[key(i)] },
		key:    key,
		ops:    func(int) int { return sz.batchLines },
		replay: sz.replayBatches,
	}, nil
}

// Line mix of a batch (shares of all lines).
const (
	sharePortfolio = 0.10 // objective or Auto+Exact on an 8–12-node tree
	shareRepeat    = 0.20 // exact repeat of a line at least repeatGap lines earlier
	shareOtherP    = 0.20 // an earlier line's tree at another p
	// repeatGap keeps a repeat's original answered before the repeat is
	// looked up, whatever the batch lookahead (2×Workers lines).
	repeatGap = 64
	// otherPGap does the same for the Precompute-cache entry a same-tree
	// line reuses.
	otherPGap = 16
)

// corpusSeed builds the dataset corpus batch lines draw from.
const corpusSeed = 1

var procCounts = []int{2, 4, 8, 16, 32}

var lineObjectives = []string{"min_makespan", "min_memory", "weighted:0.5", "makespan_under_memcap:1.5"}

// genBatch builds one batch. Fresh lines alternate between dataset
// assembly trees and treegen trees, each sent as JSON or as tree_text.
func genBatch(rng *rand.Rand, insts []dataset.Instance, sz sizes) []byte {
	type line struct {
		req service.Request
		t   *tree.Tree
	}
	lines := make([]line, 0, sz.batchLines)
	// Repeats can only follow repeatGap lines, so their share of the
	// later lines is raised to keep their share of the whole batch.
	repeatP := shareRepeat * float64(sz.batchLines) / float64(max(sz.batchLines-repeatGap, 1))
	for j := 0; j < sz.batchLines; j++ {
		id := fmt.Sprintf("l%d", j)
		r := rng.Float64()
		repeatHi := sharePortfolio
		if j >= repeatGap {
			repeatHi += repeatP
		}
		switch {
		case r < sharePortfolio:
			t := family(rng, rng.Intn(3), 8+rng.Intn(5))
			req := service.Request{ID: id, Tree: t, Processors: procCounts[rng.Intn(len(procCounts))]}
			if rng.Intn(2) == 0 {
				req.Heuristics = []sched.HeuristicID{sched.IDAuto, sched.IDExact}
			} else {
				obj, err := portfolio.ParseObjective(lineObjectives[rng.Intn(len(lineObjectives))])
				if err != nil {
					panic(err) // the objective list is constant
				}
				req.Objective = &obj
			}
			lines = append(lines, line{req: req, t: t})
			continue
		case r < repeatHi:
			src := lines[rng.Intn(j-repeatGap+1)]
			src.req.ID = id
			lines = append(lines, src)
			continue
		case r < repeatHi+shareOtherP && j >= otherPGap:
			src := lines[rng.Intn(j-otherPGap+1)]
			if src.req.Objective == nil && src.req.Heuristics == nil {
				req := src.req
				req.ID = id
				for req.Processors == src.req.Processors {
					req.Processors = procCounts[rng.Intn(len(procCounts))]
				}
				lines = append(lines, line{req: req, t: src.t})
				continue
			}
		}
		var t *tree.Tree
		if rng.Intn(3) == 0 {
			t = insts[rng.Intn(len(insts))].Tree
		} else {
			t = family(rng, rng.Intn(3), sz.batchMin+rng.Intn(sz.batchMax-sz.batchMin+1))
		}
		req := service.Request{ID: id, Processors: procCounts[rng.Intn(len(procCounts))]}
		if rng.Intn(2) == 0 {
			req.Tree = t
		} else {
			req.TreeText = treeText(t)
		}
		lines = append(lines, line{req: req, t: t})
	}
	var buf bytes.Buffer
	for _, l := range lines {
		buf.Write(mustJSON(l.req))
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// forestQuery is the forest engine configuration of every trace: p=8,
// shortest-job-first admission, a memory cap of 1.5× the largest job's
// sequential peak.
const forestQuery = "p=8&policy=sjf&mem_cap_factor=1.5"

// forestTrace sends generated job traces (Poisson arrivals, dataset
// mix) from a pool of distinct traces; the forest engine keeps no cache,
// so a pool trace costs the same every time it is sent.
func forestTrace(seed int64, sz sizes) (*workload, error) {
	pool := make([][]byte, sz.tracePool+warmRequests) // the last traces are the warm-up pass
	for k := range pool {
		jobs, err := forest.GenTrace(forest.GenConfig{Jobs: sz.traceJobs, Seed: seed*1_000_003 + int64(k), Dataset: true})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := forest.EncodeTrace(&buf, jobs); err != nil {
			return nil, err
		}
		pool[k] = buf.Bytes()
	}
	key := func(i int) int {
		if i < 0 {
			return sz.tracePool - 1 - i
		}
		return i % sz.tracePool
	}
	return &workload{
		name:   "forest_trace",
		kind:   kindForest,
		path:   "/v1/forest?" + forestQuery,
		warm:   warmIndices,
		body:   func(i int) []byte { return pool[key(i)] },
		key:    key,
		ops:    func(int) int { return sz.traceJobs },
		replay: sz.replayTraces,
	}, nil
}

// centis draws a processing time uniformly from [lo, hi] in steps of 0.01.
func centis(rng *rand.Rand, lo, hi float64) float64 {
	return lo + float64(rng.Int63n(int64((hi-lo)*100)+1))/100
}
