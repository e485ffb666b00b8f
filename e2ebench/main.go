// Command e2ebench is treesched's end-to-end benchmark. It builds its
// inputs from a seed, starts the treeschedd daemon as a process of its
// own, drives one workload over loopback as a closed loop of clients,
// checks every reply against an in-process reference, and prints every
// metric by name with its unit. The last line of its output is a JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
// With -trace 0 it reports the end-to-end metrics. With -trace 1 it runs
// the same traffic, then replays the leading requests one at a time
// through the layers' public functions, timing each call, and reports the
// per-layer metrics; the spans are written to -spans.
//
// Run it through run.sh, which builds the daemon and this command:
//
//	bash e2ebench/run.sh --workload cold_large --seed 1 --seconds 10 --trace 0
//
// README.md in this directory lists the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() { os.Exit(benchMain()) }

func benchMain() int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: cold_large, repeat_large, batch_mixed or forest_trace")
	seed := fs.Int64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced replay and per-layer metrics")
	daemon := fs.String("daemon", ".bench_build/treeschedd", "treeschedd binary to start")
	spans := fs.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "e2ebench: want -trace 0|1 and -seconds > 0")
		return 2
	}
	if _, err := os.Stat(*daemon); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: daemon binary: %v\n", err)
		return 1
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		sizes:    fullSizes,
		start:    daemonStarter(*daemon),
		spanDir:  *spans,
	}
	// Every run ends well inside three minutes, or fails.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	res, r, err := execute(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	summarize(os.Stdout, cfg, r, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
