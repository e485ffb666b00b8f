package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"testing"
	"time"

	"treesched/internal/service"
)

// inProcess serves treeschedd's handler in the test process; wrap, when
// non-nil, sits between the client and the handler.
func inProcess(wrap func(http.Handler) http.Handler) starter {
	return func(ctx context.Context) (*target, error) {
		svc := service.New(service.Config{})
		h := svc.Handler()
		if wrap != nil {
			h = wrap(h)
		}
		srv := httptest.NewServer(h)
		return &target{url: srv.URL, pid: os.Getpid(), stop: func() error {
			srv.Close()
			svc.Close()
			return nil
		}}, nil
	}
}

func toyConfig(workload string, trace bool, start starter) config {
	return config{
		workload: workload,
		seed:     3,
		duration: 300 * time.Millisecond,
		trace:    trace,
		sizes:    toySizes,
		start:    start,
	}
}

type benchmarkSpec struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestEveryMetricEmitted runs every workload at toy size, untraced and
// traced, and checks that each run passes the reference check and emits
// exactly the metrics BENCHMARK.json declares, with their units.
func TestEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res, _, err := execute(context.Background(), toyConfig(name, trace, inProcess(nil)))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

var makespanField = regexp.MustCompile(`"makespan":[0-9.e+-]+`)

// corruptMakespans rewrites every makespan in the replies of the
// scheduling endpoints.
func corruptMakespans(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/schedule" && r.URL.Path != "/v1/schedule/batch" {
			next.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		next.ServeHTTP(rec, r)
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.Header().Del("Content-Length")
		w.WriteHeader(rec.Code)
		w.Write(makespanField.ReplaceAll(rec.Body.Bytes(), []byte(`"makespan":12345.5`)))
	})
}

// TestCorruptedReplyFails checks that a reply whose makespans disagree
// with the in-process reference is counted as a failed op.
func TestCorruptedReplyFails(t *testing.T) {
	for _, name := range []string{"cold_large", "batch_mixed"} {
		res, _, err := execute(context.Background(), toyConfig(name, false, inProcess(corruptMakespans)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted replies passed: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
		}
		if !bytes.Contains(mustJSON(res), []byte(`"correct":false`)) {
			t.Errorf("%s: result line does not report correct=false", name)
		}
	}
}
