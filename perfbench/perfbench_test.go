package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"boss/internal/corpus"
)

func tinyConfig(workload string, seed int64) config {
	return config{workload: workload, seed: seed, seconds: 1, tiny: true, golden: "../results_full.txt"}
}

// TestSameSeedRepeats: two same-seed runs of every workload serve the
// same requests and report identical model metrics and counters.
func TestSameSeedRepeats(t *testing.T) {
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			a, err := run(tinyConfig(name, 7), nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := run(tinyConfig(name, 7), nil)
			if err != nil {
				t.Fatal(err)
			}
			if a.failed != 0 || b.failed != 0 {
				t.Fatalf("failed answers: %d and %d (%v %v)", a.failed, b.failed, a.notes, b.notes)
			}
			if a.attempted != b.attempted {
				t.Fatalf("attempted %d vs %d", a.attempted, b.attempted)
			}
			if len(a.exact) == 0 || !reflect.DeepEqual(a.exact, b.exact) {
				t.Fatalf("exact counters differ:\n%v\n%v", a.exact, b.exact)
			}
			for _, m := range []string{"sim_qps", "device_bytes_per_query"} {
				if a.e2e[m] != b.e2e[m] || a.e2e[m] == 0 {
					t.Fatalf("%s: %v vs %v", m, a.e2e[m], b.e2e[m])
				}
			}
		})
	}
}

// TestSeedChangesRequests: another seed draws another request list.
func TestSeedChangesRequests(t *testing.T) {
	c := corpus.Generate(corpus.CCNewsLike(0.004))
	for _, zipf := range []bool{true, false} {
		a, b := exprsOf(mixQueries(c, 60, zipf, 1)), exprsOf(mixQueries(c, 60, zipf, 2))
		if reflect.DeepEqual(a, b) {
			t.Fatalf("zipf=%v: seeds 1 and 2 drew the same queries", zipf)
		}
		if !reflect.DeepEqual(a, exprsOf(mixQueries(c, 60, zipf, 1))) {
			t.Fatalf("zipf=%v: seed 1 drew two different lists", zipf)
		}
	}
	sz := serveOpenSizes(true)
	top := func(string) []uint32 { return []uint32{1, 2, 3} }
	pool := exprsOf(mixQueries(c, clusterHotSizes(true).perSecond, true, 1))
	a, b := serveRequests(pool, sz, 100, 1, top), serveRequests(pool, sz, 100, 2, top)
	if reflect.DeepEqual(a, b) {
		t.Fatal("serve-open: seeds 1 and 2 drew the same schedule")
	}
}

// TestTracedSpansNest: in a traced run every span lies inside its parent
// and belongs to its parent's request.
func TestTracedSpansNest(t *testing.T) {
	for _, name := range []string{"cluster-hot", "accel-cold", "serve-open", "figures"} {
		tr := newTracer()
		res, err := workloads[name](tinyConfig(name, 3), tr)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.spans) <= int(res.attempted) {
			t.Fatalf("%s: %d spans for %d requests", name, len(tr.spans), res.attempted)
		}
		if bad := tr.nestingErrors(); bad != 0 {
			t.Fatalf("%s: %d spans outside their parent", name, bad)
		}
	}
}

// TestTraceOverhead: a traced run reports each host timing over the
// untraced run's, and counts the untraced run's requests and failures.
func TestTraceOverhead(t *testing.T) {
	u, tr := newResult(), newResult()
	u.attempted, u.failed = 10, 1
	tr.attempted = 10
	u.e2e["p50_ms"], tr.e2e["p50_ms"] = 2, 3
	u.layers["p99_ms"], tr.layers["p99_ms"] = 4, 5
	addTraceLayers(tr, newTracer(), u)
	if got := tr.layers["trace.overhead.p50_ms"]; got != 1.5 {
		t.Fatalf("p50 overhead = %v, want 1.5", got)
	}
	if got := tr.layers["trace.overhead.p99_ms"]; got != 1.25 {
		t.Fatalf("p99 overhead = %v, want 1.25", got)
	}
	if _, ok := tr.layers["trace.overhead.qps"]; ok {
		t.Fatal("overhead reported for a timing the untraced run lacks")
	}
	if tr.attempted != 20 || tr.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 20 and 1", tr.attempted, tr.failed)
	}
}

// TestSelfTime: a span's self time excludes the union of its children.
func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "root", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b", ID: 3, Parent: 1, Start: 30, End: 60},
		{Name: "c", ID: 4, Parent: 1, Start: 80, End: 90},
	}}
	got := tr.summarize()["root"].SelfMs * 1e6
	if got != 40 {
		t.Fatalf("root self time = %v ns, want 40", got)
	}
	if tr.nestingErrors() != 0 {
		t.Fatal("nested spans reported as escaping")
	}
	tr.spans = append(tr.spans, span{Name: "d", ID: 5, Parent: 1, Start: 90, End: 120})
	if tr.nestingErrors() != 1 {
		t.Fatal("a child ending after its parent was not reported")
	}
}

// TestBenchmarkJSONMatches: BENCHMARK.json names exactly the metrics the
// runs print, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the runs print %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Fatalf("%s %d: BENCHMARK.json has %s (%s), the runs print %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics)
	check("per_layer", spec.PerLayer, layerMetrics)
}
