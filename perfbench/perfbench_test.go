package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"tailbench/internal/app"
	"tailbench/internal/core"
	"tailbench/sweep"
)

// runShort runs one workload in short mode and decodes its result line.
func runShort(t *testing.T, workload string, trace string) resultLine {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", workload, "-seed", "3", "-seconds", "1", "-short", "-trace", trace, "-out", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace=%s exited %d\nstdout:\n%s\nstderr:\n%s", workload, trace, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	return res
}

// TestWorkloadsEmitEveryMetric runs each workload at a tiny size, untraced
// and traced, and checks that every catalogued metric is emitted with its
// unit and nothing else.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloadNames() {
		for _, tc := range []struct {
			trace string
			want  []metricDef
		}{{"0", endToEnd}, {"1", perLayer}} {
			t.Run(w+"/trace="+tc.trace, func(t *testing.T) {
				res := runShort(t, w, tc.trace)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(tc.want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(tc.want))
				}
				for _, m := range tc.want {
					got, ok := res.Metrics[m.name]
					if !ok {
						t.Errorf("metric %s missing", m.name)
						continue
					}
					if got.Unit != m.unit {
						t.Errorf("metric %s unit %q, want %q", m.name, got.Unit, m.unit)
					}
				}
			})
		}
	}
}

func TestGridDigestWorkerInvariant(t *testing.T) {
	spec := newStudySpec(5, true)
	var digests []uint64
	for _, w := range []int{1, 2} {
		g := spec.grid
		g.Workers = w
		res, err := sweep.RunGrid(g)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, gridDigest(res.Reports))
	}
	if digests[0] != digests[1] {
		t.Fatalf("digest %016x on 1 worker, %016x on 2", digests[0], digests[1])
	}
}

// constServer spins for a constant service time per request.
type constServer struct{ service time.Duration }

func (constServer) Name() string { return "const" }
func (s constServer) Process(req app.Request) (app.Response, error) {
	end := time.Now().Add(s.service)
	for time.Now().Before(end) {
	}
	return app.Response(req), nil
}
func (constServer) Close() error { return nil }

// echoClient sends fixed payloads and expects them echoed back.
type echoClient struct{}

func (echoClient) NextRequest() app.Request { return app.Request("ping") }
func (echoClient) CheckResponse(req app.Request, resp app.Response) error {
	if string(req) != string(resp) {
		return app.BadResponsef("echo mismatch")
	}
	return nil
}

// TestHarnessIsSojournMinusService drives a constant-service server through
// the integrated harness: harness percentiles must be those of
// sojourn − service per request, i.e. sojourn shifted by the service time.
func TestHarnessIsSojournMinusService(t *testing.T) {
	const service = 50 * time.Microsecond
	res, err := core.SingleRun(core.Integrated, constServer{service}, func(int64) (app.Client, error) { return echoClient{}, nil },
		core.RunConfig{QPS: 2000, Threads: 1, Requests: 1500, Seed: 9, KeepRaw: true, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d failed requests", res.Errors)
	}
	p, err := livePercentiles(res.SojournSamples, res.ServiceSamples)
	if err != nil {
		t.Fatal(err)
	}
	var minSvc time.Duration = 1 << 62
	for i, s := range res.ServiceSamples {
		if s < minSvc {
			minSvc = s
		}
		if h := res.SojournSamples[i] - s; h < 0 {
			t.Fatalf("request %d: sojourn %v below service %v", i, res.SojournSamples[i], s)
		}
	}
	if minSvc < service {
		t.Fatalf("service %v below the server's constant %v", minSvc, service)
	}
	// With constant service the harness share is the sojourn shifted by it;
	// the spin can overrun by scheduling noise, so allow a few microseconds.
	const slack = 10 * time.Microsecond
	if d := p.sojourn50 - service - p.harness50; d < -slack || d > slack {
		t.Errorf("harness p50 %v, sojourn p50 %v − service %v = %v", p.harness50, p.sojourn50, service, p.sojourn50-service)
	}
}

func TestPercentilesRefuseThinTail(t *testing.T) {
	n := 100*minBeyond - 1
	soj := make([]time.Duration, n)
	if _, err := livePercentiles(soj, soj); err == nil {
		t.Fatalf("%d samples: p99 reported with fewer than %d beyond it", n, minBeyond)
	}
	soj = make([]time.Duration, 100*minBeyond)
	if _, err := livePercentiles(soj, soj); err != nil {
		t.Fatalf("%d samples: %v", len(soj), err)
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{}
	tr.spans = []span{
		{Name: "bench/root", Start: 0, End: 100, Parent: -1},
		{Name: "core/a", Start: 10, End: 40, Parent: 0},
		{Name: "core/b", Start: 50, End: 60, Parent: 0},
		{Name: "stats/c", Start: 12, End: 20, Parent: 1},
	}
	got := tr.selfTimes()
	want := map[string]time.Duration{"bench": 60, "core": 32, "stats": 8}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("self time of %s = %v, want %v", l, got[l], d)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric catalog and the
// repository's BENCHMARK.json in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		name string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(set.json) != len(set.defs) {
			t.Errorf("%s: %d in BENCHMARK.json, %d in the catalog", set.name, len(set.json), len(set.defs))
			continue
		}
		for i, m := range set.defs {
			if set.json[i].Name != m.name || set.json[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), catalog %s (%s)", set.name, i, set.json[i].Name, set.json[i].Unit, m.name, m.unit)
			}
		}
	}
	// live-loopback runs but is not gated (README.md, "Host interference").
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok || w.Name == "live-loopback" {
			t.Errorf("BENCHMARK.json lists workload %s; the gated ones are %v minus live-loopback", w.Name, workloadNames())
		}
	}
	if len(doc.Workloads) != len(workloads)-1 {
		t.Errorf("BENCHMARK.json lists %d workloads, want %d", len(doc.Workloads), len(workloads)-1)
	}
}
