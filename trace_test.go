package tailbench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"tailbench/internal/trace"
)

// tracedSimCluster is the fixed-seed simulated cluster run the trace golden
// tests pin: windowed, queue-aware, synthetic service times.
func tracedSimCluster(t *testing.T) *ClusterResult {
	t.Helper()
	res, err := RunCluster(ClusterSpec{
		App: "masstree", Mode: ModeSimulated, Policy: "leastq", Replicas: 3, Threads: 2,
		QPS: 2500, Requests: 4000, Warmup: 400, Seed: 9,
		ServiceSamples: syntheticServiceSamples(300, 11),
		Trace:          &TraceSpec{TopK: 4, Window: 500 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// tracedSimPipeline is the fixed-seed simulated fan-out + hedge pipeline the
// trace golden tests pin.
func tracedSimPipeline(t *testing.T, k int) *PipelineResult {
	t.Helper()
	samples := expServiceSamples(500, time.Millisecond, 7)
	spec := fanoutSpec(k, samples, &HedgeSpec{Delay: 6 * time.Millisecond}, 150)
	spec.Trace = &TraceSpec{TopK: 4}
	res, err := RunPipeline(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// byteHash fingerprints an export byte stream for golden pinning.
func byteHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// chromeBytes renders retained traces to Chrome trace-event JSON.
func chromeBytes(t *testing.T, traces []RequestTrace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, traces); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceSimGoldenChrome pins bit-reproducibility of simulated traces: the
// same seed must yield byte-identical Chrome trace-event JSON across runs,
// and the golden hashes below pin the exact span layout (IDs, parents,
// kinds, timestamps) against drift in event ordering or trace plumbing.
func TestTraceSimGoldenChrome(t *testing.T) {
	cluster1 := chromeBytes(t, tracedSimCluster(t).Trace.Slowest)
	cluster2 := chromeBytes(t, tracedSimCluster(t).Trace.Slowest)
	if !bytes.Equal(cluster1, cluster2) {
		t.Error("simulated cluster trace export is not byte-reproducible at a fixed seed")
	}
	pipe1 := chromeBytes(t, tracedSimPipeline(t, 8).Trace.Slowest)
	pipe2 := chromeBytes(t, tracedSimPipeline(t, 8).Trace.Slowest)
	if !bytes.Equal(pipe1, pipe2) {
		t.Error("simulated pipeline trace export is not byte-reproducible at a fixed seed")
	}
	// Golden hashes captured at introduction. A change here means the span
	// structure of simulated traces moved — rule out accidental drift in the
	// virtual-time event order or trace recording seams before re-pinning.
	if got, want := byteHash(cluster1), uint64(0xa29a35c89d15a891); got != want {
		t.Errorf("cluster trace hash = %#x, want %#x", got, want)
	}
	if got, want := byteHash(pipe1), uint64(0xb2683a2e88c0b3b5); got != want {
		t.Errorf("pipeline trace hash = %#x, want %#x", got, want)
	}
}

// TestTraceAttributionExact pins the decomposition invariant the report
// relies on: a retained root's components sum exactly to its sojourn, for
// every retained root of every window, on both engines' simulated paths.
func TestTraceAttributionExact(t *testing.T) {
	cres := tracedSimCluster(t)
	pres := tracedSimPipeline(t, 8)
	for name, rep := range map[string]*TraceReport{"cluster": cres.Trace, "pipeline": pres.Trace} {
		if rep == nil {
			t.Fatalf("%s: traced run returned no trace report", name)
		}
		if rep.Roots == 0 || len(rep.Slowest) == 0 {
			t.Fatalf("%s: empty trace report: %d roots, %d retained", name, rep.Roots, len(rep.Slowest))
		}
		checkAttr := func(rt RequestTrace) {
			if got := rt.Attr.Total(); got != rt.Sojourn {
				t.Errorf("%s: root at +%v: attribution total %v != sojourn %v (queue=%v service=%v net=%v hedge=%v straggler=%v)",
					name, rt.At, got, rt.Sojourn, rt.Attr.Queue, rt.Attr.Service, rt.Attr.Net, rt.Attr.Hedge, rt.Attr.Straggler)
			}
		}
		for _, rt := range rep.Slowest {
			checkAttr(rt)
		}
		// Windowed means are built from the same exact decompositions; each
		// window must have retained something and seen a positive tail.
		for _, win := range rep.Windows {
			if win.Retained == 0 || win.Slowest <= 0 {
				t.Errorf("%s: window %v..%v retained %d roots, slowest %v", name, win.Start, win.End, win.Retained, win.Slowest)
			}
		}
	}
	// The cluster run counted every measured root.
	if cres.Trace.Roots != cres.Requests {
		t.Errorf("cluster trace saw %d roots, run measured %d", cres.Trace.Roots, cres.Requests)
	}
	if pres.Trace.Roots != pres.Requests {
		t.Errorf("pipeline trace saw %d roots, run measured %d", pres.Trace.Roots, pres.Requests)
	}
}

// TestTraceJSONRoundTrip pins that a traced result survives the save/replay
// cycle tailbench-report -input depends on: marshal, unmarshal, same trace.
func TestTraceJSONRoundTrip(t *testing.T) {
	res := tracedSimPipeline(t, 8)
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back PipelineResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Trace == nil {
		t.Fatal("trace report lost in the JSON round trip")
	}
	if !reflect.DeepEqual(back.Trace, res.Trace) {
		t.Error("trace report changed across the JSON round trip")
	}
}

// TestFanoutStragglerDominatesAtK16 pins the acceptance claim: at fan-out 16
// over an exponential-tailed shard service, the tail attribution must
// identify the max-of-k straggler wait — not queueing, service, or network —
// as the dominant component of the retained p99 trees.
func TestFanoutStragglerDominatesAtK16(t *testing.T) {
	samples := expServiceSamples(500, time.Millisecond, 7)
	spec := fanoutSpec(16, samples, nil, 150)
	spec.Trace = &TraceSpec{TopK: 16}
	res, err := RunPipeline(spec)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Trace.Attr
	if a.Straggler <= a.Queue || a.Straggler <= a.Service || a.Straggler <= a.Net || a.Straggler <= a.Hedge {
		t.Errorf("straggler component %v is not dominant: queue=%v service=%v net=%v hedge=%v",
			a.Straggler, a.Queue, a.Service, a.Net, a.Hedge)
	}
	// And it is not merely the largest sliver: the fan-in wait on the
	// slowest of 16 shards should carry the bulk of the retained tails.
	if frac := float64(a.Straggler) / float64(a.Total()); frac < 0.4 {
		t.Errorf("straggler fraction %.2f of retained tails, want >= 0.4", frac)
	}
}

// checkWellFormed asserts the structural invariants of one retained span
// tree: a single root span, every span closed with End >= Start, children
// nested inside their parents (hedge losers exempt — they are the only spans
// allowed to outlive their parent), and exactly one winning copy per hedged
// node. eps absorbs wall-clock measurement jitter on the live path; pass 0
// for virtual-time trees.
func checkWellFormed(t *testing.T, rt RequestTrace, eps time.Duration) (hedgeSpans int) {
	t.Helper()
	byID := make(map[int32]TraceSpan, len(rt.Spans))
	for _, sp := range rt.Spans {
		if _, dup := byID[sp.ID]; dup {
			t.Fatalf("duplicate span ID %d", sp.ID)
		}
		byID[sp.ID] = sp
	}
	root, ok := byID[0]
	if !ok || root.Kind != trace.KindRoot || root.Parent != -1 {
		t.Fatalf("malformed root span: %+v", root)
	}
	if root.End <= root.Start {
		t.Fatalf("root span never closed: %+v", root)
	}
	winners := map[int32]int{} // hedged request span -> winning copies
	hedged := map[int32]int{}  // hedged request span -> recorded copies
	for _, sp := range rt.Spans {
		if sp.End < sp.Start {
			t.Errorf("span %d (%s) ends %v before its start %v", sp.ID, sp.Kind, sp.End, sp.Start)
		}
		if sp.ID == 0 {
			continue
		}
		parent, ok := byID[sp.Parent]
		if !ok {
			t.Errorf("span %d (%s) has dangling parent %d", sp.ID, sp.Kind, sp.Parent)
			continue
		}
		if sp.Start < parent.Start-eps {
			t.Errorf("span %d (%s) starts %v before its parent's %v", sp.ID, sp.Kind, sp.Start, parent.Start)
		}
		loser := sp.Kind == trace.KindHedge && !sp.Winner
		inLoser := parent.Kind == trace.KindHedge && !parent.Winner
		if !loser && !inLoser && sp.End > parent.End+eps {
			t.Errorf("span %d (%s) ends %v after its parent %d closed at %v", sp.ID, sp.Kind, sp.End, sp.Parent, parent.End)
		}
		if sp.Kind == trace.KindRequest && !sp.Err && sp.Replica < 0 {
			t.Errorf("request span %d settled without a replica", sp.ID)
		}
		if sp.Kind == trace.KindHedge {
			hedgeSpans++
			hedged[sp.Parent]++
			if sp.Winner {
				winners[sp.Parent]++
			}
		}
	}
	for req, copies := range hedged {
		if w := winners[req]; w != 1 && !byID[req].Err {
			t.Errorf("hedged node %d recorded %d copies with %d winners, want exactly 1", req, copies, w)
		}
	}
	return hedgeSpans
}

// TestTraceSimWellFormed asserts the structural invariants with zero
// tolerance on the virtual-time engines.
func TestTraceSimWellFormed(t *testing.T) {
	for _, rt := range tracedSimCluster(t).Trace.Slowest {
		checkWellFormed(t, rt, 0)
	}
	hedges := 0
	for _, rt := range tracedSimPipeline(t, 8).Trace.Slowest {
		hedges += checkWellFormed(t, rt, 0)
	}
	if hedges == 0 {
		t.Error("hedged pipeline retained no hedge spans in its slowest trees")
	}
}

// TestTraceLiveWellFormed runs the live goroutine engines — a cluster and a
// hedged fan-out pipeline against a real application — with tracing on and
// asserts every retained span tree is well-formed. The test is meaningful
// under -race: span trees are appended from worker and reader goroutines.
func TestTraceLiveWellFormed(t *testing.T) {
	cres, err := RunCluster(ClusterSpec{
		App: "masstree", Mode: ModeIntegrated, Policy: "leastq", Replicas: 2, Threads: 1,
		QPS: 3000, Requests: 300, Warmup: 40, Scale: 0.05, Seed: 1,
		Trace: &TraceSpec{TopK: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cres.Trace == nil || len(cres.Trace.Slowest) == 0 {
		t.Fatal("live cluster run retained no traces")
	}
	for _, rt := range cres.Trace.Slowest {
		checkWellFormed(t, rt, 5*time.Millisecond)
	}

	// The pipeline retains every measured root's tree and hedges after 1µs,
	// so the timer and the first completion race on most sub-requests and
	// the trees can be checked against the engine's hedge count. (With a
	// 100µs budget a run hedged 0–2 sub-requests, and whether one landed in
	// the slowest few measured trees — warmup roots are never traced — was
	// a coin flip.)
	pres, err := RunPipeline(PipelineSpec{
		Mode: ModeIntegrated,
		Tiers: []TierSpec{
			{Cluster: ClusterSpec{App: "masstree", Replicas: 1, Scale: 0.05}},
			{Cluster: ClusterSpec{App: "masstree", Replicas: 2, Scale: 0.05}, FanOut: 2,
				Hedge: &HedgeSpec{Delay: time.Microsecond}},
		},
		QPS: 400, Requests: 400, Warmup: 40, Seed: 1,
		Trace: &TraceSpec{TopK: 400},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pres.Trace == nil || len(pres.Trace.Slowest) != 400 {
		t.Fatal("live pipeline run did not retain every measured trace")
	}
	hedges, hedgedNodes := 0, 0
	for _, rt := range pres.Trace.Slowest {
		hedges += checkWellFormed(t, rt, 5*time.Millisecond)
		nodes := map[int32]bool{}
		for _, sp := range rt.Spans {
			if sp.Kind == trace.KindHedge {
				nodes[sp.Parent] = true
			}
		}
		hedgedNodes += len(nodes)
	}
	issued := pres.Tiers[1].HedgesIssued
	if issued > 0 && hedges == 0 {
		t.Error("hedges were issued but no retained tree recorded a hedge span")
	}
	// A node is traced as hedged only when a duplicate was dispatched, so
	// the measured trees can hold at most the hedges the engine issued
	// (warmup roots account for the rest).
	if uint64(hedgedNodes) > issued {
		t.Errorf("%d traced sub-requests are marked hedged, but only %d hedges were issued", hedgedNodes, issued)
	}
	// The live attribution reconciles like the simulated one: exact by
	// construction, no wall-clock slop in the decomposition itself.
	for _, rt := range pres.Trace.Slowest {
		if rt.Attr.Total() != rt.Sojourn {
			t.Errorf("live root at +%v: attribution total %v != sojourn %v", rt.At, rt.Attr.Total(), rt.Sojourn)
		}
	}
}

// TestClusterHeterogeneousThreads pins the per-replica thread-count spec on
// both engines: the result reports the vector and per-replica values, and a
// queue-aware balancer routes proportionally more traffic to the bigger
// replica (the point of the satellite — distinguishing "slow replica" from
// "straggler request" in attribution studies).
func TestClusterHeterogeneousThreads(t *testing.T) {
	samples := syntheticServiceSamples(300, 11)
	res, err := RunCluster(ClusterSpec{
		App: "masstree", Mode: ModeSimulated, Policy: "leastq", Replicas: 3, Threads: 1,
		ThreadsPerReplica: []int{4, 1, 1},
		QPS:               2500, Requests: 4000, Warmup: 400, Seed: 9,
		ServiceSamples: samples,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{4, 1, 1}; fmt.Sprint(res.ThreadsPer) != fmt.Sprint(want) {
		t.Fatalf("ThreadsPer = %v, want %v", res.ThreadsPer, want)
	}
	for i, rep := range res.PerReplica {
		if want := []int{4, 1, 1}[i]; rep.Threads != want {
			t.Errorf("replica %d reports %d threads, want %d", i, rep.Threads, want)
		}
	}
	if res.PerReplica[0].Dispatched <= res.PerReplica[1].Dispatched ||
		res.PerReplica[0].Dispatched <= res.PerReplica[2].Dispatched {
		t.Errorf("4-thread replica did not absorb the most traffic: %d/%d/%d",
			res.PerReplica[0].Dispatched, res.PerReplica[1].Dispatched, res.PerReplica[2].Dispatched)
	}

	live, err := RunCluster(ClusterSpec{
		App: "masstree", Mode: ModeIntegrated, Policy: "leastq", Replicas: 2, Threads: 1,
		ThreadsPerReplica: []int{2, 1},
		QPS:               2000, Requests: 200, Warmup: 40, Scale: 0.05, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(live.ThreadsPer) != fmt.Sprint([]int{2, 1}) {
		t.Fatalf("live ThreadsPer = %v", live.ThreadsPer)
	}
	if live.PerReplica[0].Threads != 2 || live.PerReplica[1].Threads != 1 {
		t.Errorf("live per-replica threads = %d/%d, want 2/1", live.PerReplica[0].Threads, live.PerReplica[1].Threads)
	}
	if live.Errors != 0 {
		t.Errorf("live heterogeneous run had %d errors", live.Errors)
	}

	// Validation: vector length must match the pool.
	_, err = RunCluster(ClusterSpec{
		App: "masstree", Mode: ModeSimulated, Policy: "leastq", Replicas: 3,
		ThreadsPerReplica: []int{4, 1},
		QPS:               1000, Requests: 100, ServiceSamples: samples,
	})
	if err == nil {
		t.Error("mismatched ThreadsPerReplica length was accepted")
	}
	_, err = RunPipeline(PipelineSpec{
		Mode: ModeSimulated,
		Tiers: []TierSpec{{Cluster: ClusterSpec{
			App: "masstree", Replicas: 3, ThreadsPerReplica: []int{4, 1}, ServiceSamples: samples,
		}}},
		QPS: 1000, Requests: 100,
	})
	if err == nil {
		t.Error("pipeline accepted a mismatched per-tier ThreadsPerReplica length")
	}
}

// TestMetricsLiveSurface runs a live cluster with a metrics registry
// attached, serves it over HTTP, and asserts the endpoint exposes the run's
// counters — the `tailbench -metrics-addr` acceptance path.
func TestMetricsLiveSurface(t *testing.T) {
	reg := NewMetricsRegistry()
	srv, err := ServeMetrics("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res, err := RunCluster(ClusterSpec{
		App: "masstree", Mode: ModeIntegrated, Policy: "leastq", Replicas: 2, Threads: 1,
		QPS: 3000, Requests: 300, Warmup: 40, Scale: 0.05, Seed: 1,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("cluster_completed").Value(); got < res.Requests {
		t.Errorf("cluster_completed = %d, want >= %d measured requests", got, res.Requests)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{"cluster_completed", "cluster_sojourn_p99_seconds"} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics output is missing %q:\n%s", want, text)
		}
	}
}
