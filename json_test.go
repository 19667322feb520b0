package tailbench

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// TestResultJSONRoundTrip pins the contract tailbench-report -input depends
// on: a Result written as JSON must unmarshal back identically, including
// the named Mode and the named shape fields.
func TestResultJSONRoundTrip(t *testing.T) {
	in := Result{
		App:         "masstree",
		Mode:        ModeNetworked,
		Shape:       "diurnal",
		ShapeSpec:   "diurnal:500,300,10s",
		OfferedQPS:  500,
		AchievedQPS: 498.5,
		Threads:     2,
		Requests:    4000,
		Errors:      3,
		Queue:       LatencyStats{Count: 4000, Mean: time.Millisecond, P50: time.Millisecond, P95: 2 * time.Millisecond, P99: 3 * time.Millisecond, Max: 5 * time.Millisecond, Min: 100 * time.Microsecond},
		Service:     LatencyStats{Count: 4000, Mean: 2 * time.Millisecond},
		Sojourn:     LatencyStats{Count: 4000, P95: 4 * time.Millisecond, P99: 9 * time.Millisecond},
		IssueLag:    LatencyStats{Count: 4000, Mean: 3 * time.Microsecond, P50: 400 * time.Nanosecond, P99: 90 * time.Microsecond, Max: time.Millisecond, Min: 20 * time.Nanosecond},
		ServiceCDF:  []CDFPoint{{Value: time.Millisecond, Cumulative: 0.5}, {Value: 2 * time.Millisecond, Cumulative: 1}},
		SojournCDF:  []CDFPoint{{Value: 3 * time.Millisecond, Cumulative: 1}},
		Windows: []WindowStats{
			{Start: 0, End: time.Second, Requests: 200, OfferedQPS: 200, AchievedQPS: 199, Mean: time.Millisecond, P50: time.Millisecond, P95: 2 * time.Millisecond, P99: 3 * time.Millisecond, Max: 4 * time.Millisecond},
			{Start: time.Second, End: 2 * time.Second, Requests: 800, Errors: 1, OfferedQPS: 800, AchievedQPS: 790, P99: 9 * time.Millisecond},
		},
		Elapsed:       8 * time.Second,
		Runs:          2,
		P95CIRelative: 0.02,
		IdealMemory:   true,
	}
	data, err := json.Marshal(&in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out Result
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
	// The mode is encoded by name, not by constant value.
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if raw["Mode"] != "networked" {
		t.Errorf("Mode encoded as %v, want \"networked\"", raw["Mode"])
	}
	if raw["Shape"] != "diurnal" {
		t.Errorf("Shape encoded as %v, want \"diurnal\"", raw["Shape"])
	}
}

// TestClusterResultJSONRoundTrip does the same for cluster results,
// including the per-replica breakdown and the windowed series.
func TestClusterResultJSONRoundTrip(t *testing.T) {
	in := ClusterResult{
		App:         "xapian",
		Mode:        ModeSimulated,
		Policy:      "jsq2",
		Replicas:    4,
		Threads:     2,
		Shape:       "spike",
		ShapeSpec:   "spike:500,1500,5s,2s",
		OfferedQPS:  625,
		AchievedQPS: 620.25,
		Requests:    10000,
		Errors:      1,
		Queue:       LatencyStats{Count: 10000, Mean: 300 * time.Microsecond},
		Service:     LatencyStats{Count: 10000, Mean: time.Millisecond},
		Sojourn:     LatencyStats{Count: 10000, P99: 12 * time.Millisecond},
		ServiceCDF:  []CDFPoint{{Value: time.Millisecond, Cumulative: 1}},
		SojournCDF:  []CDFPoint{{Value: 2 * time.Millisecond, Cumulative: 1}},
		Windows: []WindowStats{
			{Start: 0, End: 500 * time.Millisecond, Requests: 250, OfferedQPS: 500, AchievedQPS: 500, Replicas: 2.5, P99: 2 * time.Millisecond},
		},
		Elapsed:         16 * time.Second,
		Controller:      "threshold",
		MinReplicas:     2,
		MaxReplicas:     8,
		ControlInterval: 50 * time.Millisecond,
		PeakReplicas:    6,
		ReplicaSeconds:  42.5,
		ScalingEvents: []ScalingEvent{
			{At: 2 * time.Second, From: 2, To: 6},
			{At: 4 * time.Second, From: 6, To: 5},
		},
		PerReplica: []ReplicaResult{
			{Index: 0, Slot: 0, State: "active", Lifetime: 16 * time.Second, Slowdown: 1, Dispatched: 2500, Requests: 2400, AchievedQPS: 150, Sojourn: LatencyStats{Count: 2400, P95: 2 * time.Millisecond}, MeanQueueDepth: 1.5, MaxQueueDepth: 9},
			{Index: 1, Slot: 1, State: "retired", ProvisionedAt: 2 * time.Second, RetiredAt: 9 * time.Second, Lifetime: 7 * time.Second, Slowdown: 3, Dispatched: 2400, Requests: 2300, Errors: 1, AchievedQPS: 145, MeanQueueDepth: 4.25, MaxQueueDepth: 31},
		},
	}
	data, err := json.Marshal(&in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out ClusterResult
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if raw["Mode"] != "simulated" || raw["ShapeSpec"] != "spike:500,1500,5s,2s" {
		t.Errorf("named fields encoded as Mode=%v ShapeSpec=%v", raw["Mode"], raw["ShapeSpec"])
	}
	if raw["Controller"] != "threshold" {
		t.Errorf("Controller encoded as %v, want \"threshold\"", raw["Controller"])
	}
}

// TestFixedClusterResultJSONOmitsElasticFields checks that a fixed-cluster
// result (no controller) does not grow optional autoscaling fields in its
// JSON encoding, keeping pre-elastic consumers unperturbed.
func TestFixedClusterResultJSONOmitsElasticFields(t *testing.T) {
	in := ClusterResult{App: "masstree", Policy: "leastq", Replicas: 2, PeakReplicas: 2, ReplicaSeconds: 4}
	data, err := json.Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"Controller", "MinReplicas", "MaxReplicas", "ControlInterval", "ScalingEvents"} {
		if _, present := raw[key]; present {
			t.Errorf("fixed-cluster JSON carries %s", key)
		}
	}
	var out ClusterResult
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.PeakReplicas != 2 || out.ReplicaSeconds != 4 {
		t.Errorf("cost ledger did not round-trip: %+v", out)
	}
}

// TestPipelineResultJSONRoundTrip pins the contract tailbench-report -input
// depends on for pipeline runs: a PipelineResult written as JSON must
// unmarshal back identically, per-tier fields included.
func TestPipelineResultJSONRoundTrip(t *testing.T) {
	in := PipelineResult{
		Label:       "xapian > 16*masstree",
		Mode:        ModeSimulated,
		Shape:       "constant",
		ShapeSpec:   "constant:2000",
		OfferedQPS:  2000,
		AchievedQPS: 1995.5,
		Requests:    9000,
		Errors:      2,
		Sojourn:     LatencyStats{Count: 9000, Mean: 2 * time.Millisecond, P95: 5 * time.Millisecond, P99: 9 * time.Millisecond},
		SojournCDF:  []CDFPoint{{Value: time.Millisecond, Cumulative: 0.4}, {Value: 9 * time.Millisecond, Cumulative: 1}},
		Windows: []WindowStats{
			{Start: 0, End: time.Second, Requests: 2000, OfferedQPS: 2000, AchievedQPS: 1990, Replicas: 2, P99: 8 * time.Millisecond},
		},
		Elapsed: 4 * time.Second,
		Tiers: []TierResult{
			{
				Name: "frontend", App: "xapian", Policy: "leastq", Replicas: 2, Threads: 1, FanOut: 1,
				OfferedQPS: 2000, Requests: 9000,
				Queue:        LatencyStats{Count: 9000, Mean: 100 * time.Microsecond},
				Sojourn:      LatencyStats{Count: 9000, P99: time.Millisecond},
				Critical:     LatencyStats{Count: 9000, P99: time.Millisecond},
				PeakReplicas: 2, ReplicaSeconds: 8,
				PerReplica: []ReplicaResult{{Index: 0, State: "active", Lifetime: 4 * time.Second, Slowdown: 1, Dispatched: 5000}},
			},
			{
				Name: "shards", App: "masstree", Policy: "jsq2", Replicas: 16, Threads: 2, FanOut: 16,
				Transport: "networked", NetworkDelay: 25 * time.Microsecond,
				HedgeDelay: 500 * time.Microsecond, HedgesIssued: 7200, HedgeWins: 3100,
				OfferedQPS: 32000, Requests: 144000, Errors: 1,
				Sojourn:  LatencyStats{Count: 144000, P99: 900 * time.Microsecond},
				Critical: LatencyStats{Count: 9000, P99: 3 * time.Millisecond},
				Windows: []WindowStats{
					{Start: 0, End: time.Second, Requests: 32000, OfferedQPS: 32000, Replicas: 16, P99: 850 * time.Microsecond},
				},
				Controller: "threshold", MinReplicas: 4, MaxReplicas: 24, ControlInterval: 50 * time.Millisecond,
				PeakReplicas: 20, ReplicaSeconds: 70.5,
				ScalingEvents: []ScalingEvent{{At: time.Second, From: 16, To: 20}},
				PerReplica: []ReplicaResult{
					{Index: 3, Slot: 3, State: "retired", ProvisionedAt: time.Second, ActiveAt: 1200 * time.Millisecond, RetiredAt: 3 * time.Second, Lifetime: 2 * time.Second, Slowdown: 1, Dispatched: 9000},
				},
			},
		},
	}
	data, err := json.Marshal(&in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out PipelineResult
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if raw["Mode"] != "simulated" || raw["Label"] != "xapian > 16*masstree" {
		t.Errorf("named fields encoded as Mode=%v Label=%v", raw["Mode"], raw["Label"])
	}
	// Edge-transport fields are omitempty: a tier without one (simulated, or
	// pre-Transport JSON) must not grow them, so saved results stay stable.
	frontend := raw["Tiers"].([]any)[0].(map[string]any)
	for _, key := range []string{"Transport", "NetworkDelay"} {
		if _, present := frontend[key]; present {
			t.Errorf("transport-free tier JSON carries %s", key)
		}
	}
}

// TestClusterResultJSONFreeOfPipelineFields checks that cluster (and
// single-server) results do not grow pipeline fields in their JSON
// encodings: the pipeline subsystem is a separate result type, and saved
// cluster JSON must stay exactly as it was.
func TestClusterResultJSONFreeOfPipelineFields(t *testing.T) {
	cluster := ClusterResult{
		App: "masstree", Policy: "leastq", Replicas: 2, PeakReplicas: 2, ReplicaSeconds: 4,
		PerReplica: []ReplicaResult{{Index: 0, State: "active", Slowdown: 1}},
	}
	data, err := json.Marshal(&cluster)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"Tiers", "FanOut", "Hedge", "HedgeDelay", "Critical", "Label"} {
		if _, present := raw[key]; present {
			t.Errorf("cluster JSON carries pipeline field %s", key)
		}
	}
	// A warm-pool replica (no cold-start delay) must not grow the ActiveAt
	// field either: it is omitempty and zero outside ProvisionDelay runs.
	rep := raw["PerReplica"].([]any)[0].(map[string]any)
	for _, key := range []string{"ActiveAt", "FanOut", "Hedge"} {
		if _, present := rep[key]; present {
			t.Errorf("fixed-cluster replica row carries %s", key)
		}
	}
}

// TestConstantShapeOmittedFieldsBackCompat checks that JSON written before
// the LoadShape redesign (no Shape/ShapeSpec/Windows fields) still decodes.
func TestConstantShapeOmittedFieldsBackCompat(t *testing.T) {
	legacy := `{"App":"masstree","Mode":"integrated","OfferedQPS":2000,"AchievedQPS":1990,"Requests":1000}`
	var out Result
	if err := json.Unmarshal([]byte(legacy), &out); err != nil {
		t.Fatalf("legacy unmarshal: %v", err)
	}
	if out.Shape != "" || out.Windows != nil {
		t.Errorf("legacy result grew shape fields: %+v", out)
	}
}
