package core

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestWaitUntilNeverEarly pins the pacer's one hard guarantee: it never
// issues a request before its scheduled instant, whatever mix of sleeping
// and spinning the remaining gap calls for.
func TestWaitUntilNeverEarly(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		target := time.Now().Add(time.Duration(r.Int63n(int64(2 * time.Millisecond))))
		WaitUntil(target)
		if now := time.Now(); now.Before(target) {
			t.Fatalf("wait %d returned %v before its target", i, target.Sub(now))
		}
	}
}

// TestWaitUntilPastTargetReturnsAtOnce checks that a late arrival is issued
// immediately. The median call is compared, so a preempted call on a loaded
// host cannot fail the test; a wait that slept or spun would take tens of
// microseconds every time.
func TestWaitUntilPastTargetReturnsAtOnce(t *testing.T) {
	pasts := []time.Duration{time.Nanosecond, time.Microsecond, time.Millisecond, time.Hour}
	took := make([]time.Duration, 0, 1000)
	for i := 0; i < cap(took); i++ {
		target := time.Now().Add(-pasts[i%len(pasts)])
		start := time.Now()
		WaitUntil(target)
		took = append(took, time.Since(start))
	}
	start := time.Now()
	WaitUntil(time.Time{})
	took = append(took, time.Since(start))
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	if med := took[len(took)/2]; med > 10*time.Microsecond {
		t.Errorf("median wait for a past target took %v, want an immediate return", med)
	}
}

// TestIntegratedHarnessFloor is the live acceptance test for the pacer: at a
// low, fixed load of a constant-service app, integrated sojourn must stay
// within a bound of service time. What is left over — issue lag, the
// channel handoff to the worker and a little queueing (about 1µs at 5%
// utilization) — is the harness's own floor.
//
// The bound was sized before it was set, on a 2-vCPU Linux host with a full
// `go test ./...` looping alongside, 25 runs per setting:
//
//	pacer                      GOMAXPROCS  floor min  median  max
//	nanosleep + spin           2           21µs       42µs    72µs
//	nanosleep + spin           1           106µs      139µs   169µs
//	time.Sleep + spin (before) 2           427µs      483µs   521µs  (10 runs)
//	time.Sleep + spin (before) 1           444µs      485µs   517µs  (10 runs)
//
// With one processor the floor is higher because the sleeping dispatcher
// keeps the processor until the runtime's monitor retakes it, which delays
// the worker the send just woke. 300µs sits 131µs above the worst precise
// run and 127µs below the best time.Sleep run, so the test fails if the
// pacer regresses to millisecond-granular sleeping.
func TestIntegratedHarnessFloor(t *testing.T) {
	const bound = 300 * time.Microsecond
	srv := &fakeServer{name: "fake", busyWork: 50 * time.Microsecond}
	cfg := RunConfig{QPS: 1000, Threads: 1, Requests: 1000, WarmupRequests: 100, Seed: 29, KeepRaw: true}
	res, err := RunIntegrated(srv, fakeFactory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if floor := res.Sojourn.P50 - res.Service.P50; floor > bound {
		t.Errorf("sojourn p50 %v - service p50 %v = %v, want under %v (issue lag p50 %v, p99 %v)",
			res.Sojourn.P50, res.Service.P50, floor, bound, res.IssueLag.P50, res.IssueLag.P99)
	}
	if res.IssueLag.Count != res.Requests {
		t.Errorf("issue lag summarizes %d samples, want %d", res.IssueLag.Count, res.Requests)
	}
}
