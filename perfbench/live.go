package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"tailbench/internal/app"
	"tailbench/internal/apps/masstree"
	"tailbench/internal/core"
	"tailbench/internal/stats"
	"tailbench/internal/workload"
)

const (
	// sloP95 is the latency limit max_qps_at_slo is taken against, on the
	// paper's tail percentile.
	sloP95 = 5 * time.Millisecond
	// minBeyond is the fewest samples a reported percentile must leave
	// beyond it.
	minBeyond = 10
	// ladderBase and ladderStep define the fixed rate ladder:
	// rung k offers ladderBase * ladderStep^k requests per second.
	ladderBase = 1000.0
	ladderStep = 1.15
	// ladderTrials is the number of trials per rung; ladderReach bounds the
	// scan to this many rungs above the start.
	ladderTrials = 3
	ladderReach  = 12
	// fixedSubRuns splits the fixed-rate phase; each reported percentile
	// is the lower quartile of the sub-runs' values (see quietQuartile).
	fixedSubRuns = 20
	// minAchieved is the achieved/offered ratio a ladder trial must reach.
	// A 0.3 s loopback trial reads 0.91–0.96 even at light load, because
	// the achieved rate's window spans the clients' staggered starts; 0.95
	// would fail healthy trials at random.
	minAchieved = 0.90
	// setupReps is how many times the dataset is built to time set-up.
	setupReps = 7
	// liveScale is masstree's dataset scale (its full default size).
	liveScale = 1.0
)

// liveSpec is one live workload: a harness configuration at a fixed rate.
type liveSpec struct {
	kind    core.ConfigKind
	clients int
	// fixedQPS is the offered rate of the fixed-rate phase.
	fixedQPS float64
	// startRung is the ladder rung the ceiling scan starts from, near the
	// configuration's ceiling on a 2-core host (the scan extends itself).
	startRung int
}

func runLiveIntegrated(b *bench) (*outcome, error) {
	return runLive(b, liveSpec{kind: core.Integrated, clients: 1, fixedQPS: 2000, startRung: 39})
}

func runLiveLoopback(b *bench) (*outcome, error) {
	return runLive(b, liveSpec{kind: core.Loopback, clients: 2, fixedQPS: 10000, startRung: 23})
}

// liveFigures are the end-to-end figures of one live measurement.
type liveFigures struct {
	sojourn50, sojourn95, sojourn99 time.Duration
	harness50, harness99            time.Duration
	samples, subRuns                int
	p99Spread                       [2]time.Duration // median and max sub-run p99
	maxQPS                          float64
	wall                            time.Duration // host time of the fixed-rate phase
	peakRSS                         float64       // MB, through the fixed-rate phase
	attempted, failed               int64
	allocBytes                      uint64
	gcCycles                        uint32
	measuredReqs                    int64
}

// liveRig is the built server and its configuration, shared by every run
// of one workload.
type liveRig struct {
	spec   liveSpec
	cfg    app.Config
	server app.Server
}

func (r *liveRig) newClient(seed int64) (app.Client, error) { return masstree.NewClient(r.cfg, seed) }

func runLive(b *bench, spec liveSpec) (*outcome, error) {
	oc := newOutcome()
	root := b.tr.begin("bench/"+b.opts.workload, -1, -1)
	defer b.tr.end(root)

	cfg := app.Config{Threads: 1, Scale: liveScale, Seed: b.opts.seed}.Normalize()
	if b.opts.short {
		cfg.Scale = 0.02
	}
	server, setup, err := buildServers(b, cfg, root)
	if err != nil {
		return nil, err
	}
	defer server.Close()
	oc.endToEnd["setup_s"] = setup.Seconds()
	rig := &liveRig{spec: spec, cfg: cfg, server: server}

	// Warm the server, the scheduler and the allocator; discarded.
	if _, err := rig.run(spec.fixedQPS, requestsFor(spec.fixedQPS, b.opts.budget(0.05)), workload.SplitSeed(b.opts.seed, 99)); err != nil {
		return nil, err
	}

	var fig *liveFigures
	if b.opts.trace {
		// Untraced then traced, each on half the budget and each with the
		// ceiling search: the difference is the tracing overhead.
		fixed, trial := b.opts.budget(0.2), b.opts.budget(0.01)
		plain, err := rig.measure(&bench{opts: b.opts, out: b.out}, fixed, trial, -1, oc)
		if err != nil {
			return nil, err
		}
		fig, err = rig.measure(b, fixed, trial, root, oc)
		if err != nil {
			return nil, err
		}
		oc.perLayer["trace.overhead_frac"] = float64(fig.sojourn50-plain.sojourn50) / float64(plain.sojourn50)
	} else {
		fig, err = rig.measure(b, b.opts.budget(0.8), 0, root, oc)
		if err != nil {
			return nil, err
		}
	}
	oc.endToEnd["sojourn_p50_us"] = us(fig.sojourn50)
	oc.endToEnd["harness_p50_us"] = us(fig.harness50)
	oc.endToEnd["study_wall_s"] = fig.wall.Seconds()
	oc.perLayer["tail.sojourn_p95_us"] = us(fig.sojourn95)
	oc.perLayer["tail.sojourn_p99_us"] = us(fig.sojourn99)
	oc.perLayer["tail.harness_p99_us"] = us(fig.harness99)
	oc.perLayer["tail.max_qps_at_slo"] = fig.maxQPS

	// The issue lag the pacer adds, stated next to the latency it inflates.
	lag := replayPacer(b, spec.fixedQPS, spec.clients, root)
	b.logf("fixed %.0f req/s: sojourn p50 %.1f p95 %.1f p99 %.1f us, harness p50 %.1f p99 %.1f us (lower quartile of %d sub-runs, n=%d; sub-run p99 median %.1f, max %.1f us)",
		spec.fixedQPS, us(fig.sojourn50), us(fig.sojourn95), us(fig.sojourn99), us(fig.harness50), us(fig.harness99),
		fig.subRuns, fig.samples, us(fig.p99Spread[0]), us(fig.p99Spread[1]))
	b.logf("pacer issue lag (replay, n=%d): p50 %.1f us, p99 %.1f us, cpu %.2f of wall",
		lag.n, us(lag.p50), us(lag.p99), lag.cpuFrac)
	if fig.maxQPS > 0 {
		b.logf("max_qps_at_slo %.0f req/s (p95 <= %v, no failures, achieved >= %.2f offered)", fig.maxQPS, sloP95, minAchieved)
	}

	if b.opts.trace {
		oc.perLayer["core.pacer_late_p50_us"] = us(lag.p50)
		oc.perLayer["core.pacer_late_p99_us"] = us(lag.p99)
		oc.perLayer["core.pacer_cpu_frac"] = lag.cpuFrac
		oc.perLayer["runtime.alloc_bytes_per_req"] = float64(fig.allocBytes) / float64(fig.measuredReqs)
		oc.perLayer["runtime.gc_cycles"] = float64(fig.gcCycles)
		if err := sharedProbes(b, oc, root, rig); err != nil {
			return nil, err
		}
		if err := studyProbes(b, oc, root); err != nil {
			return nil, err
		}
	}
	oc.endToEnd["peak_rss_mb"] = fig.peakRSS
	return oc, nil
}

// buildServers builds the dataset setupReps times and returns the last
// server with the median build time.
func buildServers(b *bench, cfg app.Config, parent int) (app.Server, time.Duration, error) {
	var times []time.Duration
	var server app.Server
	for i := 0; i < setupReps; i++ {
		if server != nil {
			server.Close()
			server = nil
			runtime.GC()
		}
		sp := b.tr.begin("apps/masstree.NewServer", parent, int64(i))
		start := time.Now()
		s, err := masstree.NewServer(cfg)
		times = append(times, time.Since(start))
		b.tr.end(sp)
		if err != nil {
			return nil, 0, fmt.Errorf("building masstree: %w", err)
		}
		server = s
	}
	return server, median(times), nil
}

// requestsFor is the request count of a run lasting d at qps, with a floor
// that leaves minBeyond samples beyond p99.
func requestsFor(qps float64, d time.Duration) int {
	n := int(qps * d.Seconds())
	if n < 100*minBeyond {
		n = 100 * minBeyond
	}
	return n
}

// run is one open-loop measurement at qps through the harness.
func (r *liveRig) run(qps float64, requests int, seed int64) (*core.Result, error) {
	res, err := core.SingleRun(r.spec.kind, r.server, r.newClient, core.RunConfig{
		QPS:            qps,
		Threads:        1,
		Clients:        r.spec.clients,
		Requests:       requests,
		WarmupRequests: requests / 10,
		Seed:           seed,
		KeepRaw:        true,
		Validate:       true,
	})
	if err != nil {
		return nil, fmt.Errorf("run at %.0f req/s: %w", qps, err)
	}
	return res, nil
}

// measure runs the fixed-rate phase for the given time and, when trial is
// positive, the ceiling search with trials of that length; b.tr nil
// measures untraced.
func (r *liveRig) measure(b *bench, fixed, trial time.Duration, parent int, oc *outcome) (*liveFigures, error) {
	fig := &liveFigures{}
	start := time.Now()
	sp := b.tr.begin("bench/fixed-rate", parent, -1)
	subRuns := fixedSubRuns
	if b.opts.short {
		subRuns = 2
	}
	perSub := requestsFor(r.spec.fixedQPS, fixed/time.Duration(subRuns))
	var s50, s95, s99, h50, h99 []time.Duration
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < subRuns; k++ {
		csp := b.tr.begin("core/SingleRun", sp, int64(k))
		res, err := r.run(r.spec.fixedQPS, perSub, workload.SplitSeed(b.opts.seed, int64(100+k)))
		b.tr.end(csp)
		if err != nil {
			return nil, err
		}
		fig.attempted += int64(perSub)
		lost := int64(perSub) - int64(res.Requests) - int64(res.Errors)
		fig.failed += int64(res.Errors) + lost
		if res.Errors > 0 || lost > 0 {
			oc.check(fmt.Errorf("fixed-rate sub-run %d: %d failed and %d never issued of %d", k, res.Errors, lost, perSub))
		}
		psp := b.tr.begin("stats/percentiles", sp, int64(k))
		p, err := livePercentiles(res.SojournSamples, res.ServiceSamples)
		b.tr.end(psp)
		if err != nil {
			return nil, fmt.Errorf("fixed-rate sub-run %d: %w", k, err)
		}
		s50, s95, s99 = append(s50, p.sojourn50), append(s95, p.sojourn95), append(s99, p.sojourn99)
		h50, h99 = append(h50, p.harness50), append(h99, p.harness99)
		fig.samples += len(res.SojournSamples)
		fig.subRuns++
		fig.measuredReqs += int64(res.Requests + res.Errors)
	}
	runtime.ReadMemStats(&after)
	fig.wall = time.Since(start)
	fig.peakRSS = peakRSSMB()
	b.tr.end(sp)
	fig.allocBytes = after.TotalAlloc - before.TotalAlloc
	fig.gcCycles = after.NumGC - before.NumGC
	fig.sojourn50, fig.sojourn95, fig.sojourn99 = quietQuartile(s50), quietQuartile(s95), quietQuartile(s99)
	fig.harness50, fig.harness99 = quietQuartile(h50), quietQuartile(h99)
	fig.p99Spread = [2]time.Duration{median(s99), slices.Max(s99)}

	if trial > 0 {
		lsp := b.tr.begin("bench/ladder", parent, -1)
		maxQPS, err := r.ceiling(b, trial, lsp, fig, oc)
		b.tr.end(lsp)
		if err != nil {
			return nil, err
		}
		fig.maxQPS = maxQPS
	}
	oc.attempted += fig.attempted
	oc.failed += fig.failed
	return fig, nil
}

// percentiles are one run's sojourn and harness percentiles.
type percentiles struct {
	sojourn50, sojourn95, sojourn99 time.Duration
	harness50, harness99            time.Duration
}

// livePercentiles computes sojourn percentiles and the harness share
// (sojourn − service, per request) from a run's raw samples, which the
// collector appends pairwise. It refuses a p99 with fewer than minBeyond
// samples beyond it.
func livePercentiles(sojourn, service []time.Duration) (percentiles, error) {
	n := len(sojourn)
	if n != len(service) {
		return percentiles{}, fmt.Errorf("raw samples unpaired: %d sojourn, %d service", n, len(service))
	}
	if n/100 < minBeyond {
		return percentiles{}, fmt.Errorf("%d samples leave fewer than %d beyond p99", n, minBeyond)
	}
	soj := append([]time.Duration(nil), sojourn...)
	harness := make([]time.Duration, n)
	for i := range harness {
		harness[i] = sojourn[i] - service[i]
	}
	stats.SortDurations(soj)
	stats.SortDurations(harness)
	return percentiles{
		sojourn50: stats.PercentileOfSorted(soj, 50),
		sojourn95: stats.PercentileOfSorted(soj, 95),
		sojourn99: stats.PercentileOfSorted(soj, 99),
		harness50: stats.PercentileOfSorted(harness, 50),
		harness99: stats.PercentileOfSorted(harness, 99),
	}, nil
}

// rung returns the offered rate of ladder rung k.
func rung(k int) float64 { return ladderBase * math.Pow(ladderStep, float64(k)) }

// ceiling estimates the highest rate the harness sustains. A trial at
// rung k passes when sojourn p95 is within the SLO, no request failed or
// went unissued, and achieved is at least minAchieved of offered. From the
// start rung the scan runs ladderTrials trials of the given length per rung
// upward until a rung where none passes and downward until a rung where all
// pass. The pass fractions f of the scanned rungs lo..hi then place the
// crossing at rung lo + Σf − 1/2: for a clean step this is the geometric
// midpoint between the last passing and the first failing rung, and where
// host noise blurs the step every trial counts instead of deciding the
// outcome alone.
func (r *liveRig) ceiling(b *bench, trial time.Duration, parent int, fig *liveFigures, oc *outcome) (float64, error) {
	frac := map[int]float64{}
	eval := func(k int) error {
		sp := b.tr.begin("bench/rung", parent, int64(k))
		defer b.tr.end(sp)
		q := rung(k)
		n := requestsFor(q, trial)
		won := 0
		for t := 0; t < ladderTrials; t++ {
			csp := b.tr.begin("core/SingleRun", sp, int64(t))
			res, err := r.run(q, n, workload.SplitSeed(b.opts.seed, int64(1000+10*k+t)))
			b.tr.end(csp)
			if err != nil {
				return err
			}
			fig.attempted += int64(n)
			if res.Errors > 0 {
				// A response that fails validation is wrong at any rate.
				fig.failed += int64(res.Errors)
				oc.check(fmt.Errorf("rung %.0f req/s: %d responses failed", q, res.Errors))
			}
			if res.Errors == 0 && int(res.Requests) == n && res.Sojourn.P95 <= sloP95 && res.AchievedQPS >= minAchieved*q {
				won++
			}
		}
		frac[k] = float64(won) / ladderTrials
		return nil
	}
	lo, hi := r.spec.startRung, r.spec.startRung
	if err := eval(lo); err != nil {
		return 0, err
	}
	// The scan stops at the ladder's ends; there the estimate is truncated.
	for frac[hi] > 0 && hi < r.spec.startRung+ladderReach {
		hi++
		if err := eval(hi); err != nil {
			return 0, err
		}
	}
	for frac[lo] < 1 && lo > 0 {
		lo--
		if err := eval(lo); err != nil {
			return 0, err
		}
	}
	sum := 0.0
	for k := lo; k <= hi; k++ {
		sum += frac[k]
	}
	return ladderBase * math.Pow(ladderStep, float64(lo)+sum-0.5), nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
