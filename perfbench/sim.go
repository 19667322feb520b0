package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"tailbench"
	"tailbench/internal/plan"
	"tailbench/internal/queueing"
	"tailbench/internal/sim"
	"tailbench/internal/stats"
	"tailbench/internal/workload"
	"tailbench/sweep"
)

const (
	// planSLO is the planner's feasibility limit on peak windowed p99.
	planSLO = 20 * time.Millisecond
	// simWindow is the explicit accounting window the planner requires.
	simWindow = 25 * time.Millisecond
	// mgkApp names the application whose default contention coefficients
	// the M/G/k model takes.
	mgkApp = "masstree"
	// mgkFixedLoad is the utilization of the curve point reported as the
	// simulated configuration's fixed-rate latency (1 thread).
	mgkFixedLoad = 0.7
	// studyMinReps is the fewest timed studies a run makes.
	studyMinReps = 3
	// planSearches is how many planner searches, each on its own seed
	// derived from the workload seed, a full-size study runs. Where the
	// optimum lies decides how many cells a search simulates (about 50 or
	// about 100 on these axes), so one search's cost swings with the seed;
	// the study counts their mean.
	planSearches = 6
	// simSetupReps is how many times set-up is timed; it takes a few
	// milliseconds, so the median needs many.
	simSetupReps = 61
)

// mgkThreads and mgkLoads span phase (c)'s latency-vs-load curve; loads are
// fractions of the model's saturation rate.
var (
	mgkThreads = []int{1, 4}
	mgkLoads   = []float64{0.3, 0.5, mgkFixedLoad, 0.9}
)

// studySpec sizes one study.
type studySpec struct {
	grid        sweep.GridConfig
	mgkRequests int
	// planSeeds are the grid seeds of phase (b)'s searches; the first is
	// the grid's own.
	planSeeds []int64
}

// newStudySpec returns the sim-sweep study for a seed: (a) the grid
// random/leastq/jsq2 × const/diurnal × static/threshold × fan-out 1/8 with
// two reps on two workers, (b) the planner on the same axes, once per plan
// seed, (c) the M/G/k curve.
func newStudySpec(seed int64, short bool) studySpec {
	s := studySpec{
		grid: sweep.GridConfig{
			Axes: sweep.GridAxes{
				Policies:    []string{"random", "leastq", "jsq2"},
				Shapes:      []tailbench.LoadShape{nil, tailbench.Diurnal(600, 250, 2*time.Second)},
				Controllers: []string{sweep.ControllerStatic, "threshold"},
				FanOuts:     []int{1, 8},
			},
			Replicas:      4,
			Threads:       1,
			ShardReplicas: 8,
			Requests:      4000,
			Reps:          2,
			Seed:          seed,
			Workers:       2,
			Window:        simWindow,
		},
		mgkRequests: 30000,
		planSeeds:   []int64{seed},
	}
	if short {
		s.grid.Requests = 200
		s.mgkRequests = 2000
		return s
	}
	for i := int64(1); i < planSearches; i++ {
		s.planSeeds = append(s.planSeeds, workload.SplitSeed(seed, 100+i))
	}
	return s
}

// mgkSample is the fixed synthetic service sample phase (c) calibrates
// from: lognormal around a 5µs mean, like masstree's service times. It does
// not depend on the workload seed.
func mgkSample() []time.Duration {
	r := workload.NewRand(11)
	out := make([]time.Duration, 100000)
	for i := range out {
		out[i] = time.Duration(4000 * math.Exp(0.6*r.NormFloat64()))
	}
	return out
}

// studySetup is what a study builds before its first cell: the calibrated
// model and the sequential pass's arena.
type studySetup struct {
	model *sim.AppModel
	arena *sweep.CellArena
}

func setupStudy(spec studySpec, sample []time.Duration) (*studySetup, error) {
	model, err := tailbench.Calibrate(mgkApp, sample, 1)
	if err != nil {
		return nil, fmt.Errorf("calibrating M/G/k model: %w", err)
	}
	return &studySetup{model: model, arena: sweep.NewCellArena(spec.grid)}, nil
}

// mgkPoint is one point of the latency-vs-load curve. It keeps the
// summaries only: holding the raw samples of one study while the next runs
// would make peak memory depend on when the collector ran.
type mgkPoint struct {
	threads        int
	load           float64
	queue, sojourn stats.LatencySummary
}

// studyResult is one study's outputs and its phase costs.
type studyResult struct {
	grid *sweep.GridResult
	// plans holds one search per spec.planSeeds entry, in that order.
	plans     []*plan.Result
	curve     []mgkPoint
	gridWall  time.Duration
	planWalls []time.Duration
	// mgkPieces times phase (c)'s AppModel.Run calls one by one.
	mgkPieces []time.Duration
	gridAlloc uint64
	gridGC    uint32
	mgkReqs   int
	// fixed is the 1-thread curve point at mgkFixedLoad; maxQPS the highest
	// rate whose simulated p95 meets sloP95.
	fixed  mgkPoint
	maxQPS float64
}

// cells counts the simulations a study ran.
func (s *studyResult) cells() int64 {
	n := s.grid.Cells + len(s.curve)
	for _, p := range s.plans {
		n += p.Stats.CellsRun
	}
	return int64(n)
}

// planStats sums the plan.Stats of a study's searches.
func (s *studyResult) planStats() plan.Stats {
	var t plan.Stats
	for _, p := range s.plans {
		t.EventsSimulated += p.Stats.EventsSimulated
		t.CellsRun += p.Stats.CellsRun
		t.CellsPruned += p.Stats.CellsPruned
		t.CellsMemoized += p.Stats.CellsMemoized
	}
	return t
}

// phaseTimes collects the phase times of repeated studies of one spec.
// Every piece of a study (the grid, each planner search, each M/G/k run) is
// deterministic CPU work that is the same in every repetition, so
// interference from other tenants of a shared host only ever adds to it,
// and each piece's fastest repetition is its cost. Timing pieces one by one
// needs quiet spells as long as one piece, not one as long as a study.
type phaseTimes struct {
	grid      []time.Duration
	plan, mgk [][]time.Duration // per piece, then per repetition
}

func (p *phaseTimes) add(st *studyResult) {
	p.grid = append(p.grid, st.gridWall)
	p.plan = addPieces(p.plan, st.planWalls)
	p.mgk = addPieces(p.mgk, st.mgkPieces)
}

func addPieces(reps [][]time.Duration, pieces []time.Duration) [][]time.Duration {
	if reps == nil {
		reps = make([][]time.Duration, len(pieces))
	}
	for i, d := range pieces {
		reps[i] = append(reps[i], d)
	}
	return reps
}

// fastestSum sums each piece's fastest repetition.
func fastestSum(reps [][]time.Duration) time.Duration {
	var sum time.Duration
	for _, ds := range reps {
		sum += slices.Min(ds)
	}
	return sum
}

func (p *phaseTimes) gridWall() time.Duration { return slices.Min(p.grid) }
func (p *phaseTimes) mgkWall() time.Duration  { return fastestSum(p.mgk) }

// planWall is the mean over plan seeds of each search's fastest time.
func (p *phaseTimes) planWall() time.Duration {
	return fastestSum(p.plan) / time.Duration(len(p.plan))
}

// wall is the study's cost: the grid, one planner search (the mean over
// seeds) and the M/G/k curve.
func (p *phaseTimes) wall() time.Duration { return p.gridWall() + p.planWall() + p.mgkWall() }

// runStudy runs phases (a), (b) and (c) once.
func runStudy(b *bench, spec studySpec, su *studySetup, parent int) (*studyResult, error) {
	out := &studyResult{}
	var m0, m1 runtime.MemStats
	// Each phase starts from a collected and scavenged heap, so the peak
	// RSS is one phase's, not an accident of GC timing across phases.
	debug.FreeOSMemory()

	sp := b.tr.begin("sweep/RunGrid", parent, -1)
	runtime.ReadMemStats(&m0)
	start := time.Now()
	g, err := sweep.RunGrid(spec.grid)
	out.gridWall = time.Since(start)
	runtime.ReadMemStats(&m1)
	b.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("phase a: %w", err)
	}
	out.grid, out.gridAlloc, out.gridGC = g, m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC

	for i, seed := range spec.planSeeds {
		grid := spec.grid
		grid.Seed = seed
		debug.FreeOSMemory()
		sp = b.tr.begin("plan/Run", parent, int64(i))
		start = time.Now()
		p, err := plan.Run(plan.Config{Grid: grid, SLO: planSLO, MinReplicas: 1, MaxReplicas: 16})
		out.planWalls = append(out.planWalls, time.Since(start))
		b.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("phase b: %w", err)
		}
		out.plans = append(out.plans, p)
	}

	// Each AppModel.Run is timed on its own: a seed's pieces are the same
	// work in every study, so phaseTimes can take each one's fastest.
	run := func(p sim.RunParams, span int, id int64) (*sim.Result, error) {
		csp := b.tr.begin("sim/AppModel.Run", span, id)
		start := time.Now()
		res, err := su.model.Run(p)
		out.mgkPieces = append(out.mgkPieces, time.Since(start))
		b.tr.end(csp)
		out.mgkReqs += p.Requests
		return res, err
	}
	debug.FreeOSMemory()
	sp = b.tr.begin("sim/curve", parent, -1)
	for _, th := range mgkThreads {
		sat := su.model.SaturationQPS(th, false)
		for _, ld := range mgkLoads {
			seed := workload.SplitSeed(spec.grid.Seed, int64(1000*th)+int64(100*ld))
			n := spec.mgkRequests
			if th == 1 && ld == mgkFixedLoad {
				n *= 4 // the reported point: a tail that varies less by seed
			}
			res, err := run(sim.RunParams{QPS: ld * sat, Threads: th, Requests: n, Seed: seed}, sp, int64(len(out.curve)))
			if err != nil {
				return nil, fmt.Errorf("phase c: %w", err)
			}
			pt := mgkPoint{threads: th, load: ld, queue: res.Queue, sojourn: res.Sojourn}
			out.curve = append(out.curve, pt)
			if th == 1 && ld == mgkFixedLoad {
				out.fixed = pt
			}
		}
	}
	csp := b.tr.begin("sim/ceiling", sp, -1)
	maxQPS, err := mgkCeiling(su.model.SaturationQPS(1, false), spec, func(p sim.RunParams) (*sim.Result, error) {
		return run(p, csp, -1)
	})
	b.tr.end(csp)
	b.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("phase c: %w", err)
	}
	out.maxQPS = maxQPS
	return out, nil
}

// mgkCeiling bisects, one thread, for the rate at which the simulated p95
// reaches sloP95, to 0.2% of saturation, and interpolates linearly within
// the last bracket. Arrivals at every rate come from the same scaled gap
// stream, so p95 grows monotonically with the rate and the bisection is
// exact for the seed. run runs the model.
func mgkCeiling(sat float64, spec studySpec, run func(sim.RunParams) (*sim.Result, error)) (float64, error) {
	p95 := func(load float64) (time.Duration, error) {
		res, err := run(sim.RunParams{QPS: load * sat, Threads: 1, Requests: spec.mgkRequests, Seed: workload.SplitSeed(spec.grid.Seed, 5)})
		if err != nil {
			return 0, err
		}
		return res.Sojourn.P95, nil
	}
	lo, hi := 0.5, 1.5
	pLo, err := p95(lo)
	if err != nil {
		return 0, err
	}
	pHi, err := p95(hi)
	if err != nil {
		return 0, err
	}
	// A finite run needs overload to build a backlog as long as the SLO;
	// the shorter the run, the more.
	for pHi <= sloP95 && hi < 16 {
		lo, pLo, hi = hi, pHi, 2*hi
		if pHi, err = p95(hi); err != nil {
			return 0, err
		}
	}
	if pLo > sloP95 || pHi <= sloP95 {
		return 0, fmt.Errorf("M/G/1 p95 %v at %.2f and %v at %.2f times saturation do not bracket the SLO %v", pLo, lo, pHi, hi, sloP95)
	}
	for hi-lo > 2e-3 {
		mid := (lo + hi) / 2
		p, err := p95(mid)
		if err != nil {
			return 0, err
		}
		if p <= sloP95 {
			lo, pLo = mid, p
		} else {
			hi, pHi = mid, p
		}
	}
	frac := float64(sloP95-pLo) / float64(pHi-pLo)
	return (lo + frac*(hi-lo)) * sat, nil
}

// gridDigest is an FNV-64a digest of a grid's reports with the one
// wall-clock field zeroed: equal digests mean byte-identical results.
func gridDigest(reports []sweep.SimReport) uint64 {
	h := fnv.New64a()
	enc := json.NewEncoder(h)
	for _, r := range reports {
		r.SimWallNs = 0
		_ = enc.Encode(r) // hash.Hash writes never fail
	}
	return h.Sum64()
}

// curveDigest digests the M/G/k curve's latency summaries.
func curveDigest(curve []mgkPoint) uint64 {
	h := fnv.New64a()
	enc := json.NewEncoder(h)
	for _, p := range curve {
		_ = enc.Encode([]stats.LatencySummary{p.queue, p.sojourn}) // hash.Hash writes never fail
	}
	return h.Sum64()
}

// checkStudy verifies a study's outputs: each search's optimum is feasible
// and no feasible tuple undercuts it, and the 1-thread curve agrees with
// the Pollaczek-Khinchine mean wait at moderate load.
func checkStudy(su *studySetup, st *studyResult) error {
	var errs []error
	for i, p := range st.plans {
		best := p.Best
		switch {
		case best == nil:
			errs = append(errs, fmt.Errorf("search %d: planner found no feasible configuration", i))
		case best.PeakWindowP99 > planSLO:
			errs = append(errs, fmt.Errorf("search %d: planner optimum peak p99 %v exceeds the SLO %v", i, best.PeakWindowP99, planSLO))
		default:
			for _, t := range p.Tuples {
				if t.Status == plan.StatusFeasible && t.ReplicaSeconds < best.ReplicaSeconds {
					errs = append(errs, fmt.Errorf("search %d: tuple %d is feasible at %.4f replica-s, below the optimum's %.4f", i, t.Tuple, t.ReplicaSeconds, best.ReplicaSeconds))
				}
			}
		}
	}
	scv := su.model.ServiceDist.SCV()
	svc := time.Duration(float64(su.model.ServiceDist.Mean()) * su.model.PerfError)
	for _, p := range st.curve {
		if p.threads != 1 || p.load > 0.5 {
			continue
		}
		want := queueing.MG1MeanWait(p.load/svc.Seconds(), svc, scv)
		got := p.queue.Mean
		if rel := math.Abs(float64(got-want)) / float64(want); rel > 0.2 {
			errs = append(errs, fmt.Errorf("M/G/1 at load %.1f: mean wait %v, Pollaczek-Khinchine %v", p.load, got, want))
		}
	}
	return errors.Join(errs...)
}

func runSimSweep(b *bench) (*outcome, error) {
	oc := newOutcome()
	root := b.tr.begin("bench/"+b.opts.workload, -1, -1)
	defer b.tr.end(root)

	oc.check(checkCanary(b))

	spec := newStudySpec(b.opts.seed, b.opts.short)
	sample := mgkSample()
	var su *studySetup
	var setups []time.Duration
	for i := 0; i < simSetupReps; i++ {
		sp := b.tr.begin("sim/setup", root, int64(i))
		start := time.Now()
		s, err := setupStudy(spec, sample)
		setups = append(setups, time.Since(start))
		b.tr.end(sp)
		if err != nil {
			return nil, err
		}
		su = s
	}
	oc.endToEnd["setup_s"] = median(setups).Seconds()

	// Warm-up study: untimed, and the one whose outputs are checked.
	first, err := runStudy(&bench{opts: b.opts, out: b.out}, spec, su, -1)
	if err != nil {
		return nil, err
	}
	oc.attempted += first.cells()
	oc.check(checkStudy(su, first))
	digest := gridDigest(first.grid.Reports)
	one := spec.grid
	one.Workers = 1
	debug.FreeOSMemory()
	g1, err := sweep.RunGrid(one)
	if err != nil {
		return nil, fmt.Errorf("one-worker grid: %w", err)
	}
	oc.attempted += int64(g1.Cells)
	if d1 := gridDigest(g1.Reports); d1 != digest {
		oc.check(fmt.Errorf("grid digest %016x on 1 worker, %016x on 2", d1, digest))
	}

	// A traced run alternates traced and untraced studies; the untraced
	// ones are the reference for the tracing overhead.
	var times, plainTimes phaseTimes
	var last *studyResult
	deadline := time.Now().Add(b.opts.budget(0.8))
	for i := 0; i < studyMinReps || time.Now().Before(deadline); i++ {
		runner := b
		if b.opts.trace && i%2 == 1 {
			runner = &bench{opts: b.opts, out: b.out}
		}
		sp := b.tr.begin("bench/study", root, int64(i))
		st, err := runStudy(runner, spec, su, sp)
		b.tr.end(sp)
		if err != nil {
			return nil, err
		}
		oc.attempted += st.cells()
		if d := gridDigest(st.grid.Reports); d != digest {
			oc.check(fmt.Errorf("study %d: grid digest %016x, first study %016x", i, d, digest))
		}
		if runner.tr == nil && b.opts.trace {
			plainTimes.add(st)
		} else {
			times.add(st)
		}
		last = st
	}
	wall := times.wall()
	oc.endToEnd["study_wall_s"] = wall.Seconds()
	oc.endToEnd["sojourn_p50_us"] = us(last.fixed.sojourn.P50)
	oc.endToEnd["harness_p50_us"] = us(last.fixed.queue.P50)
	oc.perLayer["tail.sojourn_p95_us"] = us(last.fixed.sojourn.P95)
	oc.perLayer["tail.sojourn_p99_us"] = us(last.fixed.sojourn.P99)
	oc.perLayer["tail.harness_p99_us"] = us(last.fixed.queue.P99)
	oc.perLayer["tail.max_qps_at_slo"] = last.maxQPS
	b.logf("study: %d timed runs, fastest phases %.3f s (grid %.3f, plan %.3f mean of %d searches simulating %d events, M/G/k %.3f s for %d requests); grid digest %016x",
		len(times.grid), wall.Seconds(), times.gridWall().Seconds(), times.planWall().Seconds(), len(spec.planSeeds), last.planStats().EventsSimulated,
		times.mgkWall().Seconds(), last.mgkReqs, digest)
	if best := last.plans[0].Best; best != nil {
		b.logf("plan optimum (first search): tuple %d (%s %s %s k=%d) at %d replicas, %.4f replica-s",
			best.Tuple, best.Policy, best.Shape, best.Controller, best.FanOut, best.Replicas, best.ReplicaSeconds)
	}
	b.logf("M/G/1 at load %.1f (virtual time, n=%d): sojourn p50 %.2f p95 %.2f p99 %.2f us; ceiling %.0f req/s",
		mgkFixedLoad, last.fixed.sojourn.Count, us(last.fixed.sojourn.P50), us(last.fixed.sojourn.P95), us(last.fixed.sojourn.P99), last.maxQPS)

	if b.opts.trace {
		plain := plainTimes.wall()
		oc.perLayer["trace.overhead_frac"] = float64(wall-plain) / float64(plain)
		lag := replayPacer(b, simPacerQPS(spec), 1, root)
		oc.perLayer["core.pacer_late_p50_us"] = us(lag.p50)
		oc.perLayer["core.pacer_late_p99_us"] = us(lag.p99)
		oc.perLayer["core.pacer_cpu_frac"] = lag.cpuFrac
		oc.perLayer["runtime.alloc_bytes_per_req"] = float64(last.gridAlloc) / float64(sumRequests(last.grid))
		oc.perLayer["runtime.gc_cycles"] = float64(last.gridGC)
		if err := sharedProbes(b, oc, root, nil); err != nil {
			return nil, err
		}
		if err := layerProbesSim(b, oc, root, spec, su, last, &times); err != nil {
			return nil, err
		}
	}
	oc.endToEnd["peak_rss_mb"] = peakRSSMB()
	return oc, nil
}

// simPacerQPS is the rate of the grid's constant-shape fan-out-1 cells
// (70% of nominal capacity), the schedule a live replay of the study
// would pace.
func simPacerQPS(spec studySpec) float64 {
	g := spec.grid.Normalized()
	return 0.7 * float64(g.Replicas*g.Threads) / g.ServiceMean.Seconds()
}

func sumRequests(g *sweep.GridResult) uint64 {
	var n uint64
	for _, r := range g.Reports {
		n += r.Requests
	}
	return n
}
