package core

import (
	"errors"
	"fmt"
	"time"

	"tailbench/internal/app"
	"tailbench/internal/stats"
	"tailbench/internal/workload"
)

// RepeatOptions controls the repeated-run methodology of Sec. IV-C: runs are
// repeated with re-randomized requests and inter-arrival times until the
// 95% confidence interval of the reported tail-latency metrics is tight
// enough, countering run-to-run performance hysteresis.
type RepeatOptions struct {
	// MinRuns is the minimum number of runs to perform (default 3).
	MinRuns int
	// MaxRuns caps the number of runs (default 10).
	MaxRuns int
	// TargetRelativeCI is the target half-width of the 95% confidence
	// interval, relative to the mean, for the 95th-percentile sojourn
	// latency (default 0.01, i.e. 1%).
	TargetRelativeCI float64
}

// withDefaults normalizes RepeatOptions.
func (o RepeatOptions) withDefaults() RepeatOptions {
	if o.MinRuns <= 0 {
		o.MinRuns = 3
	}
	if o.MaxRuns < o.MinRuns {
		o.MaxRuns = o.MinRuns
		if o.MaxRuns < 10 {
			o.MaxRuns = 10
		}
	}
	if o.TargetRelativeCI <= 0 {
		o.TargetRelativeCI = 0.01
	}
	return o
}

// SingleRun executes one measurement run of the given configuration kind.
// It wires the pieces together for the common case where the server runs in
// this process: Integrated and Simulated call the in-process path directly,
// while Loopback and Networked start a NetServer on the loopback interface
// and drive it over TCP.
func SingleRun(kind ConfigKind, server app.Server, newClient ClientFactory, cfg RunConfig) (*Result, error) {
	switch kind {
	case Integrated, Simulated:
		res, err := RunIntegrated(server, newClient, cfg)
		if err != nil {
			return nil, err
		}
		res.Config = kind
		return res, nil
	case Loopback, Networked:
		ns := NewNetServer(server, cfg.withDefaults().Threads)
		ns.SetMetrics(cfg.Metrics, "server")
		addr, err := ns.Start("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ns.Close()
		return RunNetworked(addr, server.Name(), newClient, cfg, kind)
	default:
		return nil, fmt.Errorf("core: unknown configuration %v", kind)
	}
}

// ErrNoSuccessfulRuns is returned when every repeated run failed.
var ErrNoSuccessfulRuns = errors.New("core: no successful runs")

// RunRepeated performs repeated measurement runs with fresh seeds and
// aggregates them. The returned Result reports, for each latency metric, the
// mean across runs, and carries the confidence interval of the p95 sojourn
// latency. CDFs and raw samples come from the merge of all runs.
func RunRepeated(kind ConfigKind, server app.Server, newClient ClientFactory, cfg RunConfig, opts RepeatOptions) (*Result, error) {
	opts = opts.withDefaults()
	baseSeed := cfg.Seed
	if baseSeed == 0 {
		baseSeed = 1
	}

	var (
		results []*Result
		p95s    []float64
	)
	for run := 0; run < opts.MaxRuns; run++ {
		runCfg := cfg
		runCfg.Seed = workload.SplitSeed(baseSeed, int64(run+1))
		res, err := SingleRun(kind, server, newClient, runCfg)
		if err != nil {
			return nil, fmt.Errorf("core: repeated run %d: %w", run, err)
		}
		results = append(results, res)
		p95s = append(p95s, float64(res.Sojourn.P95))
		if run+1 < opts.MinRuns {
			continue
		}
		ci := stats.ConfidenceInterval95(p95s)
		if ci.Relative() <= opts.TargetRelativeCI {
			break
		}
	}
	if len(results) == 0 {
		return nil, ErrNoSuccessfulRuns
	}
	agg := aggregateResults(results)
	agg.P95CI = stats.ConfidenceInterval95(p95s)
	return agg, nil
}

// aggregateResults merges repeated-run results: latency metrics are averaged
// across runs, counts are summed, and distributions/raw samples are pooled.
func aggregateResults(results []*Result) *Result {
	if len(results) == 1 {
		return results[0]
	}
	out := *results[0]
	out.Runs = len(results)
	var (
		requests, warmups, errorsN uint64
		achieved                   float64
		elapsed                    time.Duration
	)
	sums := struct {
		queue, service, sojourn, issueLag struct{ mean, p50, p95, p99, max, min float64 }
	}{}
	add := func(dst *struct{ mean, p50, p95, p99, max, min float64 }, s stats.LatencySummary) {
		dst.mean += float64(s.Mean)
		dst.p50 += float64(s.P50)
		dst.p95 += float64(s.P95)
		dst.p99 += float64(s.P99)
		dst.max += float64(s.Max)
		dst.min += float64(s.Min)
	}
	var pooledService, pooledSojourn, pooledQueue []time.Duration
	for _, r := range results {
		requests += r.Requests
		warmups += r.Warmups
		errorsN += r.Errors
		achieved += r.AchievedQPS
		elapsed += r.Elapsed
		add(&sums.queue, r.Queue)
		add(&sums.service, r.Service)
		add(&sums.sojourn, r.Sojourn)
		add(&sums.issueLag, r.IssueLag)
		pooledService = append(pooledService, r.ServiceSamples...)
		pooledSojourn = append(pooledSojourn, r.SojournSamples...)
		pooledQueue = append(pooledQueue, r.QueueSamples...)
	}
	n := float64(len(results))
	mk := func(src struct{ mean, p50, p95, p99, max, min float64 }, count uint64) stats.LatencySummary {
		return stats.LatencySummary{
			Count: count,
			Mean:  time.Duration(src.mean / n),
			P50:   time.Duration(src.p50 / n),
			P95:   time.Duration(src.p95 / n),
			P99:   time.Duration(src.p99 / n),
			Max:   time.Duration(src.max / n),
			Min:   time.Duration(src.min / n),
		}
	}
	out.Requests = requests
	out.Warmups = warmups
	out.Errors = errorsN
	out.AchievedQPS = achieved / n
	out.Elapsed = elapsed
	out.Queue = mk(sums.queue, requests)
	out.Service = mk(sums.service, requests)
	out.Sojourn = mk(sums.sojourn, requests)
	out.IssueLag = mk(sums.issueLag, requests)
	if len(pooledSojourn) > 0 {
		out.ServiceSamples = pooledService
		out.SojournSamples = pooledSojourn
		out.QueueSamples = pooledQueue
		out.ServiceCDF = stats.SampleCDF(pooledService)
		out.SojournCDF = stats.SampleCDF(pooledSojourn)
	}
	out.Windows = mergeWindows(results)
	return &out
}

// mergeWindows averages per-window latency series across repeated runs.
// Runs share a window grid when an explicit width was configured (windows
// then sit at fixed multiples of it); with the automatic width each run
// derives its own from its randomized span, so the grids differ. Windows
// are averaged position-wise only when every run's window boundaries match
// exactly; otherwise the first run's series is reported as-is.
func mergeWindows(results []*Result) []stats.WindowStat {
	base := results[0].Windows
	if len(base) == 0 {
		return base
	}
	for _, r := range results[1:] {
		if len(r.Windows) != len(base) {
			return base
		}
		for i := range base {
			if r.Windows[i].Start != base[i].Start || r.Windows[i].End != base[i].End {
				return base
			}
		}
	}
	n := float64(len(results))
	out := make([]stats.WindowStat, len(base))
	copy(out, base)
	for i := range out {
		var mean, p50, p95, p99 float64
		out[i].Requests, out[i].Errors, out[i].AchievedQPS, out[i].Max = 0, 0, 0, 0
		for _, r := range results {
			w := r.Windows[i]
			mean += float64(w.Mean)
			p50 += float64(w.P50)
			p95 += float64(w.P95)
			p99 += float64(w.P99)
			out[i].Requests += w.Requests
			out[i].Errors += w.Errors
			out[i].AchievedQPS += w.AchievedQPS / n
			if w.Max > out[i].Max {
				out[i].Max = w.Max
			}
		}
		out[i].Mean = time.Duration(mean / n)
		out[i].P50 = time.Duration(p50 / n)
		out[i].P95 = time.Duration(p95 / n)
		out[i].P99 = time.Duration(p99 / n)
	}
	return out
}

// MeasureServiceTimes runs the application at negligible load with a single
// worker thread and returns the raw service-time samples. Sweeps use this to
// build the service-time CDF (Fig. 2), to estimate the saturation throughput
// (threads / mean service time), and to calibrate the simulated system.
func MeasureServiceTimes(server app.Server, newClient ClientFactory, requests int, seed int64) ([]time.Duration, error) {
	if requests <= 0 {
		requests = 200
	}
	cfg := RunConfig{
		QPS:            0, // saturation mode issues requests back to back...
		Threads:        1,
		Requests:       requests,
		WarmupRequests: requests / 10,
		Seed:           seed,
		KeepRaw:        true,
	}
	// ...but with a single closed-loop client there is no queuing, so the
	// measured service times are uncontended.
	cfg.Clients = 1
	res, err := RunClosedLoop(server, newClient, cfg)
	if err != nil {
		return nil, err
	}
	return res.ServiceSamples, nil
}
