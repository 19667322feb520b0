package core

import (
	"fmt"
	"time"

	"tailbench/internal/load"
	"tailbench/internal/stats"
)

// Result holds the latency statistics of one measurement run (or of several
// aggregated repeated runs, see runner.go).
type Result struct {
	// App is the application name.
	App string
	// Config is the harness configuration the run used.
	Config ConfigKind
	// OfferedQPS is the configured arrival rate — for time-varying load
	// shapes, the mean rate over the run's horizon. Zero means saturation
	// mode.
	OfferedQPS float64
	// Shape names the arrival process family ("constant", "diurnal", ...)
	// and ShapeSpec carries its canonical parameter encoding (see
	// load.Parse), so saved results are self-describing.
	Shape     string
	ShapeSpec string
	// AchievedQPS is the measured completion rate over the measurement
	// interval.
	AchievedQPS float64
	// Threads is the number of application worker threads.
	Threads int
	// Requests is the number of measured requests.
	Requests uint64
	// Warmups is the number of discarded warmup requests.
	Warmups uint64
	// Errors is the number of failed requests.
	Errors uint64
	// Queue, Service, and Sojourn summarize the three latency components.
	Queue   stats.LatencySummary
	Service stats.LatencySummary
	Sojourn stats.LatencySummary
	// IssueLag summarizes how late the harness issued each measured request
	// relative to its scheduled instant (see Sample.IssueLag): the pacer's
	// share of Sojourn. Zero for the closed-loop tester.
	IssueLag stats.LatencySummary
	// ServiceCDF and SojournCDF are full distributions (used for Fig. 2).
	ServiceCDF []stats.CDFPoint
	SojournCDF []stats.CDFPoint
	// ServiceSamples and SojournSamples carry raw samples when the run was
	// configured with KeepRaw.
	ServiceSamples []time.Duration
	SojournSamples []time.Duration
	QueueSamples   []time.Duration
	// Windows is the time-windowed latency series (offered/achieved QPS and
	// sojourn percentiles per window). Present when windowed accounting is
	// enabled — always for time-varying load shapes, opt-in via
	// RunConfig.Window otherwise.
	Windows []stats.WindowStat
	// Elapsed is the wall-clock duration of the measurement interval.
	Elapsed time.Duration
	// Runs is the number of repeated runs aggregated into this result (1 for
	// a single run).
	Runs int
	// P95CI is the 95% confidence interval of the 95th-percentile sojourn
	// latency across repeated runs (meaningful when Runs > 1).
	P95CI stats.ConfidenceInterval
}

// String renders a one-line summary suitable for logs and CLI output.
func (r *Result) String() string {
	return fmt.Sprintf("%s [%s] threads=%d qps=%.1f achieved=%.1f n=%d err=%d sojourn{%s} service{%s}",
		r.App, r.Config, r.Threads, r.OfferedQPS, r.AchievedQPS, r.Requests, r.Errors,
		r.Sojourn.String(), r.Service.String())
}

// resultFromSnapshot assembles a Result from a collector snapshot.
func resultFromSnapshot(appName string, kind ConfigKind, cfg RunConfig, snap collectorSnapshot) *Result {
	elapsed := snap.last.Sub(snap.first)
	achieved := 0.0
	if elapsed > 0 {
		achieved = float64(snap.count) / elapsed.Seconds()
	}
	shape := cfg.shape()
	res := &Result{
		App:            appName,
		Config:         kind,
		OfferedQPS:     load.OfferedRate(shape, cfg.Requests+cfg.WarmupRequests),
		Shape:          shape.Name(),
		ShapeSpec:      shape.Spec(),
		AchievedQPS:    achieved,
		Threads:        cfg.Threads,
		Requests:       snap.count,
		Warmups:        snap.warmups,
		Errors:         snap.errors,
		Queue:          snap.queue,
		Service:        snap.service,
		Sojourn:        snap.sojourn,
		IssueLag:       snap.issueLag,
		ServiceCDF:     snap.serviceCDF,
		SojournCDF:     snap.sojournCDF,
		ServiceSamples: snap.rawService,
		SojournSamples: snap.rawSojourn,
		QueueSamples:   snap.rawQueue,
		Elapsed:        elapsed,
		Runs:           1,
	}
	if width, on := cfg.windowing(); on {
		res.Windows = WindowsFromTimed(snap.timed, width, shape)
	}
	return res
}

// WindowsFromTimed builds the windowed latency series from timed samples and
// annotates each window with the offered load the shape prescribed for it.
// Exported for harnesses outside package core (internal/cluster) that reuse
// the collector and shaper but assemble their own result types.
func WindowsFromTimed(timed []stats.TimedSample, width time.Duration, shape load.Shape) []stats.WindowStat {
	ws := stats.WindowSeries(timed, width)
	for i := range ws {
		ws[i].OfferedQPS = load.MeanRate(shape, ws[i].Start, ws[i].End)
	}
	return ws
}
