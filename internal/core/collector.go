package core

import (
	"sync"
	"time"

	"tailbench/internal/metrics"
	"tailbench/internal/stats"
	"tailbench/internal/trace"
)

// Sample is the timing record for one completed request, as collected by the
// statistics collector (Fig. 1). All durations are measured by the harness;
// in the networked configurations the queue and service components are
// measured server-side and shipped back in the response header.
type Sample struct {
	// Queue is the time the request spent waiting in the request queue
	// before a worker thread picked it up.
	Queue time.Duration
	// Service is the time a worker thread spent processing the request.
	Service time.Duration
	// Sojourn is the end-to-end latency: from the request's scheduled
	// generation time until the client observed the response. It includes
	// queuing, service, and (in the networked configurations) network and
	// protocol-stack time.
	Sojourn time.Duration
	// Warmup marks samples taken during the warmup period; the collector
	// drops them from statistics.
	Warmup bool
	// Err records whether the request failed (transport error or failed
	// validation).
	Err bool
	// IssueLag is how late the request was issued: the instant it actually
	// entered the request queue (integrated) or was handed to the connection
	// (loopback, networked) minus its scheduled instant. It is part of Sojourn and
	// measures the pacer, not the application. Harnesses without scheduled
	// instants (the closed-loop tester) leave it zero.
	IssueLag time.Duration
	// Offset places the sample on the run's time axis (the scheduled
	// arrival offset from the start of the run). Windowed latency
	// accounting bins samples by it; harnesses without scheduled instants
	// (the closed-loop tester) use the completion offset instead.
	Offset time.Duration
}

// Collector aggregates request samples into latency statistics. It is safe
// for concurrent use by any number of recording goroutines.
type Collector struct {
	mu sync.Mutex

	keepRaw    bool
	trackTimed bool

	queue   *stats.Histogram
	service *stats.Histogram
	sojourn *stats.Histogram
	// issueLag is summarized from its histogram alone, never from raw
	// samples, so tracking it adds no per-request memory.
	issueLag *stats.Histogram

	rawQueue   []time.Duration
	rawService []time.Duration
	rawSojourn []time.Duration

	// timed retains every measured sample's (offset, sojourn) pair for
	// windowed accounting; maintained only when trackTimed is set, so
	// runs without windowing keep the collector's old memory footprint.
	timed []stats.TimedSample

	count   uint64
	warmups uint64
	errors  uint64

	first time.Time
	last  time.Time

	// tracer and traceNet mirror measured samples into a span-tree recorder
	// (flat trees: the harnesses feeding a Collector directly have no
	// fan-out); traceNet is the synthetic RTT charged inside each sojourn.
	tracer   *trace.Recorder
	traceNet time.Duration

	// met holds live-metrics handles when SetMetrics installed a registry.
	met *collectorMetrics
}

// collectorMetrics is the collector's live instrument set.
type collectorMetrics struct {
	completed *metrics.Counter
	errors    *metrics.Counter
	sojourn   *metrics.Histogram
}

// Issue-lag histogram range. A precise pacer issues most requests well under
// a microsecond late, below the 1µs floor of the latency histograms, so the
// issue-lag histogram starts at 10ns.
const (
	issueLagMin = int64(10 * time.Nanosecond)
	issueLagMax = int64(1000 * time.Second)
)

// NewCollector returns an empty collector. If keepRaw is true every
// individual sample is retained (short-run mode); histograms are always
// maintained.
func NewCollector(keepRaw bool) *Collector {
	return &Collector{
		keepRaw:  keepRaw,
		queue:    stats.NewHistogram(),
		service:  stats.NewHistogram(),
		sojourn:  stats.NewHistogram(),
		issueLag: stats.NewHistogramRange(issueLagMin, issueLagMax),
	}
}

// NewWindowedCollector returns a collector that additionally retains each
// measured sample's time-axis offset and sojourn, the input of windowed
// latency accounting (see stats.WindowSeries).
func NewWindowedCollector(keepRaw bool) *Collector {
	c := NewCollector(keepRaw)
	c.trackTimed = true
	return c
}

// newRunCollector builds the collector for one run, tracking timed samples
// exactly when the config's windowing policy will consume them, and wiring
// the run's trace recorder and metrics registry when configured.
func newRunCollector(cfg RunConfig) *Collector {
	var c *Collector
	if _, on := cfg.windowing(); on {
		c = NewWindowedCollector(cfg.KeepRaw)
	} else {
		c = NewCollector(cfg.KeepRaw)
	}
	c.SetTrace(cfg.Trace, 0)
	c.SetMetrics(cfg.Metrics, "run")
	return c
}

// SetTrace mirrors measured samples into a span-tree recorder; netRTT is the
// synthetic round-trip charged inside each sojourn (networked runs), so the
// trace separates it from queueing. A nil recorder disables mirroring.
func (c *Collector) SetTrace(rec *trace.Recorder, netRTT time.Duration) {
	c.mu.Lock()
	c.tracer = rec
	c.traceNet = netRTT
	c.mu.Unlock()
}

// SetMetrics instruments the collector against a shared registry under the
// given name prefix; a nil registry disables it.
func (c *Collector) SetMetrics(reg *metrics.Registry, prefix string) {
	if reg == nil {
		return
	}
	if prefix == "" {
		prefix = "run"
	}
	c.mu.Lock()
	c.met = &collectorMetrics{
		completed: reg.Counter(prefix + "_completed"),
		errors:    reg.Counter(prefix + "_errors"),
		sojourn:   reg.Histogram(prefix + "_sojourn"),
	}
	c.mu.Unlock()
}

// Record adds one sample.
func (c *Collector) Record(s Sample) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.Warmup {
		// Warmup samples do not open the measurement interval: throughput is
		// counted over measured samples only, so including warmup time would
		// deflate AchievedQPS by the warmup fraction.
		c.warmups++
		return
	}
	if c.first.IsZero() {
		c.first = now
	}
	c.last = now
	c.tracer.ObserveRequest(s.Offset, s.Queue, s.Service, s.Sojourn, c.traceNet, 0, 0, s.Err)
	if s.Err {
		c.errors++
		if c.met != nil {
			c.met.errors.Inc()
		}
		if c.trackTimed {
			c.timed = append(c.timed, stats.TimedSample{At: s.Offset, Err: true})
		}
		return
	}
	c.count++
	if c.met != nil {
		c.met.completed.Inc()
		c.met.sojourn.Observe(s.Sojourn)
	}
	if c.trackTimed {
		c.timed = append(c.timed, stats.TimedSample{At: s.Offset, Sojourn: s.Sojourn})
	}
	c.queue.RecordDuration(s.Queue)
	c.service.RecordDuration(s.Service)
	c.sojourn.RecordDuration(s.Sojourn)
	c.issueLag.RecordDuration(s.IssueLag)
	if c.keepRaw {
		c.rawQueue = append(c.rawQueue, s.Queue)
		c.rawService = append(c.rawService, s.Service)
		c.rawSojourn = append(c.rawSojourn, s.Sojourn)
	}
}

// Count returns the number of measured (non-warmup, non-error) samples.
func (c *Collector) Count() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

// Errors returns the number of failed requests.
func (c *Collector) Errors() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.errors
}

// snapshot builds the per-run result payload. measureStart/measureEnd bound
// the measurement interval for throughput accounting.
func (c *Collector) snapshot() collectorSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := collectorSnapshot{
		count:    c.count,
		warmups:  c.warmups,
		errors:   c.errors,
		first:    c.first,
		last:     c.last,
		timed:    append([]stats.TimedSample(nil), c.timed...),
		issueLag: stats.SummaryFromHistogram(c.issueLag),
	}
	if c.keepRaw && len(c.rawSojourn) > 0 {
		snap.queue = stats.SummaryFromSamples(c.rawQueue)
		snap.service = stats.SummaryFromSamples(c.rawService)
		snap.sojourn = stats.SummaryFromSamples(c.rawSojourn)
		snap.serviceCDF = stats.SampleCDF(c.rawService)
		snap.sojournCDF = stats.SampleCDF(c.rawSojourn)
		snap.rawService = append([]time.Duration(nil), c.rawService...)
		snap.rawSojourn = append([]time.Duration(nil), c.rawSojourn...)
		snap.rawQueue = append([]time.Duration(nil), c.rawQueue...)
	} else {
		snap.queue = stats.SummaryFromHistogram(c.queue)
		snap.service = stats.SummaryFromHistogram(c.service)
		snap.sojourn = stats.SummaryFromHistogram(c.sojourn)
		snap.serviceCDF = c.service.CDF()
		snap.sojournCDF = c.sojourn.CDF()
	}
	return snap
}

// CollectorSummary is the exported aggregate view of a collector, for
// harnesses built outside package core (e.g. internal/cluster) that reuse
// the collector but assemble their own result types.
type CollectorSummary struct {
	Count      uint64
	Warmups    uint64
	Errors     uint64
	First      time.Time
	Last       time.Time
	Queue      stats.LatencySummary
	Service    stats.LatencySummary
	Sojourn    stats.LatencySummary
	ServiceCDF []stats.CDFPoint
	SojournCDF []stats.CDFPoint
	// RawQueue, RawService, and RawSojourn are present when the collector
	// was created with keepRaw.
	RawQueue   []time.Duration
	RawService []time.Duration
	RawSojourn []time.Duration
	// Timed carries every measured sample's time-axis offset and sojourn,
	// for windowed accounting (see stats.WindowSeries).
	Timed []stats.TimedSample
}

// Summary extracts the collector's aggregate state.
func (c *Collector) Summary() CollectorSummary {
	snap := c.snapshot()
	return CollectorSummary{
		Count:      snap.count,
		Warmups:    snap.warmups,
		Errors:     snap.errors,
		First:      snap.first,
		Last:       snap.last,
		Queue:      snap.queue,
		Service:    snap.service,
		Sojourn:    snap.sojourn,
		ServiceCDF: snap.serviceCDF,
		SojournCDF: snap.sojournCDF,
		RawQueue:   snap.rawQueue,
		RawService: snap.rawService,
		RawSojourn: snap.rawSojourn,
		Timed:      snap.timed,
	}
}

// collectorSnapshot is the immutable view extracted at the end of a run.
type collectorSnapshot struct {
	count      uint64
	warmups    uint64
	errors     uint64
	first      time.Time
	last       time.Time
	queue      stats.LatencySummary
	service    stats.LatencySummary
	sojourn    stats.LatencySummary
	issueLag   stats.LatencySummary
	serviceCDF []stats.CDFPoint
	sojournCDF []stats.CDFPoint
	rawQueue   []time.Duration
	rawService []time.Duration
	rawSojourn []time.Duration
	timed      []stats.TimedSample
}
