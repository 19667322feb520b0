// Command tailbench runs a single latency measurement of one TailBench
// application under one harness configuration and prints the latency
// statistics.
//
// Example:
//
//	tailbench -app masstree -mode integrated -qps 2000 -threads 2 -requests 5000
//
// The cluster subcommand measures a multi-replica deployment behind a
// pluggable load balancer instead:
//
//	tailbench cluster -app masstree -policy jsq2 -replicas 4 -qps 8000 -slow 0:3
//
// With -autoscale, a controller grows and drains the replica set mid-run as
// the load shape plays out:
//
//	tailbench cluster -app xapian -mode simulated -replicas 2 \
//	  -autoscale threshold -max-replicas 8 -shape spike:1000,6000,2s,2s
//
// The pipeline subcommand chains clusters into a multi-tier topology with
// fan-out/fan-in edges and optional hedging, so a request's sojourn spans
// tiers (the "tail at scale" scenario):
//
//	tailbench pipeline -mode simulated -tiers xapian:2,xapian:16 \
//	  -fanout 16 -hedge 500us -qps 2000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"tailbench"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "cluster" {
		runCluster(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "pipeline" {
		runPipeline(os.Args[2:])
		return
	}
	var (
		appName  = flag.String("app", "masstree", "application to run ("+strings.Join(tailbench.Apps(), ", ")+")")
		mode     = flag.String("mode", "integrated", "harness configuration: integrated, loopback, networked, simulated")
		qps      = flag.Float64("qps", 1000, "offered load in queries per second (0 = saturation)")
		shapeArg = flag.String("shape", "", "time-varying load shape, e.g. diurnal:500,300,10s or spike:500,1500,5s,2s (overrides -qps; see tailbench.ParseLoadShape)")
		window   = flag.Duration("window", 0, "windowed latency accounting width (0 = automatic for time-varying shapes)")
		threads  = flag.Int("threads", 1, "application worker threads")
		clients  = flag.Int("clients", 0, "client connections for loopback/networked modes (0 = auto)")
		requests = flag.Int("requests", 2000, "measured requests")
		warmup   = flag.Int("warmup", 0, "warmup requests (0 = 10% of requests, negative = none)")
		scale    = flag.Float64("scale", 1.0, "application dataset scale")
		seed     = flag.Int64("seed", 1, "random seed")
		repeats  = flag.Int("repeats", 1, "repeated runs with fresh seeds")
		validate = flag.Bool("validate", false, "validate every response")
		netDelay = flag.Duration("netdelay", 25*time.Microsecond, "one-way synthetic network delay (networked mode)")
		ideal    = flag.Bool("idealmem", false, "idealized memory system (simulated mode)")
		jsonOut  = flag.String("json", "", "write the full result as JSON to this file (\"-\" for stdout)")
		obs      = addObsFlags(flag.CommandLine)
		prof     = addProfFlags(flag.CommandLine)
	)
	flag.Parse()

	m, err := parseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	shape, err := parseShape(*shapeArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tailbench:", err)
		os.Exit(2)
	}
	reg, stopObs := obs.start()
	stopProf := prof.start()
	res, err := tailbench.Run(tailbench.RunSpec{
		App:          *appName,
		Mode:         m,
		QPS:          *qps,
		Load:         shape,
		Window:       *window,
		Threads:      *threads,
		Clients:      *clients,
		Requests:     *requests,
		Warmup:       *warmup,
		Scale:        *scale,
		Seed:         *seed,
		Repeats:      *repeats,
		Validate:     *validate,
		NetworkDelay: *netDelay,
		IdealMemory:  *ideal,
		Trace:        obs.spec(),
		Metrics:      reg,
	})
	stopProf()
	stopObs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tailbench:", err)
		os.Exit(1)
	}
	obs.finish(res.Trace)
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, res); err != nil {
			fmt.Fprintln(os.Stderr, "tailbench:", err)
			os.Exit(1)
		}
		if *jsonOut == "-" {
			return
		}
	}
	printResult(res)
	printTraceReport(res.Trace)
}

// profOpts groups the profiling flags shared by every subcommand, so a hot
// path found in a sweep can be pinned down without writing a benchmark.
type profOpts struct {
	cpuPath string
	memPath string
}

// addProfFlags registers the profiling flags on a flag set.
func addProfFlags(fs *flag.FlagSet) *profOpts {
	o := &profOpts{}
	fs.StringVar(&o.cpuPath, "cpuprofile", "", "write a CPU profile of the run to this file (inspect with `go tool pprof`)")
	fs.StringVar(&o.memPath, "memprofile", "", "write a heap profile (taken after the run) to this file")
	return o
}

// start begins CPU profiling if requested; the returned stop function
// flushes the CPU profile and takes the post-run heap profile.
func (o *profOpts) start() func() {
	var cpuFile *os.File
	if o.cpuPath != "" {
		f, err := os.Create(o.cpuPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tailbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "tailbench:", err)
			os.Exit(1)
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if o.memPath != "" {
			runtime.GC()
			f, err := os.Create(o.memPath)
			if err == nil {
				err = pprof.WriteHeapProfile(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "tailbench: writing heap profile:", err)
				os.Exit(1)
			}
		}
	}
}

// obsOpts groups the observability flags shared by every subcommand: the
// Chrome trace export, the tail-attribution reservoir size, the live metrics
// endpoint, and the progress-line interval.
type obsOpts struct {
	tracePath   string
	topK        int
	traceWindow time.Duration
	metricsAddr string
	progress    time.Duration
}

// addObsFlags registers the observability flags on a flag set.
func addObsFlags(fs *flag.FlagSet) *obsOpts {
	o := &obsOpts{}
	fs.StringVar(&o.tracePath, "trace", "", "enable request tracing and write the retained span trees as Chrome trace-event JSON to this file (load in Perfetto)")
	fs.IntVar(&o.topK, "trace-topk", 0, "slowest span trees retained per window (implies tracing; 0 with -trace = 8)")
	fs.DurationVar(&o.traceWindow, "trace-window", 0, "tail-attribution window width (0 = whole run as one window)")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve live metrics over HTTP on this address (/metrics Prometheus text, /debug/vars expvar JSON)")
	fs.DurationVar(&o.progress, "progress", 0, "print a live metrics progress line to stderr at this interval (0 = off)")
	return o
}

// spec returns the TraceSpec implied by the flags; nil when tracing is off.
func (o *obsOpts) spec() *tailbench.TraceSpec {
	if o.tracePath == "" && o.topK <= 0 {
		return nil
	}
	return &tailbench.TraceSpec{TopK: o.topK, Window: o.traceWindow}
}

// start brings up the live metrics surface implied by the flags: the HTTP
// endpoint and/or the progress printer. It returns the registry to attach to
// the spec (nil when neither flag was set) and a stop function.
func (o *obsOpts) start() (*tailbench.MetricsRegistry, func()) {
	if o.metricsAddr == "" && o.progress <= 0 {
		return nil, func() {}
	}
	reg := tailbench.NewMetricsRegistry()
	var stops []func()
	if o.metricsAddr != "" {
		srv, err := tailbench.ServeMetrics(o.metricsAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tailbench: serving metrics:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "tailbench: serving live metrics on http://%s/metrics\n", srv.Addr())
		stops = append(stops, func() { srv.Close() })
	}
	if o.progress > 0 {
		stop := tailbench.StartMetricsProgress(reg, o.progress, func(line string) {
			fmt.Fprintln(os.Stderr, line)
		})
		stops = append(stops, stop)
	}
	return reg, func() {
		for _, s := range stops {
			s()
		}
	}
}

// finish writes the Chrome trace export if one was requested.
func (o *obsOpts) finish(rep *tailbench.TraceReport) {
	if rep == nil || o.tracePath == "" {
		return
	}
	f, err := os.Create(o.tracePath)
	if err == nil {
		err = tailbench.WriteChromeTrace(f, rep.Slowest)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tailbench: writing trace:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "tailbench: wrote %d span trees to %s (open in ui.perfetto.dev)\n", len(rep.Slowest), o.tracePath)
}

// printTraceReport renders the tail-attribution breakdown: what the run's
// slowest requests were made of.
func printTraceReport(rep *tailbench.TraceReport) {
	if rep == nil || len(rep.Slowest) == 0 {
		return
	}
	fmt.Println()
	tailbench.WriteTraceAttribution(os.Stdout, rep)
}

func parseMode(s string) (tailbench.Mode, error) {
	return tailbench.ParseMode(strings.ToLower(s))
}

// parseShape turns the -shape flag into a LoadShape; an empty flag keeps the
// scalar -qps shorthand (nil shape).
func parseShape(s string) (tailbench.LoadShape, error) {
	if s == "" {
		return nil, nil
	}
	return tailbench.ParseLoadShape(s)
}

// printWindows renders the windowed latency series, the view that makes a
// time-varying run legible: offered vs achieved rate and the tail, window by
// window.
func printWindows(windows []tailbench.WindowStats) {
	if len(windows) == 0 {
		return
	}
	fmt.Println()
	tailbench.WriteWindowTable(os.Stdout, windows)
}

func printResult(res *tailbench.Result) {
	fmt.Printf("app         : %s\n", res.App)
	fmt.Printf("mode        : %s\n", res.Mode)
	if res.Shape != "" && res.Shape != "constant" {
		fmt.Printf("load shape  : %s\n", res.ShapeSpec)
	}
	fmt.Printf("threads     : %d\n", res.Threads)
	fmt.Printf("offered QPS : %.1f\n", res.OfferedQPS)
	fmt.Printf("achieved QPS: %.1f\n", res.AchievedQPS)
	fmt.Printf("requests    : %d (errors %d, runs %d)\n", res.Requests, res.Errors, res.Runs)
	row := func(name string, s tailbench.LatencyStats) {
		fmt.Printf("%-8s mean=%-12v p50=%-12v p95=%-12v p99=%-12v max=%v\n",
			name, s.Mean.Round(time.Microsecond), s.P50.Round(time.Microsecond),
			s.P95.Round(time.Microsecond), s.P99.Round(time.Microsecond), s.Max.Round(time.Microsecond))
	}
	row("queue", res.Queue)
	row("service", res.Service)
	row("sojourn", res.Sojourn)
	if res.IssueLag.Count > 0 {
		row("issuelag", res.IssueLag)
	}
	if res.Runs > 1 {
		fmt.Printf("p95 95%% CI  : ±%.2f%%\n", res.P95CIRelative*100)
	}
	printWindows(res.Windows)
}

// runCluster implements the cluster subcommand.
func runCluster(args []string) {
	fs := flag.NewFlagSet("tailbench cluster", flag.ExitOnError)
	var (
		appName  = fs.String("app", "masstree", "application to run ("+strings.Join(tailbench.Apps(), ", ")+")")
		mode     = fs.String("mode", "integrated", "cluster execution path: integrated (in-process dispatch), loopback (each replica behind its own NetServer, client-side balancing), networked (loopback plus synthetic NIC/switch delay), or simulated (virtual time)")
		netDelay = fs.Duration("net-delay", 25*time.Microsecond, "one-way synthetic network delay per hop (networked mode)")
		policy   = fs.String("policy", "leastq", "balancer policy: "+strings.Join(tailbench.BalancerPolicies(), ", "))
		replicas = fs.Int("replicas", 2, "number of replica servers")
		threads  = fs.String("threads", "1", "worker threads per replica: a single count (\"2\") or a per-replica vector (\"4,4,1,1\") for heterogeneous clusters")
		qps      = fs.Float64("qps", 2000, "cluster-wide offered load in queries per second (0 = saturation)")
		shapeArg = fs.String("shape", "", "time-varying load shape, e.g. spike:500,1500,5s,2s (overrides -qps; see tailbench.ParseLoadShape)")
		window   = fs.Duration("window", 0, "windowed latency accounting width (0 = automatic for time-varying shapes)")
		requests = fs.Int("requests", 2000, "measured requests")
		warmup   = fs.Int("warmup", 0, "warmup requests (0 = 10% of requests, negative = none)")
		scale    = fs.Float64("scale", 1.0, "application dataset scale")
		seed     = fs.Int64("seed", 1, "random seed")
		validate = fs.Bool("validate", false, "validate every response (integrated mode)")
		slow     = fs.String("slow", "", "straggler injection as comma-separated index:factor pairs, e.g. 0:3,2:1.5")
		jsonOut  = fs.String("json", "", "write the full result as JSON to this file (\"-\" for stdout)")

		autoscale = fs.String("autoscale", "", "autoscaling controller policy: "+strings.Join(tailbench.ControllerPolicies(), ", ")+" (empty = fixed membership)")
		minRepl   = fs.Int("min-replicas", 0, "autoscaler lower bound on active replicas (0 = 1)")
		maxRepl   = fs.Int("max-replicas", 0, "autoscaler upper bound / warm pool size (0 = 2x -replicas)")
		interval  = fs.Duration("control-interval", 0, "autoscaler control-tick period (0 = 100ms)")
		scaleHigh = fs.Float64("scale-high", 0, "threshold policy: scale up above this mean queue depth per replica (0 = 3)")
		scaleLow  = fs.Float64("scale-low", 0, "threshold policy: drain below this mean queue depth per replica (0 = 0.5)")
		targetP95 = fs.Duration("target-p95", 0, "target-p95 policy: windowed p95 sojourn goal (0 = 10ms)")
		provDelay = fs.Duration("provision-delay", 0, "cold-start latency before a scaled-up replica turns active (0 = instant warm pool)")
		drainPol  = fs.String("drain-policy", "", "scale-down victim policy: "+strings.Join(tailbench.DrainPolicies(), ", ")+" (empty = youngest)")
		obs       = addObsFlags(fs)
		prof      = addProfFlags(fs)
	)
	fs.Parse(args)

	m, err := parseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	shape, err := parseShape(*shapeArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tailbench:", err)
		os.Exit(2)
	}
	baseThreads, threadsPer, err := parseThreadsSpec(*threads)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tailbench:", err)
		os.Exit(2)
	}
	var autoSpec *tailbench.AutoscaleSpec
	if *autoscale != "" {
		autoSpec = &tailbench.AutoscaleSpec{
			Policy:         *autoscale,
			MinReplicas:    *minRepl,
			MaxReplicas:    *maxRepl,
			Interval:       *interval,
			HighDepth:      *scaleHigh,
			LowDepth:       *scaleLow,
			TargetP95:      *targetP95,
			ProvisionDelay: *provDelay,
			DrainPolicy:    *drainPol,
		}
	} else if *minRepl != 0 || *maxRepl != 0 || *interval != 0 || *scaleHigh != 0 || *scaleLow != 0 || *targetP95 != 0 || *provDelay != 0 || *drainPol != "" {
		// Tuning flags without a controller would be silently ignored and
		// the run would stay a fixed cluster — almost certainly not what
		// the user meant.
		fmt.Fprintln(os.Stderr, "tailbench: autoscaler tuning flags require -autoscale <policy> ("+strings.Join(tailbench.ControllerPolicies(), ", ")+")")
		os.Exit(2)
	}
	reg, stopObs := obs.start()
	stopProf := prof.start()
	spec := tailbench.ClusterSpec{
		App:               *appName,
		Mode:              m,
		Policy:            *policy,
		Replicas:          *replicas,
		Threads:           baseThreads,
		ThreadsPerReplica: threadsPer,
		QPS:               *qps,
		Load:              shape,
		Window:            *window,
		Requests:          *requests,
		Warmup:            *warmup,
		Scale:             *scale,
		Seed:              *seed,
		Validate:          *validate,
		NetworkDelay:      *netDelay,
		Autoscale:         autoSpec,
		Trace:             obs.spec(),
		Metrics:           reg,
	}
	// Straggler factors are per pool slot: with autoscaling the pool is the
	// autoscaler's resolved upper bound, not just the initial replica
	// count. ReplicaPool applies the spec's own defaulting, so -slow is
	// validated against exactly the pool RunCluster will build.
	slowdowns, err := parseSlowdowns(*slow, spec.ReplicaPool())
	if err != nil {
		fmt.Fprintln(os.Stderr, "tailbench:", err)
		os.Exit(2)
	}
	spec.Slowdowns = slowdowns
	res, err := tailbench.RunCluster(spec)
	stopProf()
	stopObs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tailbench:", err)
		os.Exit(1)
	}
	obs.finish(res.Trace)
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, res); err != nil {
			fmt.Fprintln(os.Stderr, "tailbench:", err)
			os.Exit(1)
		}
		if *jsonOut == "-" {
			return
		}
	}
	printClusterResult(res)
	printTraceReport(res.Trace)
}

// parseThreadsSpec parses the cluster -threads flag: a single count applies
// to every replica; a comma-separated vector assigns per-replica counts (the
// vector length must equal the replica pool, which RunCluster validates).
// The homogeneous base count for a vector is its maximum, so shared
// resources sized off Threads fit the largest replica.
func parseThreadsSpec(s string) (int, []int, error) {
	parts := strings.Split(s, ",")
	if len(parts) == 1 {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return 0, nil, fmt.Errorf("bad -threads count %q", s)
		}
		return n, nil, nil
	}
	per := make([]int, len(parts))
	max := 1
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 1 {
			return 0, nil, fmt.Errorf("bad -threads entry %q", p)
		}
		per[i] = n
		if n > max {
			max = n
		}
	}
	return max, per, nil
}

// runPipeline implements the pipeline subcommand: a chain of clusters with
// fan-out/fan-in edges and optional per-edge hedging.
func runPipeline(args []string) {
	fs := flag.NewFlagSet("tailbench pipeline", flag.ExitOnError)
	var (
		tiersArg = fs.String("tiers", "masstree:2,masstree:4", "tier chain, front-end first, as comma-separated app:replicas[:threads] entries")
		fanout   = fs.String("fanout", "", "per-edge fan-out degrees for tiers 1..N-1, comma-separated (one value broadcasts to every edge; empty = 1)")
		hedgeArg = fs.String("hedge", "", "per-edge hedging budgets for tiers 1..N-1, comma-separated durations; prefix rtt-floor+ to anchor a budget on the edge's observed round-trip floor (one value broadcasts; 0 or empty = no hedging)")
		mode     = fs.String("mode", "simulated", "execution path: integrated (live replicas, in-process edges), loopback/networked (live, every edge crosses TCP with client-side balancing), or simulated (virtual time)")
		netDelay = fs.Duration("net-delay", 25*time.Microsecond, "one-way synthetic network delay per hop (networked mode)")
		policy   = fs.String("policy", "leastq", "balancer policy for every tier: "+strings.Join(tailbench.BalancerPolicies(), ", "))
		qps      = fs.Float64("qps", 1000, "root arrival rate in queries per second (0 = saturation)")
		shapeArg = fs.String("shape", "", "time-varying root load shape, e.g. spike:500,1500,5s,2s (overrides -qps)")
		window   = fs.Duration("window", 0, "windowed latency accounting width (0 = automatic for time-varying shapes)")
		requests = fs.Int("requests", 2000, "measured root requests")
		warmup   = fs.Int("warmup", 0, "warmup root requests (0 = 10% of requests, negative = none)")
		scale    = fs.Float64("scale", 1.0, "application dataset scale (every tier)")
		seed     = fs.Int64("seed", 1, "random seed")
		jsonOut  = fs.String("json", "", "write the full result as JSON to this file (\"-\" for stdout)")
		obs      = addObsFlags(fs)
		prof     = addProfFlags(fs)
	)
	fs.Parse(args)

	m, err := parseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	shape, err := parseShape(*shapeArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tailbench:", err)
		os.Exit(2)
	}
	tiers, err := parseTiers(*tiersArg, *fanout, *hedgeArg, *policy, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tailbench:", err)
		os.Exit(2)
	}
	reg, stopObs := obs.start()
	stopProf := prof.start()
	res, err := tailbench.RunPipeline(tailbench.PipelineSpec{
		Mode:         m,
		Tiers:        tiers,
		QPS:          *qps,
		Load:         shape,
		Window:       *window,
		Requests:     *requests,
		Warmup:       *warmup,
		Seed:         *seed,
		NetworkDelay: *netDelay,
		Trace:        obs.spec(),
		Metrics:      reg,
	})
	stopProf()
	stopObs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tailbench:", err)
		os.Exit(1)
	}
	obs.finish(res.Trace)
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, res); err != nil {
			fmt.Fprintln(os.Stderr, "tailbench:", err)
			os.Exit(1)
		}
		if *jsonOut == "-" {
			return
		}
	}
	printPipelineResult(res)
	printTraceReport(res.Trace)
}

// parseTiers turns "-tiers xapian:2,masstree:16 -fanout 16 -hedge 500us"
// into the tier chain. Edge vectors (-fanout, -hedge) cover tiers 1..N-1; a
// single value broadcasts to every edge.
func parseTiers(tiersArg, fanoutArg, hedgeArg, policy string, scale float64) ([]tailbench.TierSpec, error) {
	entries := strings.Split(tiersArg, ",")
	if len(entries) == 0 || tiersArg == "" {
		return nil, fmt.Errorf("-tiers must name at least one tier")
	}
	fanouts, err := parseEdgeInts(fanoutArg, len(entries)-1)
	if err != nil {
		return nil, fmt.Errorf("bad -fanout: %w", err)
	}
	hedges, err := parseEdgeHedges(hedgeArg, len(entries)-1)
	if err != nil {
		return nil, fmt.Errorf("bad -hedge: %w", err)
	}
	tiers := make([]tailbench.TierSpec, 0, len(entries))
	for i, entry := range entries {
		parts := strings.Split(strings.TrimSpace(entry), ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("bad -tiers entry %q (want app:replicas[:threads])", entry)
		}
		replicas, err := strconv.Atoi(parts[1])
		if err != nil || replicas < 1 {
			return nil, fmt.Errorf("bad -tiers replica count %q", parts[1])
		}
		threads := 1
		if len(parts) == 3 {
			threads, err = strconv.Atoi(parts[2])
			if err != nil || threads < 1 {
				return nil, fmt.Errorf("bad -tiers thread count %q", parts[2])
			}
		}
		t := tailbench.TierSpec{Cluster: tailbench.ClusterSpec{
			App: parts[0], Policy: policy, Replicas: replicas, Threads: threads, Scale: scale,
		}}
		if i > 0 {
			t.FanOut = fanouts[i-1]
			t.Hedge = hedges[i-1]
		}
		tiers = append(tiers, t)
	}
	return tiers, nil
}

// parseEdgeInts parses a comma-separated int vector of length edges; empty
// means all-1 and a single value broadcasts.
func parseEdgeInts(s string, edges int) ([]int, error) {
	out := make([]int, edges)
	for i := range out {
		out[i] = 1
	}
	if s == "" || edges == 0 {
		return out, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != 1 && len(parts) != edges {
		return nil, fmt.Errorf("%d values for %d edges", len(parts), edges)
	}
	for i := range out {
		p := parts[0]
		if len(parts) > 1 {
			p = parts[i]
		}
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad degree %q", p)
		}
		out[i] = v
	}
	return out, nil
}

// parseEdgeHedges parses the -hedge edge vector of length edges: each entry
// is a plain duration budget, or "rtt-floor+<duration>" to anchor the budget
// on the edge's observed round-trip floor. Empty or "0" disables hedging on
// that edge, and a single value broadcasts.
func parseEdgeHedges(s string, edges int) ([]*tailbench.HedgeSpec, error) {
	out := make([]*tailbench.HedgeSpec, edges)
	if s == "" || edges == 0 {
		return out, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != 1 && len(parts) != edges {
		return nil, fmt.Errorf("%d values for %d edges", len(parts), edges)
	}
	for i := range out {
		p := strings.TrimSpace(parts[0])
		if len(parts) > 1 {
			p = strings.TrimSpace(parts[i])
		}
		if p == "0" || p == "" {
			continue
		}
		rttFloor := false
		if rest, ok := strings.CutPrefix(p, "rtt-floor+"); ok {
			rttFloor = true
			p = rest
		}
		d, err := time.ParseDuration(p)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("bad hedge %q", p)
		}
		out[i] = &tailbench.HedgeSpec{Delay: d, RTTFloor: rttFloor}
	}
	return out, nil
}

func printPipelineResult(res *tailbench.PipelineResult) {
	fmt.Printf("topology    : %s\n", res.Label)
	fmt.Printf("mode        : pipeline/%s\n", res.Mode)
	if res.Shape != "" && res.Shape != "constant" {
		fmt.Printf("load shape  : %s\n", res.ShapeSpec)
	}
	fmt.Printf("offered QPS : %.1f (root requests)\n", res.OfferedQPS)
	fmt.Printf("achieved QPS: %.1f\n", res.AchievedQPS)
	fmt.Printf("requests    : %d (errors %d)\n", res.Requests, res.Errors)
	s := res.Sojourn
	fmt.Printf("end-to-end  : mean=%-12v p50=%-12v p95=%-12v p99=%-12v max=%v\n",
		s.Mean.Round(time.Microsecond), s.P50.Round(time.Microsecond),
		s.P95.Round(time.Microsecond), s.P99.Round(time.Microsecond), s.Max.Round(time.Microsecond))
	printWindows(res.Windows)
	fmt.Println()
	res.WriteTierTable(os.Stdout)
	for _, t := range res.Tiers {
		if t.Controller != "" {
			fmt.Printf("\n%s autoscale: %s [%d..%d], tick %v — peak %d replicas, %.1f replica-seconds, %d scaling events\n",
				t.Name, t.Controller, t.MinReplicas, t.MaxReplicas, t.ControlInterval,
				t.PeakReplicas, t.ReplicaSeconds, len(t.ScalingEvents))
		}
	}
}

// parseSlowdowns turns "0:3,2:1.5" into a dense per-replica factor slice.
func parseSlowdowns(s string, replicas int) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := make([]float64, replicas)
	for i := range out {
		out[i] = 1
	}
	seen := make(map[int]bool, replicas)
	for _, pair := range strings.Split(s, ",") {
		idxStr, facStr, ok := strings.Cut(strings.TrimSpace(pair), ":")
		if !ok {
			return nil, fmt.Errorf("bad -slow entry %q (want index:factor)", pair)
		}
		idx, err := strconv.Atoi(idxStr)
		if err != nil || idx < 0 || idx >= replicas {
			return nil, fmt.Errorf("bad -slow replica index %q (cluster has %d replicas)", idxStr, replicas)
		}
		if seen[idx] {
			return nil, fmt.Errorf("duplicate -slow entry for replica %d", idx)
		}
		seen[idx] = true
		fac, err := strconv.ParseFloat(facStr, 64)
		if err != nil || math.IsNaN(fac) || math.IsInf(fac, 0) || fac < 1 {
			return nil, fmt.Errorf("bad -slow factor %q (want a finite number >= 1)", facStr)
		}
		out[idx] = fac
	}
	return out, nil
}

// writeJSON marshals v to path ("-" means stdout).
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func printClusterResult(res *tailbench.ClusterResult) {
	fmt.Printf("app         : %s\n", res.App)
	fmt.Printf("mode        : cluster/%s\n", res.Mode)
	if res.Shape != "" && res.Shape != "constant" {
		fmt.Printf("load shape  : %s\n", res.ShapeSpec)
	}
	fmt.Printf("policy      : %s\n", res.Policy)
	fmt.Printf("replicas    : %d x %d threads\n", res.Replicas, res.Threads)
	if res.Controller != "" {
		fmt.Printf("autoscale   : %s [%d..%d], tick %v\n",
			res.Controller, res.MinReplicas, res.MaxReplicas, res.ControlInterval)
		fmt.Printf("elasticity  : peak %d replicas, %.1f replica-seconds, %d scaling events\n",
			res.PeakReplicas, res.ReplicaSeconds, len(res.ScalingEvents))
	}
	fmt.Printf("offered QPS : %.1f\n", res.OfferedQPS)
	fmt.Printf("achieved QPS: %.1f\n", res.AchievedQPS)
	fmt.Printf("requests    : %d (errors %d)\n", res.Requests, res.Errors)
	row := func(name string, s tailbench.LatencyStats) {
		fmt.Printf("%-8s mean=%-12v p50=%-12v p95=%-12v p99=%-12v max=%v\n",
			name, s.Mean.Round(time.Microsecond), s.P50.Round(time.Microsecond),
			s.P95.Round(time.Microsecond), s.P99.Round(time.Microsecond), s.Max.Round(time.Microsecond))
	}
	row("queue", res.Queue)
	row("service", res.Service)
	row("sojourn", res.Sojourn)
	printWindows(res.Windows)
	fmt.Println()
	res.WriteReplicaTable(os.Stdout)
}
