// Command perfbench is TailBench's end-to-end benchmark. It runs one named
// workload through the repository's public entry points and prints every
// metric by name with its unit; the last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With -trace 0 the metrics are the end-to-end set, with -trace 1 the
// per-layer set (see catalog.go and README.md). A failed correctness check
// prints "correct": false and exits with status 1.
//
//	go run . -workload live-integrated -seed 1 -seconds 50 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// short shrinks every phase to a tiny size (tests only); the numbers
	// it produces are not comparable with full runs.
	short bool
	// outDir receives the traced run's Chrome trace file.
	outDir string
}

// budget returns a share of the run's measuring time.
func (o options) budget(share float64) time.Duration {
	return time.Duration(share * o.seconds * float64(time.Second))
}

// metricValue is one metric as printed in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the machine-readable last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is what a workload measured: both metric sets (the caller prints
// the one the run asked for), the operation counts, and the outcome of
// every correctness check.
type outcome struct {
	endToEnd  map[string]float64
	perLayer  map[string]float64
	attempted int64
	failed    int64
	// checkErrs lists failed correctness checks; any entry makes the run
	// incorrect.
	checkErrs []error
}

func newOutcome() *outcome {
	return &outcome{endToEnd: map[string]float64{}, perLayer: map[string]float64{}}
}

// check records a correctness-check failure when err is non-nil.
func (o *outcome) check(err error) {
	if err != nil {
		o.checkErrs = append(o.checkErrs, err)
	}
}

// workloads maps a workload name to its runner. The traced flag of the
// bench context selects whether the per-layer probes run too.
var workloads = map[string]func(b *bench) (*outcome, error){
	"live-integrated": runLiveIntegrated,
	"live-loopback":   runLiveLoopback,
	"sim-sweep":       runSimSweep,
}

// bench is the state shared by one run: its options, the span recorder
// (nil when untraced) and the human-readable report writer.
type bench struct {
	opts options
	tr   *tracer
	out  io.Writer
}

// logf writes one line of the human-readable report.
func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.out, format+"\n", args...)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: live-integrated, live-loopback or sim-sweep")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 50, "measuring time of one run, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run, 0 the end-to-end run")
	fs.BoolVar(&o.short, "short", false, "tiny sizes for the benchmark's own tests")
	fs.StringVar(&o.outDir, "out", ".bench_build", "directory for the traced run's Chrome trace file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	runner, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || o.seed == 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %v), a non-zero -seed, -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	res, err := execute(o, runner, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs the workload and assembles the result line; in a traced run
// it also writes the span file and the self-time table.
func execute(o options, runner func(*bench) (*outcome, error), stdout io.Writer) (*resultLine, error) {
	b := &bench{opts: o, out: stdout}
	if o.trace {
		b.tr = newTracer()
	}
	b.logf("perfbench workload=%s seed=%d seconds=%g trace=%v", o.workload, o.seed, o.seconds, o.trace)
	oc, err := runner(b)
	if err != nil {
		return nil, err
	}
	names := endToEnd
	values := oc.endToEnd
	if o.trace {
		names = perLayer
		values = oc.perLayer
		path := filepath.Join(o.outDir, fmt.Sprintf("perfbench-trace-%s-%d.json", o.workload, o.seed))
		if err := b.tr.writeChrome(path); err != nil {
			return nil, err
		}
		b.logf("spans: %d written to %s", len(b.tr.spans), path)
		b.tr.printSelfTime(stdout)
	}
	res := &resultLine{
		Correct:   len(oc.checkErrs) == 0,
		Attempted: oc.attempted,
		Failed:    oc.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range names {
		v, ok := values[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		b.logf("  %-34s %14.4f %s", m.name, v, m.unit)
	}
	if oc.attempted > 0 {
		b.logf("  %-34s %14.6f ratio (%d of %d)", "fail_frac", float64(oc.failed)/float64(oc.attempted), oc.failed, oc.attempted)
	}
	for _, e := range oc.checkErrs {
		b.logf("CHECK FAILED: %v", e)
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	return res, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
