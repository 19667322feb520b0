package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call recorded by the benchmark's own code around a
// call into a layer. Name is "layer/call"; Parent is the index of the
// enclosing span (-1 at the root) and Req the request or cell the call
// served (-1 when it served none).
type span struct {
	Name   string
	Start  time.Duration
	End    time.Duration
	Parent int
	Req    int64
}

// tracer keeps the spans of one traced run in memory until the run ends.
// It is used from the benchmark's single driving goroutine only. A nil
// *tracer records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0)
}

// add records an already-timed span, for calls timed by the caller.
func (t *tracer) add(name string, parent int, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0), End: end.Sub(t.t0), Parent: parent, Req: req})
}

// chromeEvent is one complete event ("ph": "X") of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every span as Chrome trace JSON (chrome://tracing,
// Perfetto): name, start, end, parent and request id of each.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		ev := chromeEvent{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"id": i, "parent": s.Parent, "req": s.Req},
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return fmt.Errorf("trace file: %w", err)
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}

// layerOf returns the layer part of a "layer/call" span name.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time: the summed durations of its
// spans minus the parts their child spans cover. Children of one span are
// recorded sequentially by a single goroutine, so they never overlap.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	byLayer := map[string]time.Duration{}
	for i, s := range t.spans {
		byLayer[layerOf(s.Name)] += self[i]
	}
	return byLayer
}

// printSelfTime prints the per-layer self-time table of the traced run.
func (t *tracer) printSelfTime(w io.Writer) {
	byLayer := t.selfTimes()
	layers := make([]string, 0, len(byLayer))
	var total time.Duration
	for l, d := range byLayer {
		layers = append(layers, l)
		total += d
	}
	sort.Slice(layers, func(i, j int) bool { return byLayer[layers[i]] > byLayer[layers[j]] })
	fmt.Fprintf(w, "self time by layer (traced run, %d spans):\n", len(t.spans))
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = float64(byLayer[l]) / float64(total)
		}
		fmt.Fprintf(w, "  %-12s %12.3f ms %6.1f%%\n", l, float64(byLayer[l])/1e6, 100*share)
	}
}
