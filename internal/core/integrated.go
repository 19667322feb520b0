package core

import (
	"fmt"
	"sync"
	"time"

	"tailbench/internal/app"
	"tailbench/internal/workload"
)

// ClientFactory builds an application client with the given seed. Each
// harness client (connection) gets its own app.Client so request generation
// is decorrelated across clients and across repeated runs.
type ClientFactory func(seed int64) (app.Client, error)

// pendingRequest is one request flowing through the in-process request queue
// of the integrated configuration.
type pendingRequest struct {
	payload app.Request
	// scheduled is the arrival instant assigned by the traffic shaper; the
	// sojourn time is measured from this instant, so dispatcher lag counts
	// as latency rather than silently reducing offered load.
	scheduled time.Time
	// offset is the scheduled arrival offset from the start of the run,
	// placing the sample on the time axis for windowed accounting.
	offset time.Duration
	// enqueue is when the request actually entered the queue.
	enqueue time.Time
	warmup  bool
}

// RunIntegrated measures the application under the integrated configuration:
// client, harness, and application in one process, communicating through an
// in-memory request queue (Fig. 1, upper right).
func RunIntegrated(server app.Server, newClient ClientFactory, cfg RunConfig) (*Result, error) {
	if server == nil {
		return nil, ErrNilServer
	}
	if newClient == nil {
		return nil, ErrNilClient
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	client, err := newClient(workload.SplitSeed(cfg.Seed, 1))
	if err != nil {
		return nil, fmt.Errorf("core: creating client: %w", err)
	}

	total := cfg.WarmupRequests + cfg.Requests
	// Pre-generate request payloads so request construction cost never
	// perturbs the dispatch timing.
	payloads := make([]app.Request, total)
	for i := range payloads {
		payloads[i] = client.NextRequest()
	}
	shaper := NewShapedTrafficShaper(cfg.shape(), workload.SplitSeed(cfg.Seed, 2))
	offsets := shaper.Schedule(total)

	collector := newRunCollector(cfg)
	queue := make(chan pendingRequest, total)

	var workers sync.WaitGroup
	for w := 0; w < cfg.Threads; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for p := range queue {
				start := time.Now()
				resp, perr := server.Process(p.payload)
				end := time.Now()
				failed := perr != nil
				if !failed && cfg.Validate {
					failed = client.CheckResponse(p.payload, resp) != nil
				}
				collector.Record(Sample{
					Queue:    start.Sub(p.enqueue),
					Service:  end.Sub(start),
					Sojourn:  end.Sub(p.scheduled),
					IssueLag: p.enqueue.Sub(p.scheduled),
					Warmup:   p.warmup,
					Err:      failed,
					Offset:   p.offset,
				})
			}
		}()
	}

	// Dispatcher: issue requests open-loop at their scheduled instants.
	startTime := time.Now()
	deadline := startTime.Add(cfg.Timeout)
	for i := 0; i < total; i++ {
		target := startTime.Add(offsets[i])
		WaitUntil(target)
		now := time.Now()
		if now.After(deadline) {
			break
		}
		queue <- pendingRequest{
			payload:   payloads[i],
			scheduled: target,
			offset:    offsets[i],
			enqueue:   now,
			warmup:    i < cfg.WarmupRequests,
		}
	}
	close(queue)
	workers.Wait()

	return resultFromSnapshot(server.Name(), Integrated, cfg, collector.snapshot()), nil
}
