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

// RunIntegrated measures the application under the integrated configuration:
// client, harness, and application in one process (Fig. 1, upper right).
// Its cfg.Threads workers are leader/followers: the holder of one leader
// token claims the next request, waits for its instant, passes the token on
// and serves the request itself, so no goroutine wake-up lies between a
// request's instant and its service, and a worker that comes free claims the
// earliest unclaimed request (FIFO). The token is a 1-buffered channel: a
// sync.Mutex would enter starvation mode, as followers wait over 1ms, and
// its Unlock would hand the processor to the waiter ahead of the leader.
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
	// perturbs the issue timing.
	payloads := make([]app.Request, total)
	for i := range payloads {
		payloads[i] = client.NextRequest()
	}
	shaper := NewShapedTrafficShaper(cfg.shape(), workload.SplitSeed(cfg.Seed, 2))
	offsets := shaper.Schedule(total)

	collector := newRunCollector(cfg)
	token := make(chan struct{}, 1)
	// next is the index the token holder claims; total stops every worker.
	next := 0
	token <- struct{}{}

	startTime := time.Now()
	deadline := startTime.Add(cfg.Timeout)
	var workers sync.WaitGroup
	for w := 0; w < cfg.Threads; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for {
				<-token
				i := next
				if i >= total {
					token <- struct{}{}
					return
				}
				// A request claimed after its instant waited for a worker
				// (queueing); before it, the pacer's lateness is issue lag.
				target := startTime.Add(offsets[i])
				issued := target
				now := time.Now()
				if now.Before(target) {
					WaitUntil(target)
					now = time.Now()
					issued = now
				}
				if now.After(deadline) {
					next = total
					token <- struct{}{}
					return
				}
				next = i + 1
				token <- struct{}{}

				start := time.Now()
				resp, perr := server.Process(payloads[i])
				end := time.Now()
				failed := perr != nil
				if !failed && cfg.Validate {
					failed = client.CheckResponse(payloads[i], resp) != nil
				}
				collector.Record(Sample{
					Queue:    start.Sub(issued),
					Service:  end.Sub(start),
					Sojourn:  end.Sub(target),
					IssueLag: issued.Sub(target),
					Warmup:   i < cfg.WarmupRequests,
					Err:      failed,
					Offset:   offsets[i],
				})
			}
		}()
	}
	workers.Wait()

	return resultFromSnapshot(server.Name(), Integrated, cfg, collector.snapshot()), nil
}
