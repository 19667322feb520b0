package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tailbench/internal/app"
	"tailbench/internal/load"
	"tailbench/internal/netproto"
	"tailbench/internal/workload"
)

// RunNetworked measures an application served by a NetServer (or any server
// speaking the netproto framing) under the loopback or networked
// configuration. Clients are open-loop: each connection issues its share of
// the offered load according to its own exponential arrival schedule and
// never waits for earlier responses. kind selects how the run is labeled and
// whether the synthetic NIC/switch delay is added (Networked only).
func RunNetworked(addr string, appName string, newClient ClientFactory, cfg RunConfig, kind ConfigKind) (*Result, error) {
	if newClient == nil {
		return nil, ErrNilClient
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if kind != Networked && kind != Loopback {
		kind = Loopback
	}

	collector := newRunCollector(cfg)
	if kind == Networked {
		// Sojourns include the synthetic RTT; tell the tracer so the trace's
		// net spans carve it out of the queueing residual.
		collector.SetTrace(cfg.Trace, 2*cfg.NetworkDelay)
	}
	var wg sync.WaitGroup
	errs := make(chan error, cfg.Clients)

	for c := 0; c < cfg.Clients; c++ {
		cc := clientShare(cfg, c)
		client, err := newClient(workload.SplitSeed(cfg.Seed, int64(1000+c)))
		if err != nil {
			return nil, fmt.Errorf("core: creating client %d: %w", c, err)
		}
		wg.Add(1)
		go func(idx int, share clientConfig, cl app.Client) {
			defer wg.Done()
			if err := runClientConn(addr, share, cl, cfg, kind, collector, int64(idx)); err != nil {
				errs <- err
			}
		}(c, cc, client)
	}
	wg.Wait()
	close(errs)
	// Report every failed client, not just the first one buffered: with many
	// connections a single root cause (say, the server going away) fails them
	// all, and a partial report hides how widespread the failure was.
	var all []error
	for err := range errs {
		all = append(all, err)
	}
	if len(all) > 0 {
		return nil, errors.Join(all...)
	}
	return resultFromSnapshot(appName, kind, cfg, collector.snapshot()), nil
}

// clientConfig is one connection's slice of the run.
type clientConfig struct {
	requests int
	warmup   int
	shape    load.Shape
}

// clientShare splits the total request budget and offered load evenly over
// the configured clients, giving any remainder to the first client. Each
// client follows the run's load shape scaled by 1/Clients, so the
// superposition of the independent per-client arrival processes reproduces
// the configured shape.
func clientShare(cfg RunConfig, idx int) clientConfig {
	cc := clientConfig{
		requests: cfg.Requests / cfg.Clients,
		warmup:   cfg.WarmupRequests / cfg.Clients,
		shape:    load.Scaled(cfg.shape(), 1/float64(cfg.Clients)),
	}
	if idx == 0 {
		cc.requests += cfg.Requests % cfg.Clients
		cc.warmup += cfg.WarmupRequests % cfg.Clients
	}
	return cc
}

// inflight tracks a request awaiting its response.
type inflight struct {
	scheduled time.Time
	// offset is the scheduled arrival offset from the client's start, for
	// windowed accounting.
	offset time.Duration
	// issueLag is how late the writer sent the request.
	issueLag time.Duration
	payload  app.Request
	warmup   bool
}

// pendingSet is the set of requests a client connection has issued but not
// yet seen responses for.
type pendingSet struct {
	mu sync.Mutex
	m  map[uint64]inflight
}

func newPendingSet(capacity int) *pendingSet {
	return &pendingSet{m: make(map[uint64]inflight, capacity)}
}

func (p *pendingSet) add(id uint64, inf inflight) {
	p.mu.Lock()
	p.m[id] = inf
	p.mu.Unlock()
}

func (p *pendingSet) take(id uint64) (inflight, bool) {
	p.mu.Lock()
	inf, ok := p.m[id]
	if ok {
		delete(p.m, id)
	}
	p.mu.Unlock()
	return inf, ok
}

func (p *pendingSet) remove(id uint64) {
	p.mu.Lock()
	delete(p.m, id)
	p.mu.Unlock()
}

func (p *pendingSet) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.m)
}

// runClientConn drives a single client connection: an open-loop writer
// issuing requests at their scheduled instants over a one-connection
// ReplicaConn, whose reader records each response as it lands.
func runClientConn(addr string, share clientConfig, client app.Client, cfg RunConfig, kind ConfigKind, collector *Collector, idx int64) error {
	if share.requests+share.warmup == 0 {
		return nil
	}
	total := share.requests + share.warmup
	payloads := make([]app.Request, total)
	for i := range payloads {
		payloads[i] = client.NextRequest()
	}
	shaper := NewShapedTrafficShaper(share.shape, workload.SplitSeed(cfg.Seed, 2000+idx))
	offsets := shaper.Schedule(total)

	// The synthetic one-way NIC+switch delay; applied to sojourn time only,
	// on both directions.
	var extraRTT time.Duration
	if kind == Networked {
		extraRTT = 2 * cfg.NetworkDelay
	}

	pending := newPendingSet(total)
	pool, err := DialReplica(addr, 1, func(msg *netproto.Message, now time.Time) {
		inf, ok := pending.take(msg.ID)
		if !ok {
			return // stale or duplicate response
		}
		failed := msg.Type == netproto.TypeError
		if !failed && cfg.Validate {
			failed = client.CheckResponse(inf.payload, msg.Payload) != nil
		}
		collector.Record(Sample{
			Queue:    time.Duration(msg.QueueNs),
			Service:  time.Duration(msg.ServiceNs),
			Sojourn:  now.Sub(inf.scheduled) + extraRTT,
			IssueLag: inf.issueLag,
			Warmup:   inf.warmup,
			Err:      failed,
			Offset:   inf.offset,
		})
	})
	if err != nil {
		return fmt.Errorf("core: client %d: %w", idx, err)
	}
	defer pool.Close()

	// Writer: issue requests open-loop at their scheduled instants.
	start := time.Now()
	deadline := start.Add(cfg.Timeout)
	issued := 0
	var writeErr error
	for i := 0; i < total; i++ {
		target := start.Add(offsets[i])
		WaitUntil(target)
		now := time.Now()
		if now.After(deadline) {
			break
		}
		id := uint64(i)
		pending.add(id, inflight{scheduled: target, offset: offsets[i], issueLag: now.Sub(target), payload: payloads[i], warmup: i < share.warmup})
		if err := pool.Send(id, payloads[i]); err != nil {
			pending.remove(id)
			writeErr = err
			break
		}
		issued++
	}

	// Drain: wait until every issued request has a recorded response, then
	// tell the server we are done (pool.Close sends the shutdown frame).
	drained := true
	for pending.size() > 0 {
		if time.Now().After(deadline) {
			drained = false
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	pool.Close()

	switch {
	case writeErr != nil:
		return fmt.Errorf("core: client %d write failed after %d requests: %w", idx, issued, writeErr)
	case !drained:
		return fmt.Errorf("core: client %d timed out with %d responses outstanding", idx, pending.size())
	default:
		return nil
	}
}
