//lint:allow simtime live pipeline engine: goroutine dispatch, hedge timers, and ticks run on the wall clock by design

package pipeline

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"tailbench/internal/app"
	"tailbench/internal/cluster"
	"tailbench/internal/core"
	"tailbench/internal/load"
	"tailbench/internal/stats"
	"tailbench/internal/trace"
	"tailbench/internal/workload"
)

// liveRoot is one root request's bookkeeping on the live path. done and the
// per-tier critical sojourns are atomics: whichever worker resolves the last
// straggler writes them.
type liveRoot struct {
	at      time.Duration
	warmup  bool
	err     atomic.Bool
	done    atomic.Int64
	tierMax []atomic.Int64
	// tree is the root's span tree when tracing is on (measured roots only).
	// Workers and reader goroutines append under the tree's own mutex.
	tree *trace.Tree
}

// liveNode is one sub-request in a root's fan-out tree on the live path.
type liveNode struct {
	tier   int
	parent *liveNode
	root   *liveRoot
	// dispatchAt is the node's logical birth offset: the root's scheduled
	// arrival for tier 0 (open-loop: dispatcher lag counts as latency), the
	// parent's completion offset for deeper tiers. The node's tier-local
	// sojourn is measured from it, for the original and any hedge duplicate
	// alike.
	dispatchAt time.Duration
	// synth is the accumulated synthetic network delay charged along the
	// node's path from the root, through and including its own edge (one
	// RTT per networked hop). Recorded latencies add it; the real clock the
	// run executes on does not, since the loopback wire time underneath a
	// networked edge is already real.
	synth time.Duration
	// span is the node's request span in the root's trace tree; written at
	// original dispatch (before any copy can complete) and read by
	// completion handlers.
	span int32
	// settled flips when the first copy completes; the loser only updates
	// capacity accounting.
	settled atomic.Bool
	timer   *time.Timer
	// hedgeDecided arbitrates the hedge timer against the first completion,
	// so the trace marks a node hedged exactly when a duplicate was
	// dispatched: whichever flips it first decides — the timer by
	// dispatching the duplicate, the winning copy by cancelling it.
	hedgeDecided atomic.Bool
	// pending counts unresolved children; maxChildDone their latest
	// completion.
	pending      atomic.Int32
	maxChildDone atomic.Int64
}

// liveCompletion is one completion in a tier's control-tick buffer.
type liveCompletion struct {
	finish  time.Duration
	sojourn time.Duration
}

// liveReplica is the runtime state of one live tier replica. The serving
// runtime belongs to the tier's edge transport: the in-process edge uses the
// bounded queue, the networked edges the connection pool and pending map.
type liveReplica struct {
	member   *cluster.Member
	server   app.Server
	slowdown float64
	queue    chan livePending
	closed   bool // queue closed (guarded by the tier mutex)

	// pool, pending, and pendMu are the networked edges' runtime; dialErr
	// records a failed mid-run connection dial.
	pool    *core.ReplicaConn
	pendMu  sync.Mutex
	pending map[uint64]livePending
	dialErr error

	outstanding atomic.Int64
	lastDone    atomic.Int64
	dispatched  uint64             // guarded by the tier mutex
	depth       cluster.DepthAccum // guarded by the tier mutex

	collector *core.Collector
}

// livePending is one request flowing through a live replica's queue.
type livePending struct {
	node    *liveNode
	payload app.Request
	hedge   bool
	enqueue time.Time
}

// liveTier is one tier of the live pipeline. Unlike the cluster engine's
// single dispatcher goroutine, a tier's dispatches originate from many
// goroutines (the root scheduler, upstream workers spawning fan-out,
// hedge timers), so the balancer/membership state is guarded by a mutex;
// lock order is strictly downstream (a worker of tier i only ever takes
// tier i+1's mutex), so the chain cannot deadlock.
type liveTier struct {
	idx int
	cfg TierConfig
	eng *liveEngine

	// tr is the edge's transport; rttExtra is the synthetic round-trip
	// charged to this tier's recorded sub-request latencies (zero except
	// for networked edges).
	tr       edgeTransport
	rttExtra time.Duration

	client     app.Client
	payloads   []app.Request
	payloadIdx atomic.Int64

	mu       sync.Mutex
	balancer cluster.Balancer
	set      *cluster.ReplicaSet
	replicas []*liveReplica // indexed by member ID
	loop     *cluster.ControlLoop
	// closing marks teardown (guarded by mu): once set, dispatch becomes a
	// no-op, so a straggling hedge timer (or, after a timeout, an upstream
	// worker spawning fan-out) can never send on a closed replica queue.
	closing bool

	collector *core.Collector // tier-local logical sub-request samples
	workers   sync.WaitGroup

	tickMu  sync.Mutex
	tickBuf []liveCompletion

	hedgesIssued atomic.Uint64
	hedgeWins    atomic.Uint64
	// wireFloor is the smallest wire time (completion minus enqueue minus
	// queue wait minus service) observed on any completed copy, in
	// nanoseconds; math.MaxInt64 until the first observation. Maintained
	// only for RTT-floor hedge budgets.
	wireFloor atomic.Int64
}

// liveEngine is the run-scoped state of the live pipeline path.
type liveEngine struct {
	cfg   Config
	tiers []*liveTier
	start time.Time

	lastDone  atomic.Int64 // latest completion offset across every tier
	remaining atomic.Int64 // unresolved roots
	allDone   chan struct{}
	stop      chan struct{} // stops control tickers
}

// storeMax CAS-stores v into a if it is larger.
func storeMax(a *atomic.Int64, v int64) {
	for {
		prev := a.Load()
		if v <= prev || a.CompareAndSwap(prev, v) {
			return
		}
	}
}

// Run measures a live pipeline: real replica servers per tier, driven by
// goroutines on the wall clock. Root requests are issued open-loop at their
// scheduled instants; a request completing at tier i spawns its fan-out into
// tier i+1 from the worker that finished it, fan-in resolves on the slowest
// descendant, and hedge duplicates fire from timers when a sub-request
// overruns its edge's delay budget. The caller owns the tier server pools
// (they are not closed).
func Run(cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	shape := load.Or(cfg.Load, cfg.QPS)
	total := cfg.WarmupRequests + cfg.Requests
	mult := fanMultipliers(cfg.Tiers)

	eng := &liveEngine{cfg: cfg, allDone: make(chan struct{}), stop: make(chan struct{})}
	eng.remaining.Store(int64(total))
	for i, tc := range cfg.Tiers {
		t, err := newLiveTier(eng, i, tc, total*mult[i], cfg)
		if err != nil {
			// Tear down the tiers already built: their transports hold live
			// resources (worker goroutines, and for networked edges TCP
			// listeners and dialed pools) that would otherwise leak on every
			// failed construction.
			eng.teardown()
			return nil, err
		}
		eng.tiers = append(eng.tiers, t)
	}

	arrivals := core.NewShapedTrafficShaper(shape, workload.SplitSeed(cfg.Seed, 2)).Schedule(total)
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = core.DefaultTimeout(total, cfg.QPS)
		if horizon := load.Horizon(shape, total); horizon+10*time.Second > timeout {
			timeout = horizon + 10*time.Second
		}
		// Every tier adds queueing and service downstream of the arrival
		// horizon; give the chain room to drain.
		timeout += time.Duration(len(cfg.Tiers)) * 5 * time.Second
	}

	// The clock starts before the control tickers and the scheduler so both
	// measure offsets from the same origin.
	eng.start = time.Now()

	// Control tickers: one per autoscaled tier, mirroring the cluster
	// engine's tick cadence on the wall clock.
	for _, t := range eng.tiers {
		if t.loop == nil {
			continue
		}
		go func(t *liveTier) {
			ticker := time.NewTicker(t.loop.Config().Interval)
			defer ticker.Stop()
			for {
				select {
				case <-eng.stop:
					return
				case <-ticker.C:
					t.mu.Lock()
					t.runTicksLocked(time.Since(eng.start))
					t.mu.Unlock()
				}
			}
		}(t)
	}

	roots := make([]*liveRoot, total)
	for i := 0; i < total; i++ {
		core.WaitUntil(eng.start.Add(arrivals[i]))
		root := &liveRoot{at: arrivals[i], warmup: i < cfg.WarmupRequests, tierMax: make([]atomic.Int64, len(cfg.Tiers))}
		if cfg.Trace != nil && !root.warmup {
			root.tree = trace.NewTree(arrivals[i])
		}
		roots[i] = root
		node := &liveNode{tier: 0, root: root, dispatchAt: arrivals[i], synth: eng.tiers[0].rttExtra}
		eng.tiers[0].dispatch(node, eng.tiers[0].nextPayload(), false)
	}

	timedOut := false
	select {
	case <-eng.allDone:
	case <-time.After(timeout):
		timedOut = true
	}
	close(eng.stop)
	eng.teardown()
	// Teardown drains in-flight work; if that resolved the last stragglers
	// after all, the run is complete and the data is whole.
	if timedOut && eng.remaining.Load() > 0 {
		return nil, fmt.Errorf("%w (%d of %d roots unresolved after %v)", ErrTimedOut, eng.remaining.Load(), total, timeout)
	}
	return assembleLive(cfg, eng, roots, arrivals, shape, mult), nil
}

// teardown stops the engine: mark every tier closing (turning further
// dispatches — straggling hedge timers, or fan-out spawns of work still
// draining after a timeout — into no-ops), close every still-open replica
// queue so workers finish their backlog and exit, and retire draining
// replicas at their true idle instants. It returns only once every worker
// has exited, so the caller may safely close the tier servers afterwards.
func (e *liveEngine) teardown() {
	for _, t := range e.tiers {
		t.mu.Lock()
		t.closing = true
		t.mu.Unlock()
	}
	// Shut down front-to-back: by the time tier i's transport has drained,
	// tier i-1's has, so nothing upstream can still be feeding tier i (and
	// post-closing dispatches no-op). In-process edges wait for their
	// workers' backlog; networked edges drain in-flight responses within a
	// bounded grace, then close their pools and servers.
	for _, t := range e.tiers {
		t.tr.shutdown(5 * time.Second)
		t.mu.Lock()
		for _, m := range t.set.Members() {
			if m.State == cluster.StateDraining {
				t.set.Retire(m.ID, time.Duration(t.replicas[m.ID].lastDone.Load()))
			}
		}
		t.mu.Unlock()
	}
}

// newLiveTier validates one tier's live configuration and builds its runtime:
// balancer, membership set, control loop, payload pool, and the initial
// replicas with their worker pools.
func newLiveTier(eng *liveEngine, idx int, tc TierConfig, payloadCount int, cfg Config) (*liveTier, error) {
	if len(tc.Servers) == 0 {
		return nil, fmt.Errorf("pipeline: tier %d (%s): %w", idx, tc.Name, cluster.ErrNoReplicas)
	}
	if tc.NewClient == nil {
		return nil, fmt.Errorf("pipeline: tier %d (%s): %w", idx, tc.Name, core.ErrNilClient)
	}
	if len(tc.Slowdowns) != 0 && len(tc.Slowdowns) != len(tc.Servers) {
		return nil, fmt.Errorf("pipeline: tier %d (%s): %w", idx, tc.Name, cluster.ErrSlowdownsLen)
	}
	if tc.Replicas > len(tc.Servers) {
		return nil, fmt.Errorf("pipeline: tier %d (%s): %w (%d > %d)", idx, tc.Name, cluster.ErrReplicaCount, tc.Replicas, len(tc.Servers))
	}
	if tc.Replicas <= 0 {
		tc.Replicas = len(tc.Servers)
	}
	if tc.QueueCap <= 0 {
		tc.QueueCap = 4096
	}
	seed := tierSeed(cfg.Seed, idx)
	balancer, err := cluster.NewBalancer(tc.Policy, seed)
	if err != nil {
		return nil, fmt.Errorf("pipeline: tier %d (%s): %w", idx, tc.Name, err)
	}
	t := &liveTier{
		idx:      idx,
		cfg:      tc,
		eng:      eng,
		balancer: balancer,
		set:      cluster.NewReplicaSet(len(tc.Servers)),
	}
	t.wireFloor.Store(math.MaxInt64)
	if tc.Autoscale != nil {
		t.loop, err = cluster.NewControlLoop(*tc.Autoscale, tc.Replicas, len(tc.Servers))
		if err != nil {
			return nil, fmt.Errorf("pipeline: tier %d (%s): %w", idx, tc.Name, err)
		}
	}
	if len(tc.ThreadsPer) != 0 && len(tc.ThreadsPer) != len(tc.Servers) {
		return nil, fmt.Errorf("pipeline: tier %d (%s): %w", idx, tc.Name, cluster.ErrThreadsPerLen)
	}
	if load.WindowEnabled(cfg.Window, cfg.Load) {
		t.collector = core.NewWindowedCollector(false)
	} else {
		t.collector = core.NewCollector(false)
	}
	t.collector.SetMetrics(cfg.Metrics, fmt.Sprintf("tier%d", idx))
	t.client, err = tc.NewClient(workload.SplitSeed(seed, 1))
	if err != nil {
		return nil, fmt.Errorf("pipeline: tier %d (%s): creating client: %w", idx, tc.Name, err)
	}
	// Pre-generate every original sub-request payload the tier can consume
	// (hedge duplicates reuse their original's payload), so payload
	// construction never sits on a latency path.
	t.payloads = make([]app.Request, payloadCount)
	for i := range t.payloads {
		t.payloads[i] = t.client.NextRequest()
	}
	t.tr, t.rttExtra, err = newEdgeTransport(t)
	if err != nil {
		return nil, fmt.Errorf("pipeline: tier %d (%s): %w", idx, tc.Name, err)
	}
	for r := 0; r < tc.Replicas; r++ {
		t.provisionLocked(t.set.Provision(0, 0))
	}
	return t, nil
}

// nextPayload hands out the tier's next pre-generated payload.
func (t *liveTier) nextPayload() app.Request {
	return t.payloads[t.payloadIdx.Add(1)-1]
}

// slowdownFor normalizes the slowdown factor of pool slot idx.
func (t *liveTier) slowdownFor(idx int) float64 {
	if idx >= len(t.cfg.Slowdowns) {
		return 1
	}
	s := t.cfg.Slowdowns[idx]
	if math.IsNaN(s) || math.IsInf(s, 0) || s < 1 {
		return 1
	}
	return s
}

// provisionLocked builds the runtime replica for a newly provisioned member
// and hands it to the edge transport, which brings up its serving runtime.
// Callers hold the tier mutex (or run before any concurrency starts).
func (t *liveTier) provisionLocked(m *cluster.Member) {
	rep := &liveReplica{
		member:    m,
		server:    t.cfg.Servers[m.Slot],
		slowdown:  t.slowdownFor(m.Slot),
		collector: core.NewCollector(false),
	}
	t.replicas = append(t.replicas, rep)
	t.tr.provision(rep)
}

// drainLocked stops feeding a draining (or cancelled cold-start) member:
// dispatchers no longer route to it, so its accepted work finishes and it
// retires once idle.
func (t *liveTier) drainLocked(m *cluster.Member) {
	t.tr.drain(t.replicas[m.ID])
}

// runTicksLocked fires every control tick due at or before now, mirroring
// the cluster live engine. Callers hold the tier mutex.
func (t *liveTier) runTicksLocked(now time.Duration) {
	for t.loop.Due(now) {
		at := t.loop.Begin()
		t.set.ActivateDue(at)
		for _, m := range t.set.Members() {
			if m.State == cluster.StateDraining && t.replicas[m.ID].outstanding.Load() == 0 {
				t.set.Retire(m.ID, time.Duration(t.replicas[m.ID].lastDone.Load()))
			}
		}
		outstanding := 0
		for _, id := range t.set.ActiveIDs() {
			outstanding += int(t.replicas[id].outstanding.Load())
		}
		target := t.loop.Decide(cluster.Observe(at, t.set, outstanding, t.takeCompletions(at)))
		t.loop.Apply(t.set, target, at, t.provisionLocked, t.drainLocked,
			func(id int) int { return int(t.replicas[id].outstanding.Load()) })
	}
}

// takeCompletions removes and returns the sojourns of buffered completions
// that finished at or before the tick instant (see the cluster engine's
// twin for why later ones are kept).
func (t *liveTier) takeCompletions(at time.Duration) []time.Duration {
	t.tickMu.Lock()
	defer t.tickMu.Unlock()
	var taken []time.Duration
	kept := t.tickBuf[:0]
	for _, c := range t.tickBuf {
		if c.finish <= at {
			taken = append(taken, c.sojourn)
		} else {
			kept = append(kept, c)
		}
	}
	t.tickBuf = kept
	return taken
}

// dispatch routes one sub-request copy (original or hedge duplicate) into
// the tier: run due control ticks, snapshot the active replicas, let the
// balancer pick, and enqueue. The enqueue happens under the tier mutex so a
// concurrent scale-down cannot close the chosen queue between pick and
// send; a full queue blocks the dispatcher here, which is backpressure
// propagating upstream (and, at tier 0, open-loop latency).
func (t *liveTier) dispatch(n *liveNode, payload app.Request, hedge bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closing {
		// Teardown has begun: the queues are (about to be) closed. A hedge
		// duplicate arriving now lost its race by definition; an original
		// can only get here after a timeout, whose roots are abandoned.
		return
	}
	now := time.Since(t.eng.start)
	if t.loop != nil {
		t.runTicksLocked(now)
		t.set.ActivateDue(now)
	}
	var candidates []cluster.Candidate
	for _, id := range t.set.ActiveIDs() {
		candidates = append(candidates, cluster.Candidate{ID: id, Outstanding: t.tr.load(t.replicas[id])})
	}
	pick := t.balancer.Pick(candidates)
	rep := t.replicas[pick]
	for _, c := range candidates {
		if c.ID == pick {
			rep.depth.Observe(c.Outstanding)
			break
		}
	}
	rep.dispatched++
	rep.outstanding.Add(1)
	if tree := n.root.tree; tree != nil && !hedge {
		// The node's request span lives on the adjusted time axis: its start
		// is the parent's synthetic-delay-adjusted completion, and a networked
		// edge charges its RTT as a net span at the front.
		parent := int32(0)
		if n.parent != nil {
			parent = n.parent.span
		}
		start := n.dispatchAt + n.synth - t.rttExtra
		n.span = tree.Request(parent, t.idx, start)
		if t.rttExtra > 0 {
			tree.Net(n.span, start, t.rttExtra)
		}
	}
	if !hedge && t.cfg.HedgeDelay > 0 && t.idx > 0 {
		n.timer = time.AfterFunc(t.hedgeDelay(), func() {
			if n.settled.Load() || !n.hedgeDecided.CompareAndSwap(false, true) {
				return
			}
			t.hedgesIssued.Add(1)
			t.dispatch(n, payload, true)
		})
	}
	if err := t.tr.dispatch(rep, livePending{node: n, payload: payload, hedge: hedge, enqueue: time.Now()}); err != nil {
		// A transport send failure means this copy will never complete. Fail
		// the sub-request (unless the other copy already won) so the root
		// resolves with its error flagged instead of hanging to the timeout.
		rep.outstanding.Add(-1)
		if n.settled.CompareAndSwap(false, true) {
			n.root.err.Store(true)
			if tree := n.root.tree; tree != nil {
				tree.Settle(n.span, -1, true)
			}
			t.eng.settle(n, now, now+n.synth)
		}
	}
}

// hedgeDelay is the edge's effective hedging budget for the next original
// dispatch. A plain budget is used as configured; an RTT-floor budget adds
// what the transport costs every request — the edge's synthetic RTT plus
// the smallest wire time observed on any completed copy so far — so a
// hedge can never fire inside time no duplicate could beat. Before the
// first completion the observed floor reads as zero, which errs toward
// hedging early, never late.
func (t *liveTier) hedgeDelay() time.Duration {
	d := t.cfg.HedgeDelay
	if d <= 0 || !t.cfg.HedgeRTTFloor {
		return d
	}
	return d + t.rttExtra + t.observedWireFloor()
}

// observedWireFloor reads the edge's wire-time floor, zero until the first
// completed copy reports one.
func (t *liveTier) observedWireFloor() time.Duration {
	if f := t.wireFloor.Load(); f != math.MaxInt64 {
		return time.Duration(f)
	}
	return 0
}

// observeWire folds one completed copy's wire time into the edge's floor
// (atomic min). Only RTT-floor hedged edges pay for the tracking; negative
// inputs (clock skew between the enqueue stamp and the worker's clock)
// clamp to zero.
func (t *liveTier) observeWire(wire time.Duration) {
	if t.cfg.HedgeDelay <= 0 || !t.cfg.HedgeRTTFloor {
		return
	}
	if wire < 0 {
		wire = 0
	}
	v := wire.Nanoseconds()
	for {
		prev := t.wireFloor.Load()
		if v >= prev || t.wireFloor.CompareAndSwap(prev, v) {
			return
		}
	}
}

// work drains one replica's queue on one worker goroutine (the in-process
// edge's serving runtime): process, then hand the completion to the shared
// engine path.
func (t *liveTier) work(rep *liveReplica) {
	defer t.workers.Done()
	for p := range rep.queue {
		start := time.Now()
		resp, perr := rep.server.Process(p.payload)
		if rep.slowdown > 1 {
			// Straggler injection: hold the worker for the extra duration.
			time.Sleep(time.Duration((rep.slowdown - 1) * float64(time.Since(start))))
		}
		end := time.Now()
		failed := perr != nil
		if !failed && t.cfg.Validate {
			failed = t.client.CheckResponse(p.payload, resp) != nil
		}
		t.complete(rep, p, start.Sub(p.enqueue), end.Sub(start), failed, end)
	}
}

// complete records one finished sub-request copy, whichever transport
// carried it — record at the replica, settle the logical sub-request (first
// copy wins), and fan out or fan in. It runs on worker goroutines
// (in-process edges) or connection-pool readers (networked edges).
func (t *liveTier) complete(rep *liveReplica, p livePending, queue, service time.Duration, failed bool, end time.Time) {
	endOff := end.Sub(t.eng.start)
	storeMax(&rep.lastDone, endOff.Nanoseconds())
	storeMax(&t.eng.lastDone, endOff.Nanoseconds())
	// The copy's wire time is everything between enqueue and completion
	// that was neither queue wait nor service — the transport cost the
	// edge charges every copy, and the floor RTT-anchored hedge budgets
	// build on.
	t.observeWire(endOff - p.enqueue.Sub(t.eng.start) - queue - service)
	n := p.node
	sample := core.Sample{
		Queue:   queue,
		Service: service,
		Sojourn: endOff - n.dispatchAt + t.rttExtra,
		Warmup:  n.root.warmup,
		Err:     failed,
		Offset:  n.dispatchAt,
	}
	rep.outstanding.Add(-1)
	// Every served copy counts at the replica (and toward the
	// controller's completion window): redundant hedge work is real
	// capacity spent.
	rep.collector.Record(sample)
	if t.loop != nil {
		t.tickMu.Lock()
		t.tickBuf = append(t.tickBuf, liveCompletion{finish: endOff, sojourn: sample.Sojourn})
		t.tickMu.Unlock()
	}
	tree := n.root.tree
	if !n.settled.CompareAndSwap(false, true) {
		// The other copy already won the race; the loser's capacity spend is
		// still real, so its attempt joins the tree late (the one late
		// addition trees accept).
		if tree != nil {
			tree.Attempt(n.span, rep.member.ID, p.enqueue.Sub(t.eng.start)+n.synth,
				queue, service, endOff+n.synth, true, p.hedge, false, failed)
		}
		return
	}
	if p.hedge {
		t.hedgeWins.Add(1)
	}
	// Whether this node was actually hedged: the winning copy is the
	// duplicate, or the hedge timer decided before this copy could (the
	// duplicate is in flight and will report as the loser). A timer that
	// fired but lost the decision dispatched nothing.
	dupDispatched := p.hedge
	if n.timer != nil {
		n.timer.Stop()
		if !n.hedgeDecided.CompareAndSwap(false, true) {
			dupDispatched = true
		}
	}
	if failed {
		n.root.err.Store(true)
	}
	if tree != nil {
		tree.Attempt(n.span, rep.member.ID, p.enqueue.Sub(t.eng.start)+n.synth,
			queue, service, endOff+n.synth, dupDispatched, p.hedge, true, failed)
		tree.Settle(n.span, rep.member.ID, failed)
	}
	t.collector.Record(sample)
	if !n.root.warmup {
		storeMax(&n.root.tierMax[t.idx], sample.Sojourn.Nanoseconds())
	}
	t.eng.settle(n, endOff, endOff+n.synth)
}

// settle handles a node whose tier-local service just completed: spawn its
// fan-out into the next tier, or resolve fan-in up the tree. done is the
// real completion offset — children dispatch from it, since the run executes
// on the real clock — while adj adds the synthetic network delay accumulated
// along the node's path, the completion instant recorded latencies see.
func (e *liveEngine) settle(n *liveNode, done, adj time.Duration) {
	if n.tier+1 < len(e.tiers) {
		nt := e.tiers[n.tier+1]
		k := nt.cfg.FanOut
		n.pending.Store(int32(k))
		for j := 0; j < k; j++ {
			child := &liveNode{tier: n.tier + 1, parent: n, root: n.root, dispatchAt: done, synth: n.synth + nt.rttExtra}
			nt.dispatch(child, nt.nextPayload(), false)
		}
		return
	}
	e.resolve(n, adj)
}

// resolve propagates a completed node up the fan-in tree; the root resolves
// when its last straggler does.
func (e *liveEngine) resolve(n *liveNode, done time.Duration) {
	for {
		if tree := n.root.tree; tree != nil {
			tree.Close(n.span, done)
		}
		p := n.parent
		if p == nil {
			n.root.done.Store(done.Nanoseconds())
			if tree := n.root.tree; tree != nil {
				tree.Close(0, done)
				e.cfg.Trace.Observe(tree, done-n.root.at)
			}
			if e.remaining.Add(-1) == 0 {
				close(e.allDone)
			}
			return
		}
		storeMax(&p.maxChildDone, done.Nanoseconds())
		if p.pending.Add(-1) > 0 {
			return
		}
		n, done = p, time.Duration(p.maxChildDone.Load())
	}
}

// assembleLive builds the Result from the root records and tier collectors.
func assembleLive(cfg Config, eng *liveEngine, roots []*liveRoot, arrivals []time.Duration, shape load.Shape, mult []int) *Result {
	total := len(roots)
	end := time.Duration(eng.lastDone.Load())
	firstMeasured := time.Duration(0)
	if cfg.WarmupRequests < total {
		firstMeasured = arrivals[cfg.WarmupRequests]
	}
	elapsed := end - firstMeasured

	var sojournAll []time.Duration
	var timed []stats.TimedSample
	var errs uint64
	for _, r := range roots {
		if r.warmup {
			continue
		}
		if r.err.Load() {
			errs++
			timed = append(timed, stats.TimedSample{At: r.at, Err: true})
			continue
		}
		sojourn := time.Duration(r.done.Load()) - r.at
		sojournAll = append(sojournAll, sojourn)
		timed = append(timed, stats.TimedSample{At: r.at, Sojourn: sojourn})
	}
	achieved := 0.0
	if elapsed > 0 {
		achieved = float64(len(sojournAll)) / elapsed.Seconds()
	}
	out := &Result{
		Label:       label(cfg.Tiers),
		Shape:       shape.Name(),
		ShapeSpec:   shape.Spec(),
		OfferedQPS:  load.OfferedRate(shape, total),
		AchievedQPS: achieved,
		Requests:    uint64(len(sojournAll)),
		Warmups:     uint64(cfg.WarmupRequests),
		Errors:      errs,
		Sojourn:     stats.SummaryFromSamples(sojournAll),
		SojournCDF:  stats.SampleCDF(sojournAll),
		Elapsed:     elapsed,
	}
	if cfg.KeepRaw {
		out.SojournSamples = sojournAll
	}
	windowed := load.WindowEnabled(cfg.Window, cfg.Load)
	if windowed {
		out.Windows = core.WindowsFromTimed(timed, cfg.Window, shape)
		// As in the simulated engine: the end-to-end windows carry the
		// front-end tier's membership.
		eng.tiers[0].set.AnnotateWindows(out.Windows, end)
	}

	for i, t := range eng.tiers {
		agg := t.collector.Summary()
		tr := TierResult{
			Name:         t.cfg.Name,
			App:          t.cfg.App,
			Policy:       t.cfg.Policy,
			Replicas:     t.cfg.Replicas,
			Threads:      t.cfg.Threads,
			FanOut:       t.cfg.FanOut,
			Transport:    t.tr.name(),
			NetDelay:     t.rttExtra / 2,
			HedgeDelay:   t.cfg.HedgeDelay,
			HedgesIssued: t.hedgesIssued.Load(),
			HedgeWins:    t.hedgeWins.Load(),
			OfferedQPS:   out.OfferedQPS * float64(mult[i]),
			Requests:     agg.Count,
			Errors:       agg.Errors,
			Queue:        agg.Queue,
			Service:      agg.Service,
			Sojourn:      agg.Sojourn,
			Critical:     liveCriticalSummary(roots, i),
		}
		if windowed {
			tr.Windows = core.WindowsFromTimed(agg.Timed, cfg.Window, shape)
			for w := range tr.Windows {
				tr.Windows[w].OfferedQPS *= float64(mult[i])
			}
		}
		tr.ThreadsPer = append([]int(nil), t.cfg.ThreadsPer...)
		for _, rep := range t.replicas {
			rs := rep.collector.Summary()
			repAchieved := 0.0
			if elapsed > 0 {
				repAchieved = float64(rs.Count) / elapsed.Seconds()
			}
			tr.PerReplica = append(tr.PerReplica, cluster.NewReplicaRow(rep.member, end, cluster.ReplicaStats{
				Index:          rep.member.ID,
				Threads:        t.cfg.threadsFor(rep.member.Slot),
				Slowdown:       rep.slowdown,
				Dispatched:     rep.dispatched,
				Requests:       rs.Count,
				Errors:         rs.Errors,
				AchievedQPS:    repAchieved,
				Queue:          rs.Queue,
				Service:        rs.Service,
				Sojourn:        rs.Sojourn,
				MeanQueueDepth: rep.depth.Mean(),
				MaxQueueDepth:  rep.depth.Max(),
			}))
		}
		annotateTier(&tr, t.loop, t.set, end)
		out.Tiers = append(out.Tiers, tr)
	}
	out.Trace = cfg.Trace.Report()
	return out
}

// liveCriticalSummary summarizes, across measured roots, the slowest
// sub-request sojourn each root saw at the tier.
func liveCriticalSummary(roots []*liveRoot, tier int) stats.LatencySummary {
	var crit []time.Duration
	for _, r := range roots {
		if !r.warmup {
			crit = append(crit, time.Duration(r.tierMax[tier].Load()))
		}
	}
	return stats.SummaryFromSamples(crit)
}
