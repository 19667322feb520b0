package main

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"tailbench/internal/app"
	"tailbench/internal/apps/masstree"
	"tailbench/internal/cluster"
	"tailbench/internal/core"
	"tailbench/internal/load"
	"tailbench/internal/netproto"
	"tailbench/internal/stats"
	"tailbench/internal/workload"
)

// pacerLag is the issue lag of a pacer replay.
type pacerLag struct {
	n        int
	p50, p99 time.Duration
	cpuFrac  float64
}

// replayPacer replays the workload's own arrival schedule through
// core.WaitUntil with no application behind it, one goroutine per client
// as the harness paces: lateness is the return instant minus the target.
// cpuFrac is process CPU time over wall time during the replay.
func replayPacer(b *bench, qps float64, clients int, parent int) pacerLag {
	sp := b.tr.begin("core/WaitUntil.replay", parent, -1)
	defer b.tr.end(sp)
	perClient := int(qps / float64(clients) * b.opts.budget(0.05).Seconds())
	if perClient < 100*minBeyond {
		perClient = 100 * minBeyond
	}
	scheds := make([][]time.Duration, clients)
	for c := range scheds {
		scheds[c] = load.Schedule(load.Constant(qps/float64(clients)), perClient, workload.SplitSeed(b.opts.seed, int64(2+c)))
	}
	late := make([][]time.Duration, clients)
	// calls holds the first client's call instants, for its per-call spans.
	calls := make([]time.Time, 2*perClient)
	cpu0, wall0 := cpuTime(), time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		late[c] = make([]time.Duration, perClient)
		wg.Add(1)
		go func(c int, sched, out []time.Duration) {
			defer wg.Done()
			start := time.Now()
			for i, off := range sched {
				target := start.Add(off)
				called := time.Now()
				core.WaitUntil(target)
				now := time.Now()
				out[i] = now.Sub(target)
				if c == 0 {
					calls[2*i], calls[2*i+1] = called, now
				}
			}
		}(c, scheds[c], late[c])
	}
	wg.Wait()
	wall := time.Since(wall0)
	cpu := cpuTime() - cpu0
	for i := 0; i < perClient; i++ {
		b.tr.add("core/WaitUntil", sp, int64(i), calls[2*i], calls[2*i+1])
	}
	var all []time.Duration
	for _, l := range late {
		all = append(all, l...)
	}
	stats.SortDurations(all)
	return pacerLag{
		n:       len(all),
		p50:     stats.PercentileOfSorted(all, 50),
		p99:     stats.PercentileOfSorted(all, 99),
		cpuFrac: float64(cpu) / float64(wall),
	}
}

// sharedProbes times the live layers from outside, each around its public
// call: collector record, loopback round trip, frame codec, application
// service and balancer pick. rig may be nil, in which case a masstree
// server is built for the service probe.
func sharedProbes(b *bench, oc *outcome, parent int, rig *liveRig) error {
	n := 200000
	if b.opts.short {
		n = 2000
	}

	// core: Collector.Record with KeepRaw, per sample.
	col := core.NewCollector(true)
	samples := make([]core.Sample, 4096)
	r := workload.NewRand(workload.SplitSeed(b.opts.seed, 31))
	for i := range samples {
		svc := time.Duration(2000 + r.Intn(5000))
		samples[i] = core.Sample{Queue: time.Duration(r.Intn(1000)), Service: svc, Sojourn: svc + time.Duration(r.Intn(500000)), Offset: time.Duration(i) * time.Microsecond}
	}
	sp := b.tr.begin("core/Collector.Record", parent, -1)
	start := time.Now()
	for i := 0; i < n; i++ {
		col.Record(samples[i%len(samples)])
	}
	oc.perLayer["core.record_ns"] = float64(time.Since(start).Nanoseconds()) / float64(n)
	b.tr.end(sp)

	// apps: Server.Process on the client's request stream.
	if rig == nil {
		cfg := app.Config{Threads: 1, Scale: liveScale, Seed: b.opts.seed}.Normalize()
		if b.opts.short {
			cfg.Scale = 0.02
		}
		sp := b.tr.begin("apps/masstree.NewServer", parent, -1)
		server, err := masstree.NewServer(cfg)
		b.tr.end(sp)
		if err != nil {
			return fmt.Errorf("building masstree: %w", err)
		}
		defer server.Close()
		rig = &liveRig{cfg: cfg, server: server}
	}
	client, err := rig.newClient(workload.SplitSeed(b.opts.seed, 32))
	if err != nil {
		return fmt.Errorf("masstree client: %w", err)
	}
	reqs := make([]app.Request, n/10)
	payload := 0
	for i := range reqs {
		reqs[i] = client.NextRequest()
		payload += len(reqs[i])
	}
	meanPayload := payload / len(reqs)
	sp = b.tr.begin("apps/masstree.Process", parent, -1)
	svc := make([]time.Duration, len(reqs))
	for i, req := range reqs {
		t0 := time.Now()
		resp, err := rig.server.Process(req)
		svc[i] = time.Since(t0)
		if err == nil {
			err = client.CheckResponse(req, resp)
		}
		if err != nil {
			oc.check(fmt.Errorf("masstree.Process request %d: %w", i, err))
			break
		}
	}
	b.tr.end(sp)
	stats.SortDurations(svc)
	oc.perLayer["apps.masstree.process_p50_us"] = us(stats.PercentileOfSorted(svc, 50))

	// netproto: one frame of masstree's mean request size through a buffer.
	msg := &netproto.Message{Type: netproto.TypeRequest, ID: 1, Payload: make([]byte, meanPayload)}
	var buf bytes.Buffer
	sp = b.tr.begin("netproto/Write", parent, -1)
	start = time.Now()
	for i := 0; i < n; i++ {
		buf.Reset()
		if err := netproto.Write(&buf, msg); err != nil {
			return fmt.Errorf("netproto.Write: %w", err)
		}
	}
	oc.perLayer["netproto.write_ns"] = float64(time.Since(start).Nanoseconds()) / float64(n)
	b.tr.end(sp)
	frame := append([]byte(nil), buf.Bytes()...)
	stream := bytes.Repeat(frame, 1024)
	rd := bytes.NewReader(stream)
	sp = b.tr.begin("netproto/Read", parent, -1)
	start = time.Now()
	for i := 0; i < n; i++ {
		if i%1024 == 0 {
			rd.Reset(stream)
		}
		m, err := netproto.Read(rd)
		if err != nil {
			return fmt.Errorf("netproto.Read: %w", err)
		}
		if len(m.Payload) != meanPayload {
			oc.check(fmt.Errorf("netproto round trip: payload %d bytes, want %d", len(m.Payload), meanPayload))
			break
		}
	}
	oc.perLayer["netproto.read_ns"] = float64(time.Since(start).Nanoseconds()) / float64(n)
	b.tr.end(sp)

	// core: loopback round trip through NetServer, one request in flight.
	rtt, err := loopbackRTT(b, parent, n/40)
	if err != nil {
		return err
	}
	oc.perLayer["core.loopback_rtt_p50_us"] = us(stats.PercentileOfSorted(rtt, 50))
	oc.perLayer["core.loopback_rtt_p99_us"] = us(stats.PercentileOfSorted(rtt, 99))

	// cluster: Balancer.Pick over 4 and 8 candidates with varied depths.
	cands := make([][]cluster.Candidate, 256)
	for i := range cands {
		k := 4 + 4*(i%2)
		cands[i] = make([]cluster.Candidate, k)
		for j := range cands[i] {
			cands[i][j] = cluster.Candidate{ID: j, Outstanding: r.Intn(8)}
		}
	}
	for _, pol := range []string{cluster.PolicyRandom, cluster.PolicyLeastQueue, cluster.PolicyJSQ2} {
		bal, err := cluster.NewBalancer(pol, b.opts.seed)
		if err != nil {
			return err
		}
		sp = b.tr.begin("cluster/Balancer.Pick."+pol, parent, -1)
		picks := 5 * n
		sink := 0
		start = time.Now()
		for i := 0; i < picks; i++ {
			sink += bal.Pick(cands[i%len(cands)])
		}
		oc.perLayer["cluster.pick_ns."+pol] = float64(time.Since(start).Nanoseconds()) / float64(picks)
		b.tr.end(sp)
		if sink < 0 {
			oc.check(fmt.Errorf("balancer %s picked a negative id", pol))
		}
	}
	return nil
}

// noopServer answers every request with an empty response.
type noopServer struct{}

func (noopServer) Name() string                              { return "noop" }
func (noopServer) Process(app.Request) (app.Response, error) { return nil, nil }
func (noopServer) Close() error                              { return nil }

// loopbackRTT times n sequential round trips through a NetServer over a
// no-op application, via DialReplica and Send. The result is sorted.
func loopbackRTT(b *bench, parent int, n int) ([]time.Duration, error) {
	sp := b.tr.begin("core/NetServer.roundtrip", parent, -1)
	defer b.tr.end(sp)
	ns := core.NewNetServer(noopServer{}, 1)
	addr, err := ns.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ns.Close()
	done := make(chan time.Time, 1)
	rc, err := core.DialReplica(addr, 1, func(_ *netproto.Message, at time.Time) { done <- at })
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	rtt := make([]time.Duration, n)
	payload := []byte("ping")
	for i := range rtt {
		t0 := time.Now()
		if err := rc.Send(uint64(i), payload); err != nil {
			return nil, err
		}
		select {
		case at := <-done:
			rtt[i] = at.Sub(t0)
		case <-time.After(5 * time.Second):
			return nil, fmt.Errorf("loopback round trip %d: no response in 5s", i)
		}
	}
	stats.SortDurations(rtt)
	return rtt, nil
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// median returns the median of ds (the upper middle for even counts).
func median[T time.Duration | float64](ds []T) T {
	s := append([]T(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// quietQuartile returns the lower quartile of per-sub-run values. On a
// shared host, interference from other tenants comes in spells that only
// ever add latency and can cover half a run; the lower quartile tracks the
// harness's own cost unless interference covers three quarters of the
// sub-runs, where the median moves as soon as it covers half.
func quietQuartile(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/4]
}
