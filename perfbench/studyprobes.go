package main

import (
	"fmt"
	"time"

	"tailbench"
	"tailbench/internal/load"
	"tailbench/internal/stats"
	"tailbench/internal/workload"
	"tailbench/sweep"
)

// studyProbes runs one traced study for a live workload's traced run, so
// that every traced run reports the simulation layers too.
func studyProbes(b *bench, oc *outcome, parent int) error {
	spec := newStudySpec(b.opts.seed, b.opts.short)
	su, err := setupStudy(spec, mgkSample())
	if err != nil {
		return err
	}
	sp := b.tr.begin("bench/study", parent, 0)
	st, err := runStudy(b, spec, su, sp)
	b.tr.end(sp)
	if err != nil {
		return err
	}
	oc.check(checkStudy(su, st))
	var times phaseTimes
	times.add(st)
	return layerProbesSim(b, oc, parent, spec, su, st, &times)
}

// layerProbesSim reports the simulation layers of a study: phase wall
// times (the fastest of times' repetitions) and exact counts (st's
// searches summed), then per-event engine cost from a sequential per-cell
// pass and the schedule, summary and window costs at cell size.
func layerProbesSim(b *bench, oc *outcome, parent int, spec studySpec, su *studySetup, st *studyResult, times *phaseTimes) error {
	var events int64
	for _, r := range st.grid.Reports {
		events += r.EventsSimulated
	}
	ps := st.planStats()
	oc.perLayer["sweep.grid_wall_s"] = times.gridWall().Seconds()
	oc.perLayer["plan.search_wall_s"] = times.planWall().Seconds()
	oc.perLayer["sim.mgk_wall_s"] = times.mgkWall().Seconds()
	oc.perLayer["sweep.events"] = float64(events)
	oc.perLayer["sweep.alloc_bytes_per_event"] = float64(st.gridAlloc) / float64(events)
	oc.perLayer["plan.events_simulated"] = float64(ps.EventsSimulated)
	oc.perLayer["plan.cells_run"] = float64(ps.CellsRun)
	oc.perLayer["plan.cells_pruned"] = float64(ps.CellsPruned)
	oc.perLayer["plan.cells_memoized"] = float64(ps.CellsMemoized)
	oc.perLayer["sim.mgk_ns_per_req"] = float64(times.mgkWall().Nanoseconds()) / float64(st.mgkReqs)

	// Sequential pass: every grid cell through RunCell on one arena, in
	// RunGrid's cell order, timed one by one.
	g := spec.grid.Normalized()
	sp := b.tr.begin("sweep/RunCell.sequential", parent, -1)
	var seq [2]time.Duration // fan-out 1 (cluster), fan-out > 1 (pipeline)
	var seqEvents [2]int64
	reports := make([]sweep.SimReport, 0, st.grid.Cells)
	idx := 0
	for _, pol := range g.Axes.Policies {
		for _, sh := range g.Axes.Shapes {
			for _, ctrl := range g.Axes.Controllers {
				for _, k := range g.Axes.FanOuts {
					for rep := 0; rep < g.Reps; rep++ {
						cell := sweep.Cell{Index: idx, Rep: rep, Seed: workload.SplitSeed(g.Seed, int64(idx)),
							Policy: pol, Shape: sh, Controller: ctrl, FanOut: k}
						engine, e := "cluster", 0
						if k > 1 {
							engine, e = "pipeline", 1
						}
						start := time.Now()
						r, err := sweep.RunCell(g, cell, sweep.CellLimits{}, su.arena)
						end := time.Now()
						if err != nil {
							return fmt.Errorf("sequential cell %d: %w", idx, err)
						}
						b.tr.add(engine+"/sweep.RunCell", sp, int64(idx), start, end)
						seq[e] += end.Sub(start)
						seqEvents[e] += r.EventsSimulated
						reports = append(reports, r)
						idx++
					}
				}
			}
		}
	}
	b.tr.end(sp)
	if d, want := gridDigest(reports), gridDigest(st.grid.Reports); d != want {
		oc.check(fmt.Errorf("sequential RunCell digest %016x, RunGrid %016x", d, want))
	}
	oc.perLayer["cluster.ns_per_event"] = float64(seq[0].Nanoseconds()) / float64(seqEvents[0])
	oc.perLayer["pipeline.ns_per_event"] = float64(seq[1].Nanoseconds()) / float64(seqEvents[1])
	oc.perLayer["sweep.parallel_eff"] = float64(seq[0]+seq[1]) / (float64(times.gridWall()) * float64(g.Workers))

	// load: the diurnal cell schedule at cell size.
	n := g.Requests + g.Requests/10
	shape := tailbench.Diurnal(600, 250, 2*time.Second)
	reps := 2000000/n + 1
	sp = b.tr.begin("load/Schedule", parent, -1)
	start := time.Now()
	var sched []time.Duration
	for i := 0; i < reps; i++ {
		sched = load.Schedule(shape, n, workload.SplitSeed(g.Seed, int64(i)))
	}
	oc.perLayer["load.schedule_ns_per_arrival"] = float64(time.Since(start).Nanoseconds()) / float64(reps*n)
	b.tr.end(sp)

	// stats: sort + summary + CDF, and windows, on cell-sized samples.
	r := workload.NewRand(workload.SplitSeed(g.Seed, 41))
	sample := make([]time.Duration, n)
	timed := make([]stats.TimedSample, n)
	for i := range sample {
		sample[i] = time.Duration(r.ExpFloat64() * float64(g.ServiceMean))
		timed[i] = stats.TimedSample{At: sched[i], Sojourn: sample[i]}
	}
	work := make([]time.Duration, n)
	sp = b.tr.begin("stats/Summary", parent, -1)
	start = time.Now()
	for i := 0; i < reps; i++ {
		copy(work, sample)
		stats.SortDurations(work)
		_ = stats.SummaryFromSorted(work)
		_ = stats.CDFFromSorted(work)
	}
	oc.perLayer["stats.summary_ns_per_sample"] = float64(time.Since(start).Nanoseconds()) / float64(reps*n)
	b.tr.end(sp)
	sp = b.tr.begin("stats/WindowSeries", parent, -1)
	start = time.Now()
	for i := 0; i < reps; i++ {
		_ = stats.WindowSeries(timed, simWindow)
	}
	oc.perLayer["stats.window_ns_per_sample"] = float64(time.Since(start).Nanoseconds()) / float64(reps*n)
	b.tr.end(sp)
	return nil
}
