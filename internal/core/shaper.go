package core

import (
	"time"

	"tailbench/internal/load"
)

// TrafficShaper produces the open-loop arrival schedule (Sec. IV-A): request
// arrival instants drawn from a Poisson process whose rate follows a
// load.Shape — constant for the paper's original methodology, or any
// time-varying profile (diurnal, ramp, spike, burst, trace) realized by
// thinning a non-homogeneous Poisson process. The shaper is open-loop by
// construction — arrival instants are computed up front, independent of when
// (or whether) responses come back, which is what avoids the
// coordinated-omission pitfall of closed-loop load testers.
type TrafficShaper struct {
	shape load.Shape
	seed  int64
}

// NewTrafficShaper returns a shaper that targets a constant request rate.
// A non-positive qps produces a zero-gap schedule (saturation testing).
// It is shorthand for NewShapedTrafficShaper(load.Constant(qps), seed) and
// produces bit-identical schedules to the pre-LoadShape harness.
func NewTrafficShaper(qps float64, seed int64) *TrafficShaper {
	return NewShapedTrafficShaper(load.Constant(qps), seed)
}

// NewShapedTrafficShaper returns a shaper that follows the given arrival
// shape. A nil shape (or one with a non-positive peak rate) produces a
// zero-gap schedule (saturation testing).
func NewShapedTrafficShaper(shape load.Shape, seed int64) *TrafficShaper {
	return &TrafficShaper{shape: shape, seed: seed}
}

// Schedule returns n arrival offsets relative to the start of the run, in
// non-decreasing order.
func (ts *TrafficShaper) Schedule(n int) []time.Duration {
	return load.Schedule(ts.shape, n, ts.seed)
}

// Shape returns the arrival-rate profile the shaper follows.
func (ts *TrafficShaper) Shape() load.Shape { return ts.shape }

// spinWindow is how long before its target WaitUntil stops sleeping and
// starts spinning. On Linux it covers the nanosleep overshoot measured on a
// 2-vCPU host for 100–500µs sleeps — about 62µs p50, 80µs p90 and 130µs
// p99, most of it the kernel's default 50µs timer slack — so the sleep
// almost always wakes before the target and the spin lands on it. A wider
// window buys little precision for proportionally more CPU spent spinning.
// The time.Sleep fallback on other systems keeps the same window.
const spinWindow = 100 * time.Microsecond

// WaitUntil blocks until the target time and returns at once when the
// target has passed. Late arrivals are simply issued immediately: because
// sojourn time is measured from the *scheduled* arrival instant, any lateness
// here is charged to the application as latency instead of silently thinning
// the offered load, so the wait must be precise at the gaps TailBench paces —
// tens to hundreds of microseconds at thousands of QPS.
//
// time.Sleep cannot pace such gaps. On Linux an idle Go scheduler waits for
// its next timer in epoll_wait, whose timeout has millisecond resolution and
// is rounded up to at least 1ms, so a 100–500µs time.Sleep overshoots by
// about 0.8ms at p50 and 1.1–1.3ms at p99 on a 2-vCPU host: most requests
// would leave close to a millisecond late. The Linux wait (pacer_linux.go)
// instead blocks in the nanosleep system call, whose overshoot on the same
// host is about 62µs at p50 and 130µs at p99, until a fixed spin window
// before the target, and busy-waits the rest.
//
// The goroutine is locked to its OS thread for the whole wait, so the sleep
// and the spin run on one thread: after nanosleep returns, the goroutine
// resumes on the thread the kernel woke, never on another thread that picks
// it up from the scheduler's run queue. On the 2-vCPU host locked and
// unlocked waits measured within run-to-run noise of each other; the lock
// costs two field writes per wait.
//
// The wait does not call runtime.Gosched, in the spin or before the sleep.
// A yield queues the pacer behind every runnable goroutine, for up to a full
// scheduling slice. With the TCP reader and writer goroutines of a loopback
// run competing for two cores, a yielding spin measured loopback sojourn p50
// at about 1ms, and one yield before each sleep at 1.3ms, against 0.5ms for
// the time.Sleep pacer and 0.15ms for this one. A plain spin lasts at most
// the spin window (about 40µs when the sleep overshoots by its median) and
// stays preemptible by the runtime, so it cannot starve the goroutines it
// paces. The cost shows with GOMAXPROCS=1: a goroutine in a system call
// keeps its processor until the runtime's monitor retakes it, tens of
// microseconds later, so a goroutine that must run while the pacer sleeps
// (a worker a live cluster or pipeline dispatcher just handed a request)
// starts that much later than it would behind a parked time.Sleep. The
// integrated configuration has no such handoff: the worker that waits
// serves the request itself (see RunIntegrated and
// TestIntegratedHarnessFloor).
//
// Other operating systems keep time.Sleep plus a yielding spin
// (pacer_other.go).
func WaitUntil(target time.Time) {
	if !time.Now().Before(target) {
		return
	}
	waitUntil(target)
}
