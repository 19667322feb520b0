//go:build linux

package core

import (
	"runtime"
	"syscall"
	"time"
)

// waitUntil is the Linux WaitUntil: nanosleep to the spin window, then a
// plain busy-wait, on a locked OS thread (see WaitUntil for why).
func waitUntil(target time.Time) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for {
		remaining := time.Until(target)
		if remaining <= spinWindow {
			break
		}
		// An interrupted sleep (EINTR) re-enters the loop, which recomputes
		// what is left from the clock.
		ts := syscall.NsecToTimespec((remaining - spinWindow).Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil)
	}
	for time.Now().Before(target) {
	}
}
