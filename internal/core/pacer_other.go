//go:build !linux

package core

import (
	"runtime"
	"time"
)

// waitUntil is the portable WaitUntil: time.Sleep to the spin window, then
// a busy-wait that yields between polls.
func waitUntil(target time.Time) {
	for {
		remaining := time.Until(target)
		if remaining <= spinWindow {
			break
		}
		time.Sleep(remaining - spinWindow)
	}
	for time.Now().Before(target) {
		runtime.Gosched()
	}
}
