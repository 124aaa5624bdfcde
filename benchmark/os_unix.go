//go:build unix

package main

import (
	"runtime"
	"syscall"
	"time"
)

// A scheduled generator (live_mix's writer) waits with nanosleep on a
// thread of its own. time.Sleep goes through the runtime's network
// poller, whose timeout has millisecond resolution: it oversleeps by
// ~0.8 ms on this host, several times what applying a batch takes, and
// that would be added to every latency timed from the due time.
// nanosleep oversleeps by ~0.09 ms.

// pinGenerator gives the calling goroutine its own thread for waitFor.
func pinGenerator() { runtime.LockOSThread() }

// waitFor blocks for d.
func waitFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// processCPU is the user and system CPU time this process has used.
// Unlike wall-clock latency it does not count the time a neighbour on
// the host had the processor, so cpu_us_per_op repeats between runs
// where the wall-clock metrics wander.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
