//go:build linux

package main

import (
	"syscall"
	"time"
)

// preciseSleep sleeps for d with the kernel's timer. time.Sleep will not do
// for the sub-millisecond waits of the pacer and the read lane: a Go
// program whose threads are idle waits for its next timer in epoll, whose
// timeout is in whole milliseconds, so time.Sleep(300µs) returns after
// about 1.1 ms when nothing else wakes the process and sooner when network
// traffic does — the generator's lateness would then depend on how busy
// the system under test is. nanosleep overshoots by well under 0.1 ms
// either way.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}
