//go:build !linux

package main

import "time"

// preciseSleep falls back to the runtime's timers where nanosleep is not
// at hand; sub-millisecond waits then round up to about a millisecond in
// an otherwise idle process.
func preciseSleep(d time.Duration) { time.Sleep(d) }
