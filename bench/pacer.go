package main

import "time"

// clock is the run's time base: nanoseconds since the workload began, read
// from the monotonic clock. Tests substitute their own now and sleep.
type clock struct {
	now   func() int64
	sleep func(time.Duration)
}

func realClock() clock {
	t0 := time.Now()
	return clock{
		now:   func() int64 { return int64(time.Since(t0)) },
		sleep: preciseSleep,
	}
}

// pacer issues an open-loop schedule: write i is due at start + i·interval
// whatever happened to the writes before it. A lane that was held up (by
// the system under test or by the scheduler) finds its next writes already
// due and issues them back to back; each is still timed from its own due
// time, so a stall is charged to every write that came due during it and
// not only to the one that hit it (no coordinated omission). How late the
// generator itself ran is kept in late, one sample per write.
type pacer struct {
	clk      clock
	start    int64
	interval int64
	late     samples
}

func newPacer(clk clock, ratePerSec float64) *pacer {
	return &pacer{clk: clk, start: clk.now(), interval: int64(float64(time.Second) / ratePerSec)}
}

// next blocks until write i is due and returns its due time and the time
// it was actually issued.
func (p *pacer) next(i int) (due, issued int64) {
	due = p.start + int64(i)*p.interval
	now := p.clk.now()
	if now < due {
		p.clk.sleep(time.Duration(due - now))
		now = p.clk.now()
	}
	p.late.add(now - due)
	return due, now
}
