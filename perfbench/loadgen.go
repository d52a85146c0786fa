package main

import (
	"context"
	"sync"
	"time"
)

// outcome is one open-loop request's timeline, each instant measured
// from the start of the run.
type outcome struct {
	Due   time.Duration // when the schedule said to send it
	Sent  time.Duration // when the generator queued it
	Start time.Duration // when a connection picked it up
	Done  time.Duration // when its response was fully read
	Err   error
}

// Latency is measured from when the generator queued the request, on
// its schedule, not from when a connection picked it up: a stall that
// delays later requests is charged to them as queue time (no
// coordinated omission). The generator's own lateness (Late) is left
// out, so a server-side change is not diluted by the timer's
// granularity; it is reported on its own.
func (o outcome) Latency() time.Duration { return o.Done - o.Sent }

// Late is how far behind schedule the generator itself ran.
func (o outcome) Late() time.Duration { return o.Sent - o.Due }

// Queued is how long the request waited for a free connection.
func (o outcome) Queued() time.Duration { return o.Start - o.Sent }

// runOpenLoop sends n requests at the times due(i) gives, whatever the
// state of earlier ones, over conns concurrent connections. do performs
// request i. It returns once every request has finished.
func runOpenLoop(ctx context.Context, n int, due func(i int) time.Duration, conns int,
	do func(ctx context.Context, i int) error) []outcome {
	out := make([]outcome, n)
	// The queue holds every request, so the generator never blocks on a
	// busy connection: a backlog shows as queue time, not as lateness.
	queue := make(chan int, n)
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				out[i].Start = time.Since(t0)
				out[i].Err = do(ctx, i)
				out[i].Done = time.Since(t0)
			}
		}()
	}
	for i := 0; i < n; i++ {
		d := due(i)
		if wait := d - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		out[i].Due = d
		out[i].Sent = time.Since(t0)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// genHealth reports whether a run's latencies can be trusted: the most
// the generator fell behind its schedule, and the p99 time requests
// waited for a free connection, both in milliseconds.
func genHealth(outs []outcome) (lateMax, queueP99 float64) {
	var late, queued []float64
	for _, o := range outs {
		late = append(late, ms(o.Late()))
		queued = append(queued, ms(o.Queued()))
	}
	return maxOf(late), quantile(queued, 0.99)
}
