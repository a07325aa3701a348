package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Timing is one generated request's life. In an open loop, Due is when
// the schedule said to send it, Fired is when the generator handed it
// to a client, Start is when a client began sending and End is when the
// reply was read. In a closed loop, Due = Fired = Start.
type Timing struct {
	Index                  int
	Due, Fired, Start, End time.Time
	Err                    error
	// Steal is the host steal, in clock ticks, from Fired to End.
	Steal int64
	fired int64
}

// Latency is measured from the due time, so a stall that delays later
// requests counts against every one of them.
func (t Timing) Latency() time.Duration { return t.End.Sub(t.Due) }

// Late is how far behind its schedule the generator itself ran when it
// released the request. Waiting for a busy client is not lateness: it
// is the system's queue, and it is part of Latency.
func (t Timing) Late() time.Duration { return t.Fired.Sub(t.Due) }

// Service is the client-observed exchange alone, without queueing.
func (t Timing) Service() time.Duration { return t.End.Sub(t.Start) }

// OpenLoop sends requests at a fixed rate for dur, whatever the system
// does, through at most clients concurrent callers of do. Request i is
// due at start + i/rate. It returns once every sent request completed.
func OpenLoop(ctx context.Context, rate float64, dur time.Duration, clients int, do func(ctx context.Context, i int) error) []Timing {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	interval := time.Duration(float64(time.Second) / rate)
	out := make([]Timing, n)
	// Sized to the number of sends, so the generator never blocks on a
	// busy client and its lateness measures only its own scheduling.
	queue := make(chan int, n)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				out[i].Start = time.Now()
				out[i].Err = do(ctx, i)
				out[i].End = time.Now()
				out[i].Steal = stealTicks() - out[i].fired
			}
		}()
	}
	start := time.Now()
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		out[i].Index, out[i].Due, out[i].Fired, out[i].fired = i, due, time.Now(), stealTicks()
		queue <- i
	}
	close(queue)
	wg.Wait()
	sent := out[:0]
	for _, t := range out {
		if !t.End.IsZero() {
			sent = append(sent, t)
		}
	}
	return sent
}

// ClosedLoop runs clients callers of do back to back for dur: each sends
// its next request only after the previous one completed. Indices are
// handed out in order across clients.
func ClosedLoop(ctx context.Context, dur time.Duration, clients int, do func(ctx context.Context, i int) error) (timings []Timing, elapsed time.Duration) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				t := Timing{Index: i, Start: time.Now(), fired: stealTicks()}
				t.Due, t.Fired = t.Start, t.Start
				t.Err = do(ctx, i)
				t.End = time.Now()
				t.Steal = stealTicks() - t.fired
				mu.Lock()
				timings = append(timings, t)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return timings, time.Since(start)
}
