package main

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

func TestTimingArithmetic(t *testing.T) {
	due := time.Unix(100, 0)
	tm := Timing{
		Due:   due,
		Fired: due.Add(2 * time.Millisecond),
		Start: due.Add(30 * time.Millisecond),
		End:   due.Add(80 * time.Millisecond),
	}
	if tm.Latency() != 80*time.Millisecond {
		t.Errorf("latency = %v, want 80ms from the due time", tm.Latency())
	}
	if tm.Late() != 2*time.Millisecond {
		t.Errorf("late = %v, want 2ms", tm.Late())
	}
	if tm.Service() != 50*time.Millisecond {
		t.Errorf("service = %v, want 50ms", tm.Service())
	}
}

// With one client slower than the schedule, the open loop keeps
// releasing requests on time (lateness stays small) while latency,
// measured from each due time, grows with the queue the stall built.
func TestOpenLoopCountsQueueingFromDueTime(t *testing.T) {
	const service = 30 * time.Millisecond
	var calls atomic.Int32
	timings := OpenLoop(context.Background(), 100, 100*time.Millisecond, 1, func(context.Context, int) error {
		calls.Add(1)
		time.Sleep(service)
		return nil
	})
	if len(timings) != 10 || calls.Load() != 10 {
		t.Fatalf("sent %d requests (%d calls), want 10", len(timings), calls.Load())
	}
	last := timings[len(timings)-1]
	for _, tm := range timings {
		if tm.Latency() < tm.Service() {
			t.Errorf("request %d: latency %v shorter than its service %v", tm.Index, tm.Latency(), tm.Service())
		}
		if tm.Late() > 50*time.Millisecond {
			t.Errorf("request %d: generator %v late; it must not wait for the busy client", tm.Index, tm.Late())
		}
	}
	// The 10th request is due at 90ms but cannot start before 9 services
	// (270ms) have run: its latency includes ~180ms of queueing.
	if last.Latency() < 9*service+service-90*time.Millisecond {
		t.Errorf("last latency %v does not include the queue", last.Latency())
	}
	if last.Start.Sub(last.Fired) < 150*time.Millisecond {
		t.Errorf("last request queued %v, want the backlog the slow client built", last.Start.Sub(last.Fired))
	}
}

func TestClosedLoopWaitsForEachReply(t *testing.T) {
	var inflight, peak atomic.Int32
	timings, elapsed := ClosedLoop(context.Background(), 60*time.Millisecond, 2, func(context.Context, int) error {
		n := inflight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
		inflight.Add(-1)
		return nil
	})
	if peak.Load() > 2 {
		t.Errorf("%d requests in flight with 2 clients", peak.Load())
	}
	if len(timings) < 4 || elapsed < 60*time.Millisecond {
		t.Errorf("%d requests in %v", len(timings), elapsed)
	}
	for _, tm := range timings {
		if tm.Late() != 0 || tm.Latency() != tm.Service() {
			t.Errorf("closed-loop request %d has queueing or lateness", tm.Index)
		}
	}
}
