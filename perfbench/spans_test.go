package main

import (
	"testing"
	"time"
)

func msd(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// Self time subtracts the union of the children, so overlapping
// children (concurrent shards) are not subtracted twice, and a child
// sticking out of its parent only counts inside it.
func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: msd(0), End: msd(100)},
		{ID: 2, Parent: 1, Name: "a", Start: msd(10), End: msd(40)},
		{ID: 3, Parent: 1, Name: "b", Start: msd(30), End: msd(60)},  // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Start: msd(90), End: msd(120)}, // 10 inside root
		{ID: 5, Parent: 2, Name: "a1", Start: msd(15), End: msd(20)},
		{ID: 6, Parent: 2, Name: "a2", Start: msd(18), End: msd(25)}, // overlaps a1 by 2
	}
	self := SelfTimes(spans)
	want := map[int]time.Duration{
		1: msd(100 - 50 - 10), // a∪b = [10,60), c clipped to [90,100)
		2: msd(30 - 10),       // a1∪a2 = [15,25)
		3: msd(30),
		4: msd(30),
		5: msd(5),
		6: msd(7),
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %v, want %v", id, self[id], w)
		}
	}
}

func TestSelfTimesSumToRootWithoutOverlap(t *testing.T) {
	rec := NewRecorder()
	root := rec.AddOffsets(0, "op.queue", "r1", msd(0), msd(50))
	client := rec.AddOffsets(root, "op.client", "r1", msd(5), msd(50))
	h := rec.AddOffsets(client, "op.handler", "r1", msd(10), msd(45))
	rec.AddOffsets(h, "op.work", "r1", msd(12), msd(40))
	self := SelfByName(rec.Spans())
	sum := 0.0
	for _, v := range self {
		sum += v
	}
	if sum != 50 {
		t.Errorf("self times sum to %v ms, want the root's 50 ms", sum)
	}
	if self["op.queue"] != 5 || self["op.client"] != 10 || self["op.handler"] != 7 || self["op.work"] != 28 {
		t.Errorf("self times = %v", self)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var rec *Recorder
	if id := rec.Add(0, "x", "r", time.Now(), time.Now()); id != 0 {
		t.Errorf("nil recorder returned span %d", id)
	}
	if rec.Spans() != nil {
		t.Error("nil recorder has spans")
	}
}
