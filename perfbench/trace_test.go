package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 40},  // overlaps span 2
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "grandchild", Start: 12, End: 14},
	}
	want := map[string]layerTime{
		"parent":     {Name: "parent", Count: 1, Total: 100, Self: 100 - 30 - 10},
		"child":      {Name: "child", Count: 3, Total: 20 + 20 + 30, Self: 18 + 20 + 30},
		"grandchild": {Name: "grandchild", Count: 1, Total: 2, Self: 2},
	}
	got := selfTimes(spans)
	if len(got) != len(want) {
		t.Fatalf("got %d layers, want %d", len(got), len(want))
	}
	for _, lt := range got {
		if lt != want[lt.Name] {
			t.Errorf("%s: got %+v, want %+v", lt.Name, lt, want[lt.Name])
		}
	}
}

func TestDisabledTracerRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	tr.end(tr.begin("x", 0, 1))
	if len(tr.spans) != 0 {
		t.Fatalf("disabled tracer recorded %d spans", len(tr.spans))
	}
	on := newTracer(true)
	id := on.begin("x", 0, 1)
	time.Sleep(time.Millisecond)
	on.end(id)
	if len(on.spans) != 1 || on.spans[0].End <= on.spans[0].Start {
		t.Fatalf("enabled tracer recorded %+v", on.spans)
	}
}
