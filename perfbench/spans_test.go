package main

import "testing"

func TestSelfTimesSubtractCoveredIntervals(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "event", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "a", Start: 20, End: 50},   // overlaps the first child
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120},  // runs past its parent
		{ID: 5, Parent: 4, Name: "c", Start: 100, End: 110}, // a grandchild
	}
	got := selfTimes(spans)
	want := map[string]int64{"event": 100 - 40 - 10, "a": 20 + 30, "b": 30 - 10, "c": 10}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self(%s) = %d, want %d", k, got[k], v)
		}
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	if id := r.add("event", 0, 1, 0, 1); id != 0 {
		t.Errorf("nil recorder returned id %d", id)
	}
	if err := r.write("unused"); err != nil {
		t.Errorf("nil recorder write: %v", err)
	}
}
