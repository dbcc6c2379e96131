package main

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a, err := newSchedule(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newSchedule(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different schedules")
	}
	c, err := newSchedule(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.hits, c.hits) || reflect.DeepEqual(a.whatIfs, c.whatIfs) {
		t.Fatal("seeds 7 and 8 drew the same traffic")
	}
}

func TestScheduleShape(t *testing.T) {
	const seconds = 5
	s, err := newSchedule(3, seconds)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.hits) != hitRate*seconds {
		t.Errorf("%d repeat asks, want %v", len(s.hits), hitRate*seconds)
	}
	if len(s.whatIfs) != 2*len(whatIfIDs) {
		t.Errorf("%d what-ifs, want two rounds of %d", len(s.whatIfs), len(whatIfIDs))
	}
	for _, asks := range [][]ask{s.hits, s.whatIfs} {
		for i, a := range asks {
			if a.due < 0 || a.due >= seconds*time.Second || (i > 0 && a.due < asks[i-1].due) {
				t.Fatalf("ask %d due at %v: arrivals must be sorted within the run", i, a.due)
			}
		}
	}
	perKind := map[string]int{}
	seeds := map[int64]bool{}
	specs := 0
	for _, a := range s.whatIfs {
		var req jobRequest
		if err := json.Unmarshal(a.body, &req); err != nil {
			t.Fatal(err)
		}
		perKind[req.Experiment]++
		if req.Seed == hotSeed || seeds[req.Seed] {
			t.Errorf("what-if seed %d was asked before", req.Seed)
		}
		seeds[req.Seed] = true
		if len(req.Spec) > 0 {
			specs++
		}
		if !req.Quick || req.Experiment != a.exp {
			t.Errorf("what-if %+v: want a quick run of %s", req, a.exp)
		}
	}
	for _, id := range whatIfIDs {
		if perKind[id] != 2 {
			t.Errorf("%s asked %d times, want 2 (every experiment equally often)", id, perKind[id])
		}
	}
	if specs != len(s.whatIfs)/4 {
		t.Errorf("%d what-ifs carry an inline spec, want one in four (%d)", specs, len(s.whatIfs)/4)
	}
}
