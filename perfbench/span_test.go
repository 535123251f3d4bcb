package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		// A root of 100 with two overlapping children covering
		// [10, 50) and one child sticking out past its end.
		{ID: 1, Name: "block", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// A grandchild inside b is b's child, not block's.
		{ID: 5, Parent: 3, Name: "leaf", Start: 25, End: 35},
		// A second root of the same name adds up.
		{ID: 6, Name: "block", Start: 200, End: 210},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"block": 100 - 40 - 10 + 10, // [10,50) and [90,100) covered
		"a":     20,
		"b":     30 - 10,
		"c":     30,
		"leaf":  10,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, got[name], w)
		}
	}
}

func TestCoveredDisjointAndNested(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 60, End: 70}, {Start: 0, End: 10}, {Start: 62, End: 65}, {Start: 70, End: 80}}
	if got := covered(parent, kids); got != 30 {
		t.Errorf("covered = %d, want 30", got)
	}
	if got := covered(parent, nil); got != 0 {
		t.Errorf("covered by no children = %d, want 0", got)
	}
}

func TestRecorderNests(t *testing.T) {
	r := newRecorder()
	root := r.begin("root", 0)
	r.timed("child", root, func() { time.Sleep(time.Millisecond) })
	r.end(root)
	self := selfTimes(r.spans)
	if self["child"] < time.Millisecond {
		t.Errorf("child self time %v below its sleep", self["child"])
	}
	total := time.Duration(r.spans[0].End - r.spans[0].Start)
	if self["root"]+self["child"] != total {
		t.Errorf("self times %v + %v do not add up to the root's %v", self["root"], self["child"], total)
	}
}
