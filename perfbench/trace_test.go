package main

import (
	"testing"
	"time"
)

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Name: "session", Start: 0, End: 100},
		// Two overlapping children: [10,40) and [30,60) cover [10,60).
		{ID: 2, Parent: 1, Name: "mrsnet.run", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "mrsnet.region", Start: 30, End: 60},
		// A child nested inside another child covers nothing new for the
		// root, but is subtracted from its own parent.
		{ID: 4, Parent: 2, Name: "machine.run", Start: 15, End: 25},
		// A child running past its parent's end counts only inside it.
		{ID: 5, Parent: 1, Name: "mrsnet.detach", Start: 90, End: 120},
		// A grandchild that overlaps its sibling but not its parent's edges.
		{ID: 6, Parent: 3, Name: "x.a", Start: 35, End: 45},
		{ID: 7, Parent: 3, Name: "x.b", Start: 40, End: 50},
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		1: 100 - (50 + 10), // [10,60) and [90,100)
		2: 30 - 10,
		3: 30 - 15, // [35,50)
		4: 10,
		5: 30,
		6: 10,
		7: 10,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	totals, calls := spanTotals(spans)
	if totals["session"] != 40 || calls["mrsnet.run"] != 1 {
		t.Errorf("spanTotals: session self %d, mrsnet.run calls %d", totals["session"], calls["mrsnet.run"])
	}
}

func TestLayerOf(t *testing.T) {
	for name, want := range map[string]string{
		"machine.run": "machine", "mrsnet.client_decode": "mrsnet", "cell": "perfbench", "artifact": "perfbench",
	} {
		if got := layerOf(name); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestTracerRecordsParentsAndUnits(t *testing.T) {
	tr := newTracer()
	root := tr.begin("cell", "pass0/eqntott/baseline")
	c := root.child("machine.run")
	time.Sleep(time.Millisecond)
	c.end()
	root.end()
	recs := tr.records()
	if len(recs) != 2 {
		t.Fatalf("%d spans, want 2", len(recs))
	}
	kid, parent := recs[0], recs[1]
	if kid.Parent != parent.ID || kid.Unit != parent.Unit || kid.End-kid.Start < int64(time.Millisecond) {
		t.Errorf("child %+v of parent %+v", kid, parent)
	}
	var off *tracer
	off.begin("cell", "").child("machine.run").end() // tracing off: no-op
}
