package main

import (
	"testing"
	"time"
)

func TestSelfTimeNestedAndSiblings(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []Span{
		{Name: "replay", Req: 1, Parent: -1, Start: ms(0), End: ms(100)},   // 0
		{Name: "sat.solve", Req: 1, Parent: 0, Start: ms(10), End: ms(30)}, // 1: sibling
		{Name: "ground", Req: 1, Parent: 0, Start: ms(40), End: ms(70)},    // 2: sibling
		{Name: "inner", Req: 1, Parent: 2, Start: ms(45), End: ms(55)},     // 3: nested
		{Name: "inner", Req: 1, Parent: 2, Start: ms(50), End: ms(60)},     // 4: overlaps 3
		{Name: "ground", Req: 1, Parent: 0, Start: ms(65), End: ms(110)},   // 5: runs past its parent
		{Name: "replay", Req: 2, Parent: -1, Start: ms(200), End: ms(210)}, // 6: no children
		{Name: "open", Req: 2, Parent: 6, Start: ms(201), End: -1},         // 7: never closed
	}
	rep := Report(spans, "replay")
	want := map[string]time.Duration{
		// 100 minus [10,30] ∪ [40,70] ∪ [65,100] = 100 − 20 − 60; plus 10.
		"replay":    ms(20) + ms(10),
		"sat.solve": ms(20),
		// [40,70] minus [45,60] = 15; plus [65,110] with no children = 45.
		"ground": ms(15) + ms(45),
		"inner":  ms(10) + ms(10),
	}
	for name, w := range want {
		if got := rep.Self[name]; got != w {
			t.Errorf("self(%s) = %v, want %v", name, got, w)
		}
	}
	if _, ok := rep.Self["open"]; ok {
		t.Error("an unclosed span must not count")
	}
	if rep.Roots != ms(110) || rep.Covered != ms(80) {
		t.Errorf("coverage %v of %v, want 80ms of 110ms", rep.Covered, rep.Roots)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *Recorder
	ran := false
	r.Do(1, r.Begin(1, -1, "x"), "y", func() { ran = true })
	if !ran || r.Spans() != nil {
		t.Fatal("nil recorder must run the call and keep no spans")
	}
}

func TestWorkflowTimeSubtractsReplayedLayers(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []Span{
		{Name: "server.exec", Req: 1, Parent: -1, Start: ms(0), End: ms(10)},
		{Name: "replay", Req: 1, Parent: -1, Start: ms(10), End: ms(30)},
		{Name: "mesh.load", Req: 1, Parent: 1, Start: ms(10), End: ms(12)}, // not under Exec
		{Name: "relational.ground", Req: 1, Parent: 1, Start: ms(12), End: ms(14)},
		{Name: "sat.solve", Req: 1, Parent: 1, Start: ms(14), End: ms(18)},
		{Name: "server.exec", Req: 2, Parent: -1, Start: ms(40), End: ms(43)}, // nothing replayed
	}
	// Request 1: 10 − (2 + 4) = 4; request 2: 3. Mean 3.5.
	if got := workflowMs(spans); got != 3.5 {
		t.Fatalf("workflowMs = %v, want 3.5", got)
	}
}
