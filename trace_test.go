package muve

import (
	"context"
	"testing"
	"time"

	"muve/internal/obs"
)

// TestAskContextTraceStages drives one traced AskContext through the
// ILP-backed pipeline and asserts every stage recorded exactly one
// span, with the solver span carrying its internal search counters.
func TestAskContextTraceStages(t *testing.T) {
	db := demoDB(t)
	sys, err := New(db, "requests",
		WithSolver(SolverILP),
		WithILPTimeout(2*time.Second),
		WithMaxCandidates(8),
		WithWidth(600))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("ask")
	tr.ID = "test-1"
	ctx := obs.WithTrace(context.Background(), tr)
	if _, err := sys.AskContext(ctx, "how many noise complaints in brooklin"); err != nil {
		t.Fatal(err)
	}
	tr.Finish()

	byStage := map[string]int{}
	var solver obs.Span
	for _, sp := range tr.Spans() {
		byStage[sp.Stage]++
		if sp.Stage == "solver" {
			solver = sp
		}
	}
	for _, stage := range []string{"speech", "phonetic", "nlq", "solver", "progressive", "viz"} {
		if byStage[stage] != 1 {
			t.Errorf("stage %q recorded %d spans, want exactly 1 (all: %v)", stage, byStage[stage], byStage)
		}
	}

	// The ILP solver span must expose its internal search effort.
	attrs := map[string]any{}
	for _, a := range solver.Attrs {
		attrs[a.Key] = a.Value()
	}
	for _, key := range []string{"bb_nodes", "lp_solves", "simplex_iters", "root_iters", "incumbents"} {
		v, ok := attrs[key].(int64)
		if !ok || v < 1 {
			t.Errorf("solver attr %q = %v, want >= 1", key, attrs[key])
		}
	}
	if attrs["root_iters"].(int64) > attrs["simplex_iters"].(int64) {
		t.Errorf("root_iters %v exceeds simplex_iters %v", attrs["root_iters"], attrs["simplex_iters"])
	}
	if attrs["solver"] != "ILP" {
		t.Errorf("solver attr = %v, want ILP", attrs["solver"])
	}
}

// TestAskVoiceTraceCarriesSolverCounters checks that an ILP voice ask's
// "speak" span reports the fact-set search the same way the plot
// "solver" span reports the multiplot search: nodes, LP solves, simplex
// iterations and the root relaxation's share of them.
func TestAskVoiceTraceCarriesSolverCounters(t *testing.T) {
	db := demoDB(t)
	sys, err := New(db, "requests",
		WithAnswerMode(ModeVoice),
		WithSolver(SolverILP),
		WithILPTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("ask")
	ctx := obs.WithTrace(context.Background(), tr)
	ans, err := sys.AskContext(ctx, "how many noise complaints in brooklin")
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	if ans.Stats.LPSolves == 0 {
		t.Fatal("voice ask solved no LP relaxation; the fact-set ILP did not run")
	}
	var speak *obs.Span
	for _, sp := range tr.Spans() {
		if sp.Stage == "speak" {
			sp := sp
			speak = &sp
		}
	}
	if speak == nil {
		t.Fatal("no speak span")
	}
	attrs := map[string]any{}
	for _, a := range speak.Attrs {
		attrs[a.Key] = a.Value()
	}
	want := map[string]int{
		"bb_nodes":      ans.Stats.Nodes,
		"lp_solves":     ans.Stats.LPSolves,
		"simplex_iters": ans.Stats.SimplexIters,
		"root_iters":    ans.Stats.RootIters,
	}
	for key, n := range want {
		if v, ok := attrs[key].(int64); !ok || v != int64(n) || v < 1 {
			t.Errorf("speak attr %q = %v, want %d (>= 1)", key, attrs[key], n)
		}
	}
	if attrs["solver"] == nil || attrs["optimal"] == nil {
		t.Errorf("speak span lacks solver/optimal attrs: %v", attrs)
	}
}

// TestAskContextUntraced exercises the nil fast path: no trace in the
// context must still answer correctly.
func TestAskContextUntraced(t *testing.T) {
	db := demoDB(t)
	sys, err := New(db, "requests", WithWidth(1024))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := sys.AskContext(context.Background(), "how many noise complaints in brooklin")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Multiplot.Rows) == 0 {
		t.Fatal("empty multiplot")
	}
}
