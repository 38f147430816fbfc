package muve

import (
	"context"
	"testing"

	"muve/internal/core"
	"muve/internal/obs"
)

func TestAskVoiceEndToEnd(t *testing.T) {
	db := demoDB(t)
	sys, err := New(db, "requests", WithAnswerMode(ModeVoice), WithSolver(SolverILP))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := sys.Ask("how many noise complaints in brooklin")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Mode != ModeVoice {
		t.Errorf("mode %v, want voice", ans.Mode)
	}
	if ans.Voice == nil {
		t.Fatal("voice answer missing")
	}
	if ans.Voice.Transcript == "" || len(ans.Voice.Facts.Facts) == 0 {
		t.Fatalf("empty voice answer: %+v", ans.Voice)
	}
	if ans.Multiplot.NumPlots() != 0 {
		t.Error("voice answer carries a multiplot")
	}
	if ans.Headline == "" {
		t.Error("voice answer lost the headline")
	}
}

// TestAskVoiceReportsScan checks that a voice answer accounts for the
// shared scan that executed its facts, in Answer.Stats.Scan and on the
// voice viz span.
func TestAskVoiceReportsScan(t *testing.T) {
	db := demoDB(t)
	sys, err := New(db, "requests")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("ask")
	ans, err := sys.AskVoiceContext(obs.WithTrace(context.Background(), tr), "how many noise complaints in brooklin")
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	st := ans.Stats.Scan
	if st.Scans != 1 || st.Rows != 5000 || st.Candidates < 1 {
		t.Fatalf("voice scan stats = %+v, want one pass over 5000 rows", st)
	}
	want := map[string]int64{"scans": st.Scans, "rows": st.Rows, "candidates": st.Candidates}
	for _, sp := range tr.Spans() {
		if sp.Stage != "viz" {
			continue
		}
		for _, a := range sp.Attrs {
			if w, ok := want[a.Key]; ok {
				if a.Value() != w {
					t.Errorf("viz span %s = %v, want %d", a.Key, a.Value(), w)
				}
				delete(want, a.Key)
			}
		}
	}
	if len(want) != 0 {
		t.Errorf("viz span lacks attributes %v", want)
	}
}

func TestAskVoiceWarmStartAcrossUtterances(t *testing.T) {
	db := demoDB(t)
	sys, err := New(db, "requests", WithSolver(SolverILP), WithWarmStart(true))
	if err != nil {
		t.Fatal(err)
	}
	first, err := sys.AskVoice("how many noise complaints in brooklin")
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.WarmStart != "" {
		t.Errorf("first utterance warm start %q, want cold", first.Stats.WarmStart)
	}
	second, err := sys.AskVoiceContext(context.Background(),
		"how many noise complaints in brooklyn", &first.Voice.Facts)
	if err != nil {
		t.Fatal(err)
	}
	switch second.Stats.WarmStart {
	case core.WarmHit, core.WarmPartial, core.WarmNone:
	default:
		t.Errorf("second utterance warm start %q, want classified", second.Stats.WarmStart)
	}
}

func TestAskVoiceGreedySolver(t *testing.T) {
	db := demoDB(t)
	sys, err := New(db, "requests", WithSpeakWords(20))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := sys.AskVoice("how many noise complaints in brooklin")
	if err != nil {
		t.Fatal(err)
	}
	if w, _, _, _ := ans.Voice.Facts.Totals(); w > 20 {
		t.Errorf("voice answer estimates %d words over the 20-word budget", w)
	}
}

func TestParseAnswerMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want AnswerMode
		err  bool
	}{
		{"", ModePlot, false},
		{"plot", ModePlot, false},
		{"voice", ModeVoice, false},
		{"hologram", ModePlot, true},
	} {
		got, err := ParseAnswerMode(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseAnswerMode(%q) = %v, %v", tc.in, got, err)
		}
	}
}
