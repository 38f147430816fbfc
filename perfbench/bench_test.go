package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"

	"muve/internal/core"
	"muve/internal/serve"
	"muve/internal/sqldb"
)

// smallServer sets up a workload over a small table of its data set.
func smallServer(t *testing.T, w workloadSpec, rows int) *server {
	t.Helper()
	w.Rows = rows
	in, err := makeInputs(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := setup(w, in.csv)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// plotSample asks until a plot answer shows at least one bar.
func plotSample(t *testing.T, srv *server, utterances ...string) sample {
	t.Helper()
	for _, u := range utterances {
		s := ask(context.Background(), srv.engine, u, false, nil)
		if s.err == nil && len(entries(s.ans.Multiplot)) > 0 {
			return s
		}
	}
	t.Fatal("no utterance produced a multiplot with bars")
	return sample{}
}

func TestGateFailsOnWrongValue(t *testing.T) {
	w, _ := workloadByName("ask-311")
	srv := smallServer(t, w, 5000)
	s := plotSample(t, srv, "how many noise complaints in brooklyn", "what is the count where borough is BROOKLYN")
	g := &gate{}
	g.checkSamples(srv.db, []sample{s})
	if g.failed != 0 {
		t.Fatalf("correct answer failed the gate: %v", g.notes)
	}
	// Flip the lowest mantissa bit of one bar: one ulp off must fail.
	e := &s.ans.Multiplot.Rows[0][0].Entries[0]
	e.Value = math.Float64frombits(math.Float64bits(e.Value) ^ 1)
	g = &gate{}
	g.checkSamples(srv.db, []sample{s})
	if g.failed != 1 {
		t.Fatalf("a wrong bar value passed the gate (failed=%d)", g.failed)
	}
}

func TestGateFailsOnNonOptimalSolve(t *testing.T) {
	w, _ := workloadByName("exact-ads")
	srv := smallServer(t, w, 3000)
	utt := "what is the average age where industry is Gaming"
	plot := plotSample(t, srv, utt, "what is the count where region is Northeast")
	voice := ask(context.Background(), srv.engine, utt, true, nil)
	g := &gate{exact: true}
	g.checkSamples(srv.db, []sample{plot, voice})
	if g.failed != 0 {
		t.Fatalf("optimal answers failed the exact gate: %v", g.notes)
	}

	p, v := *plot.ans, *voice.ans
	p.Trace = nil
	v.Stats.Optimal = false
	badPlot, badVoice := plot, voice
	badPlot.ans, badVoice.ans = &p, &v
	fallback := voice
	fallback.source = serve.SourceFallback
	g = &gate{exact: true}
	g.checkSamples(srv.db, []sample{badPlot, badVoice, fallback})
	if g.failed != 3 {
		t.Fatalf("non-optimal solves passed the exact gate: failed=%d, want 3", g.failed)
	}
}

func TestGateFailsOnTracedMismatch(t *testing.T) {
	w, _ := workloadByName("ask-311")
	srv := smallServer(t, w, 5000)
	s := plotSample(t, srv, "how many noise complaints in brooklyn", "what is the count where borough is BROOKLYN")
	other := s
	ans := *s.ans
	ans.Multiplot.Rows = copyRows(s.ans.Multiplot.Rows)
	other.ans = &ans
	g := &gate{}
	g.checkSame([]sample{s}, []sample{other})
	if g.failed != 0 {
		t.Fatalf("identical answers differ: %v", g.notes)
	}
	ans.Multiplot.Rows[0][0].Entries[0].Label += "x"
	g = &gate{}
	g.checkSame([]sample{s}, []sample{other})
	if g.failed != 1 {
		t.Fatalf("a differing traced multiplot passed the gate (failed=%d)", g.failed)
	}
}

// copyRows deep-copies multiplot rows so a test can alter one copy.
func copyRows(rows [][]core.Plot) [][]core.Plot {
	out := make([][]core.Plot, len(rows))
	for i, r := range rows {
		for _, p := range r {
			p.Entries = append(p.Entries[:0:0], p.Entries...)
			out[i] = append(out[i], p)
		}
	}
	return out
}

func TestNoModeledCost(t *testing.T) {
	db := sqldb.NewDB()
	if err := checkNoModeledCost(db); err != nil {
		t.Fatal(err)
	}
	db.SetScanThroughput(5e6)
	if checkNoModeledCost(db) == nil {
		t.Fatal("a scan throttle passed the check")
	}
	db = sqldb.NewDB()
	db.EnableSketches(0.01)
	if checkNoModeledCost(db) == nil {
		t.Fatal("enabled sketches passed the check")
	}
}

// TestHeldOutSeed runs the gate on a seed not used while tuning the
// benchmark.
func TestHeldOutSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full workloads")
	}
	const seed = 20261017
	for _, name := range []string{"ask-311", "exact-ads"} {
		w, _ := workloadByName(name)
		rep, err := runTimed(w, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Attempted == 0 {
			t.Errorf("%s timed: correct=%v attempted=%d failures %v", name, rep.Correct, rep.Attempted, rep.Notes)
		}
	}
	w, _ := workloadByName("ask-311")
	rep, err := runTraced(w, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Errorf("ask-311 traced: failures %v", rep.Notes)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics and
// workloads the command reports.
func TestBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, command %q %q", i, spec.Workloads[i], w.Name, w.Why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the command %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		got := spec.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, command %+v", i, got, d)
		}
	}
	for i, d := range perLayer {
		got := spec.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, command %+v", i, got, d)
		}
	}
}
