package speak

import (
	"math"
	"strings"
	"testing"

	"muve/internal/core"
	"muve/internal/merge"
	"muve/internal/sqldb"
	"muve/internal/usermodel"
	"muve/internal/workload"
)

// oracleInstance is a fixed multi-fact voice instance over NYC311:
// every aggregate function, single- and two-predicate candidates, and
// for each function one candidate whose constant never occurs, so its
// selection is empty.
func oracleInstance(t *testing.T) (*sqldb.DB, *core.Instance) {
	t.Helper()
	tbl, err := workload.Build(workload.NYC311, 3000, 7)
	if err != nil {
		t.Fatal(err)
	}
	db := sqldb.NewDB()
	db.Register(tbl)
	sqls := []string{
		"SELECT count(*) FROM requests WHERE borough = 'Brooklyn'",
		"SELECT count(*) FROM requests WHERE borough = 'Bronx'",
		"SELECT count(*) FROM requests WHERE borough = 'Atlantis'",
		"SELECT sum(response_hours) FROM requests WHERE borough = 'Queens'",
		"SELECT sum(response_hours) FROM requests WHERE borough = 'Atlantis'",
		"SELECT avg(response_hours) FROM requests WHERE agency = 'NYPD' AND year = 2015",
		"SELECT avg(response_hours) FROM requests WHERE agency = 'Nowhere' AND year = 2015",
		"SELECT min(response_hours) FROM requests WHERE status = 'Open'",
		"SELECT min(response_hours) FROM requests WHERE status = 'Gone'",
		"SELECT max(year) FROM requests WHERE channel_type = 'Phone'",
		"SELECT max(year) FROM requests WHERE channel_type = 'Fax'",
	}
	// Skewed probabilities, so a planner speaks likely candidates as
	// value facts and scopes the tail with range facts.
	probs := []float64{0.25, 0.07, 0.06, 0.15, 0.05, 0.08, 0.05, 0.07, 0.05, 0.07, 0.05}
	cands := make([]core.Candidate, len(sqls))
	for i, s := range sqls {
		cands[i] = core.Candidate{Query: q(s), Prob: probs[i]}
	}
	return db, &core.Instance{Candidates: cands, Screen: core.DefaultScreen(), Model: usermodel.DefaultModel()}
}

// TestRenderValuesMatchExec checks the values a voice answer speaks
// against row-at-a-time execution of each candidate, bit for bit,
// including the empty selections.
func TestRenderValuesMatchExec(t *testing.T) {
	db, in := oracleInstance(t)
	fs := FactSet{Facts: Extract(in)}
	values, scan, err := execute(db, in, fs)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Scans != 1 || scan.Candidates != int64(len(in.Candidates)) || scan.Rows != 3000 {
		t.Errorf("scan stats = %+v, want one pass over 3000 rows for %d candidates", scan, len(in.Candidates))
	}
	for qi, c := range in.Candidates {
		res, err := db.Exec(c.Query)
		if err != nil {
			t.Fatal(err)
		}
		want := res.Rows[0][0]
		got, ok := values[qi]
		switch {
		case !ok:
			t.Errorf("%s: no value", c.Query.SQL())
		case got.Valid == want.IsNull():
			t.Errorf("%s: valid=%v, Exec says %v", c.Query.SQL(), got.Valid, want)
		case got.Valid && math.Float64bits(got.Value) != math.Float64bits(want.AsFloat()):
			t.Errorf("%s = %v, Exec says %v", c.Query.SQL(), got.Value, want.AsFloat())
		}
	}
}

// TestRenderEmptySelections checks how value facts over empty
// selections are spoken: COUNT says zero, every other aggregate says
// it has no result.
func TestRenderEmptySelections(t *testing.T) {
	db, in := oracleInstance(t)
	var facts []Fact
	for _, f := range Extract(in) {
		if f.Kind == FactValue {
			facts = append(facts, f)
		}
	}
	va, err := Render(db, in, FactSet{Facts: facts}, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	empty := 0
	for _, f := range facts {
		switch f.Label {
		case "Atlantis", "Nowhere", "Gone", "Fax":
		default:
			continue
		}
		empty++
		want := "The " + spokenTitle(f.Template.Title, f.Label) + " has no result."
		if in.Candidates[f.Covers[0]].Query.Aggs[0].Func == sqldb.AggCount {
			want = "The " + spokenTitle(f.Template.Title, f.Label) + " is 0."
		}
		if !strings.Contains(va.Transcript, want) {
			t.Errorf("transcript lacks %q:\n%s", want, va.Transcript)
		}
	}
	if empty == 0 {
		t.Fatal("no value fact over an empty selection")
	}
}

// renderGolden is the transcript the fixed oracle instance rendered
// when fact queries still ran through merge.BuildPlan (cost-gated
// merges plus one Exec per group or single).
const renderGolden = "The count where borough is Brooklyn is 1303. " +
	"The sum of response_hours where borough is Queens is 4.38e+04. " +
	"The count where borough is Bronx is 655. " +
	"The count where borough is Atlantis is 0. " +
	"Across 2 likely readings, the max of year where channel_type is each predicate value is 2020 throughout."

// TestRenderTranscriptUnchanged pins the full transcript of the fixed
// multi-fact instance: it must equal both the recorded transcript of
// the merge.BuildPlan execution path and a fresh rendering of that path.
func TestRenderTranscriptUnchanged(t *testing.T) {
	db, in := oracleInstance(t)
	fs, _, err := (&Greedy{}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Facts) < 3 {
		t.Fatalf("greedy planned %d facts, want a multi-fact answer", len(fs.Facts))
	}
	va, err := Render(db, in, fs, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]sqldb.Query, len(in.Candidates))
	for i, c := range in.Candidates {
		queries[i] = c.Query
	}
	old, err := merge.BuildPlan(db, queries).Execute(db, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sentences []string
	for _, f := range fs.Facts {
		sentences = append(sentences, phrase(in, f, old))
	}
	if want := strings.Join(sentences, " "); va.Transcript != want {
		t.Errorf("transcript differs from the merge.BuildPlan path:\n got %q\nwant %q", va.Transcript, want)
	}
	if va.Transcript != renderGolden {
		t.Errorf("transcript differs from the recorded one:\n got %q\nwant %q", va.Transcript, renderGolden)
	}
}
