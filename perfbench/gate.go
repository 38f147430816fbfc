package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"muve"
	"muve/internal/core"
	"muve/internal/serve"
	"muve/internal/sqldb"
)

// maxNotes bounds the failure descriptions a gate keeps for the report.
const maxNotes = 8

// gate is the correctness check of a run. Every failing request counts
// once in failed; notes describe the first few failures.
type gate struct {
	// exact demands that every plot and fact-set solve proved
	// optimality on the planning rung (no fallback).
	exact  bool
	failed int
	notes  []string
	// ties counts traced answers that differ from the untraced answer
	// while both are proven optimal at a bit-identical objective: the
	// parallel branch-and-bound returns whichever tied optimum it
	// discovers (ilp.Options.Workers promises a canonical incumbent only
	// for a unique optimum), so these are reported, not failed.
	ties int
}

func (g *gate) fail(format string, args ...any) {
	g.failed++
	if len(g.notes) < maxNotes {
		g.notes = append(g.notes, fmt.Sprintf(format, args...))
	}
}

// checkSamples gates every request of the given phases: it must have
// answered, used no aggregate sketch, proven optimality on exact
// workloads, and (for plots) carry bar values bit-identical to
// row-at-a-time sqldb.DB.Exec of each bar's candidate query.
func (g *gate) checkSamples(db *sqldb.DB, phases ...[]sample) {
	values := oracle(db, phases)
	for _, samples := range phases {
		for _, s := range samples {
			if err := g.problem(s, values); err != nil {
				g.fail("%s %q: %v", modeName(s.voice), s.transcript, err)
			}
		}
	}
}

// problem returns why one request fails the gate, or nil.
func (g *gate) problem(s sample, values map[string]oracleValue) error {
	if s.err != nil {
		return s.err
	}
	ans := s.ans
	if n := ans.Stats.Scan.SketchHits; n != 0 {
		return fmt.Errorf("%d values came from aggregate sketches", n)
	}
	if g.exact {
		switch s.source {
		case serve.SourcePlanned, serve.SourceCache, serve.SourceCoalesced:
		default:
			return fmt.Errorf("served by the %s rung, not the exact planner", s.source)
		}
		if !optimal(ans) {
			return fmt.Errorf("solve not proven optimal")
		}
	}
	if s.voice {
		if ans.Voice == nil {
			return fmt.Errorf("voice request answered without a voice answer")
		}
		return nil
	}
	for _, e := range entries(ans.Multiplot) {
		sql := ans.Candidates[e.Query].Query.SQL()
		want := values[sql]
		if want.err != nil {
			return fmt.Errorf("oracle %s: %v", sql, want.err)
		}
		if !sameValue(e.Value, want.v) {
			return fmt.Errorf("%s = %v, row-at-a-time Exec says %v", sql, e.Value, want.v)
		}
	}
	return nil
}

// optimal reports whether an answer's solve proved optimality: the
// presentation trace's early stop for plots, the planner stats for
// voice.
func optimal(ans *muve.Answer) bool {
	if ans.Mode == muve.ModeVoice {
		return ans.Stats.Optimal
	}
	return ans.Trace != nil && ans.Trace.EarlyStop == "optimal"
}

// checkSame gates the traced run against the untraced one: the same
// transcript must yield the same multiplot (bit for bit) or the same
// spoken transcript, except that two proven optima at a bit-identical
// objective count as a tie (see gate.ties).
func (g *gate) checkSame(untraced, traced []sample) {
	if len(untraced) != len(traced) {
		g.fail("traced run answered %d requests, untraced %d", len(traced), len(untraced))
		return
	}
	for i, u := range untraced {
		t := traced[i]
		if u.err != nil || t.err != nil || u.transcript != t.transcript || u.voice != t.voice {
			continue // already failed on its own, or a misaligned pair
		}
		var err error
		uCost, tCost := u.ans.Stats.Cost, t.ans.Stats.Cost
		if u.voice {
			uCost, tCost = u.ans.Voice.Objective, t.ans.Voice.Objective
			if u.ans.Voice.Transcript != t.ans.Voice.Transcript {
				err = fmt.Errorf("traced transcript %q, untraced %q", t.ans.Voice.Transcript, u.ans.Voice.Transcript)
			}
		} else {
			err = sameMultiplot(u.ans.Multiplot, t.ans.Multiplot)
		}
		switch {
		case err == nil:
		case g.exact && optimal(u.ans) && optimal(t.ans) && sameValue(uCost, tCost):
			g.ties++
		default:
			g.fail("%s %q: traced answer differs: %v", modeName(u.voice), u.transcript, err)
		}
	}
}

// sameMultiplot compares two multiplots entry by entry, values by bits.
func sameMultiplot(a, b core.Multiplot) error {
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("%d rows vs %d", len(a.Rows), len(b.Rows))
	}
	for r := range a.Rows {
		if len(a.Rows[r]) != len(b.Rows[r]) {
			return fmt.Errorf("row %d: %d plots vs %d", r, len(a.Rows[r]), len(b.Rows[r]))
		}
		for p := range a.Rows[r] {
			pa, pb := a.Rows[r][p], b.Rows[r][p]
			if pa.Template != pb.Template || len(pa.Entries) != len(pb.Entries) {
				return fmt.Errorf("plot %d.%d: %q vs %q", r, p, pa.Template.Title, pb.Template.Title)
			}
			for e := range pa.Entries {
				ea, eb := pa.Entries[e], pb.Entries[e]
				if ea.Query != eb.Query || ea.Label != eb.Label || ea.Highlighted != eb.Highlighted ||
					ea.Approximate != eb.Approximate || !sameValue(ea.Value, eb.Value) {
					return fmt.Errorf("plot %q bar %q: %+v vs %+v", pa.Template.Title, ea.Label, ea, eb)
				}
			}
		}
	}
	return nil
}

// sameValue is bit identity, with every NaN (a missing value) equal.
func sameValue(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// entries lists a multiplot's bars.
func entries(m core.Multiplot) []core.Entry {
	var out []core.Entry
	for _, row := range m.Rows {
		for _, p := range row {
			out = append(out, p.Entries...)
		}
	}
	return out
}

// oracleValue is a bar value computed row at a time.
type oracleValue struct {
	v   float64
	err error
}

// oracle executes every distinct candidate query shown in the plot
// answers of the phases with sqldb.DB.Exec, the row-at-a-time executor
// (the database is serial, so Exec never splits a scan), one goroutine
// per CPU. Results are keyed by SQL text.
func oracle(db *sqldb.DB, phases [][]sample) map[string]oracleValue {
	index := map[string]int{}
	var queries []sqldb.Query
	for _, samples := range phases {
		for _, s := range samples {
			if s.voice || s.err != nil {
				continue
			}
			for _, e := range entries(s.ans.Multiplot) {
				q := s.ans.Candidates[e.Query].Query
				if _, ok := index[q.SQL()]; !ok {
					index[q.SQL()] = len(queries)
					queries = append(queries, q)
				}
			}
		}
	}
	vals := make([]oracleValue, len(queries))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(queries); i += workers {
				vals[i] = execScalar(db, queries[i])
			}
		}(w)
	}
	wg.Wait()
	out := make(map[string]oracleValue, len(queries))
	for sql, i := range index {
		out[sql] = vals[i]
	}
	return out
}

// execScalar runs one candidate query row at a time; NULL is NaN, as
// the multiplot shows a missing value.
func execScalar(db *sqldb.DB, q sqldb.Query) oracleValue {
	res, err := db.Exec(q)
	if err != nil {
		return oracleValue{err: err}
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return oracleValue{err: fmt.Errorf("result is %dx%d, not scalar", len(res.Rows), len(res.Cols))}
	}
	if v := res.Rows[0][0]; !v.IsNull() {
		return oracleValue{v: v.AsFloat()}
	}
	return oracleValue{v: math.NaN()}
}

func modeName(voice bool) string {
	if voice {
		return "voice"
	}
	return "plot"
}
