package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"muve"
	"muve/internal/core"
	"muve/internal/merge"
	"muve/internal/nlq"
	"muve/internal/progressive"
	"muve/internal/resilience"
	"muve/internal/serve"
	"muve/internal/speak"
	"muve/internal/sqldb"
	"muve/internal/usermodel"
)

// layer names a span the traced run records around one call into a
// module of the program.
type layer int

const (
	layerTranslate   layer = iota // nlq.Translator.Translate
	layerCandidates               // nlq.Generator.CandidatesContext
	layerSolve                    // core.GreedySolver / core.ILPSolver Solve
	layerMergePlan                // displayed queries + merge.BuildSharedPlan
	layerScan                     // merge.SharedPlan.Execute (the shared scan)
	layerSpeakPlan                // speak.Planner / speak.Greedy Solve
	layerSpeakRender              // speak.Render (merge.BuildPlan + execution)
	layerSVG                      // muve.Answer.SVG, outside the engine
	numLayers
)

// span is the time and heap allocations of one layer in one request.
type span struct {
	dur    time.Duration
	allocs uint64
}

// reqTrace is the traced record of one request.
type reqTrace struct {
	countAllocs bool
	planned     bool
	// planner is the wall time of the planner call inside engine.Do.
	planner time.Duration
	spans   [numLayers]span
	solve   core.Stats // multiplot solver stats (plots)
	speak   core.Stats // fact-set planner stats (voice)
	scan    sqldb.ScanStats
	cands   int
	words   int
}

// time runs f as one span of layer l. Allocations are read from
// runtime.MemStats outside the timed interval, and only when the
// request runs alone, since the counter is process-wide.
func (r *reqTrace) time(l layer, f func()) {
	var before, after runtime.MemStats
	if r.countAllocs {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	f()
	r.spans[l].dur += time.Since(start)
	if r.countAllocs {
		runtime.ReadMemStats(&after)
		r.spans[l].allocs += after.Mallocs - before.Mallocs
	}
}

// tracer is a serve.Planner that answers like muve.System but calls the
// layer functions itself, in the order System calls them, timing each.
// Its answers must equal the system's (the gate checks).
type tracer struct {
	w      workloadSpec
	db     *sqldb.DB
	pipe   *nlq.Pipeline
	screen core.Screen
	model  usermodel.TimeModel

	mu      sync.Mutex
	pending map[string]*reqTrace
}

// newTracer builds a tracer over the system's catalog with the system's
// configuration.
func newTracer(w workloadSpec, db *sqldb.DB, cat *nlq.Catalog) *tracer {
	o := w.muveOptions()
	pipe := nlq.NewPipeline(cat)
	pipe.Generator.K = o.K
	pipe.Generator.MaxCandidates = o.MaxCandidates
	screen := core.DefaultScreen()
	screen.WidthPx = o.WidthPx
	return &tracer{
		w: w, db: db, pipe: pipe, screen: screen,
		model:   usermodel.DefaultModel(),
		pending: map[string]*reqTrace{},
	}
}

func traceKey(transcript string, voice bool) string {
	return modeName(voice) + "\x00" + transcript
}

// ask sends one traced request: it registers the request's record so
// the planner call inside engine.Do finds it.
func (t *tracer) ask(ctx context.Context, eng *serve.Engine, transcript string, voice, countAllocs bool) sample {
	r := &reqTrace{countAllocs: countAllocs}
	key := traceKey(transcript, voice)
	t.mu.Lock()
	t.pending[key] = r
	t.mu.Unlock()
	s := ask(ctx, eng, transcript, voice, r)
	t.mu.Lock()
	delete(t.pending, key)
	t.mu.Unlock()
	return s
}

// planner is the engine's primary planner.
func (t *tracer) planner(ctx context.Context, req serve.Request, _ *serve.Session) (any, error) {
	voice := req.Mode == serve.ModeVoice
	t.mu.Lock()
	r := t.pending[traceKey(req.Transcript, voice)]
	t.mu.Unlock()
	if r == nil {
		r = &reqTrace{} // a request sent without ask; discard its spans
	}
	r.planned = true
	start := time.Now()
	defer func() { r.planner = time.Since(start) }()
	// The engine's worker split, as muve.System reads it (its own
	// configured parallelism is 0, i.e. GOMAXPROCS).
	workers := resilience.SolverWorkers(ctx)
	var top sqldb.Query
	var err error
	r.time(layerTranslate, func() { top, err = t.pipe.Translator.Translate(req.Transcript) })
	if err != nil {
		return nil, err
	}
	var cands []core.Candidate
	r.time(layerCandidates, func() { cands, err = t.pipe.Generator.CandidatesContext(ctx, top) })
	if err != nil {
		return nil, err
	}
	r.cands = len(cands)
	in := &core.Instance{Candidates: cands, Screen: t.screen, Model: t.model}
	ans := &muve.Answer{Transcript: req.Transcript, TopQuery: top, Candidates: cands, Headline: headline(cands)}
	if voice {
		return t.voice(ctx, r, in, ans, workers)
	}
	return t.plot(ctx, r, in, ans, workers)
}

// plot mirrors muve.System.answer with the default presentation
// (progressive.Default): solve, shared-scan execution, assembly.
func (t *tracer) plot(ctx context.Context, r *reqTrace, in *core.Instance, ans *muve.Answer, workers int) (*muve.Answer, error) {
	var m core.Multiplot
	var err error
	r.time(layerSolve, func() {
		if t.w.Solver == muve.SolverGreedy {
			m, r.solve, err = (&core.GreedySolver{Ctx: ctx, Workers: workers}).Solve(in)
		} else {
			m, r.solve, err = (&core.ILPSolver{Timeout: ilpTimeout, WarmStart: true, Parallelism: workers, Ctx: ctx}).Solve(in)
		}
	})
	if err != nil {
		return nil, err
	}
	var queries []sqldb.Query
	var pos map[int]int
	var plan merge.SharedPlan
	r.time(layerMergePlan, func() {
		queries, pos = displayedQueries(in, m)
		plan = merge.BuildSharedPlan(queries)
	})
	if len(queries) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var res map[int]merge.Result
		r.time(layerScan, func() { res, r.scan, err = plan.Execute(t.db, 0, 0) })
		if err != nil {
			return nil, fmt.Errorf("executing multiplot queries: %w", err)
		}
		m = applyResults(m, pos, res)
	}
	ans.Multiplot = m
	ans.Stats = core.Stats{Cost: in.Cost(m), WarmStart: r.solve.WarmStart, Scan: r.scan}
	ans.Trace = &progressive.Trace{SampleRate: 1, WarmStart: r.solve.WarmStart, Scan: r.scan}
	if r.solve.Optimal {
		ans.Trace.EarlyStop = "optimal"
	}
	return ans, nil
}

// voice mirrors muve.System.answerVoice: fact-set planning, then
// rendering (which executes the facts' queries).
func (t *tracer) voice(ctx context.Context, r *reqTrace, in *core.Instance, ans *muve.Answer, workers int) (*muve.Answer, error) {
	cost := speak.FromTimeModel(t.model)
	words := t.w.muveOptions().SpeakWords
	var fs speak.FactSet
	var err error
	r.time(layerSpeakPlan, func() {
		if t.w.Solver == muve.SolverGreedy {
			fs, r.speak, err = (&speak.Greedy{Cost: cost, WordBudget: words, Ctx: ctx}).Solve(in)
		} else {
			p := &speak.Planner{Cost: cost, WordBudget: words, Timeout: ilpTimeout, WarmStart: true, Parallelism: workers, Ctx: ctx}
			fs, r.speak, err = p.Solve(in)
		}
	})
	if err != nil {
		return nil, err
	}
	var va *speak.VoiceAnswer
	r.time(layerSpeakRender, func() { va, err = speak.Render(t.db, in, fs, cost) })
	if err != nil {
		return nil, err
	}
	r.words = va.Words
	ans.Mode = muve.ModeVoice
	ans.Voice = va
	ans.Stats = r.speak
	return ans, nil
}

// displayedQueries collects the candidate queries a multiplot shows,
// deduplicated, with a candidate-index → query-position map (as the
// progressive package does before a shared scan).
func displayedQueries(in *core.Instance, m core.Multiplot) ([]sqldb.Query, map[int]int) {
	var queries []sqldb.Query
	pos := make(map[int]int)
	for _, e := range entries(m) {
		if _, ok := pos[e.Query]; !ok {
			pos[e.Query] = len(queries)
			queries = append(queries, in.Candidates[e.Query].Query)
		}
	}
	return queries, pos
}

// applyResults writes executed values into a copy of the multiplot.
func applyResults(m core.Multiplot, pos map[int]int, res map[int]merge.Result) core.Multiplot {
	out := core.Multiplot{Rows: make([][]core.Plot, len(m.Rows))}
	for ri, row := range m.Rows {
		for _, pl := range row {
			np := core.Plot{Template: pl.Template, Entries: append([]core.Entry(nil), pl.Entries...)}
			for ei := range np.Entries {
				if r := res[pos[np.Entries[ei].Query]]; r.Valid {
					np.Entries[ei].Value = r.Value
				} else {
					np.Entries[ei].Value = math.NaN()
				}
			}
			out.Rows[ri] = append(out.Rows[ri], np)
		}
	}
	return out
}

// headline renders the query elements shared by every candidate, as the
// multiplot headline (muve's own is unexported).
func headline(cands []core.Candidate) string {
	if len(cands) == 0 {
		return ""
	}
	counts := map[string]int{}
	var order []string
	for _, c := range cands {
		for _, el := range elementsOf(c.Query) {
			if counts[el] == 0 {
				order = append(order, el)
			}
			counts[el]++
		}
	}
	var shared []string
	for _, el := range order {
		if counts[el] == len(cands) {
			shared = append(shared, el)
		}
	}
	sort.Strings(shared)
	if len(shared) == 0 {
		return cands[0].Query.Table
	}
	return cands[0].Query.Table + ": " + strings.Join(shared, ", ")
}

func elementsOf(q sqldb.Query) []string {
	var out []string
	for _, a := range q.Aggs {
		out = append(out, a.String())
	}
	for _, p := range q.Preds {
		out = append(out, p.String())
	}
	return out
}
