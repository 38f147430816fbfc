package main

import (
	"context"
	"errors"
	"runtime"
	"time"

	"muve/internal/nlq"
)

// Phase lengths as shares of --seconds. A phase runs on until it has
// answered its minimum number of utterances, up to maxPhaseShare.
const (
	latencyShare    = 0.6
	throughputShare = 0.4
	maxPhaseShare   = 4
)

// maxSteal is the share of the vCPUs' wanted time the hypervisor may
// steal during a timed phase before the phase is measured once more. On
// the 2-vCPU runner a calm phase loses 0-2%; phases losing more than 5%
// read 15% to 100% slower, since every request solves on both vCPUs.
const maxSteal = 0.05

// attempt is one run of a timed phase.
type attempt struct {
	samples []sample
	stats   phaseStats
	rate    float64
	steal   float64
}

// measure runs a timed phase on seq. When the hypervisor stole more
// than maxSteal of the vCPUs' time, it runs the phase once more on the
// utterances after the first attempt's. It returns every attempt; every
// attempt's requests pass the gate.
func measure(seq []string, run func(seq []string) attempt) []attempt {
	var out []attempt
	for len(out) < 2 {
		var a attempt
		steal := stealShare(func() { a = run(seq) })
		a.steal = steal
		out = append(out, a)
		if steal <= maxSteal {
			break
		}
		seq = seq[len(a.samples)/2:]
	}
	return out
}

// leastStolen is the attempt the hypervisor disturbed least.
func leastStolen(as []attempt) attempt {
	best := as[0]
	for _, a := range as[1:] {
		if a.steal < best.steal {
			best = a
		}
	}
	return best
}

// inputProps are the measured properties of a run's inputs.
type inputProps struct {
	Rows  int     `json:"rows"`
	CSVMB float64 `json:"csv_mb"`
	// LiveMB is the live heap the set-up server adds (table, catalogs,
	// engine), to compare with the host's caches.
	LiveMB               float64 `json:"live_table_mb"`
	L2MB                 float64 `json:"l2_mb_per_core"`
	L3MB                 float64 `json:"l3_mb"`
	CandidatesPerRequest float64 `json:"candidates_per_request"`
	PredsPerQuery        float64 `json:"predicates_per_query"`
	RepeatedShare        float64 `json:"repeated_transcript_share"`
	GenSeconds           float64 `json:"generation_s"`
}

// report is the full record of one run: the result line's content plus
// the host, configuration and input stamp.
type report struct {
	Workload string         `json:"workload"`
	Why      string         `json:"why"`
	Seed     int64          `json:"seed"`
	Seconds  int            `json:"seconds"`
	Trace    bool           `json:"trace"`
	Host     hostStamp      `json:"host"`
	Muve     muveOptions    `json:"muve"`
	Serve    engineOptions  `json:"serve"`
	Inputs   inputProps     `json:"inputs"`
	Requests map[string]int `json:"requests"`
	// Phases is the wall time of each part of the run, in seconds.
	Phases map[string]float64 `json:"phase_s"`
	// Steal is the share of host CPU time stolen during each attempt
	// at a timed phase, in order.
	Steal     map[string][]float64 `json:"steal_share"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Notes     []string             `json:"failures,omitempty"`
	// TiedOptima counts traced answers that differ from the untraced
	// ones only by the choice among tied proven optima.
	TiedOptima int       `json:"tied_optima_differ"`
	Metrics    metricSet `json:"metrics"`
	clock      time.Time
}

func newReport(w workloadSpec, seed int64, seconds int, traced bool, in *inputs) *report {
	h := host()
	return &report{
		Workload: w.Name, Why: w.Why, Seed: seed, Seconds: seconds, Trace: traced,
		Host: h, Muve: w.muveOptions(), Serve: serveDefaults,
		Inputs: inputProps{
			Rows: w.Rows, CSVMB: float64(len(in.csv)) / 1e6, L2MB: h.L2MB, L3MB: h.L3MB,
			PredsPerQuery: in.predsPerQuery, GenSeconds: in.genTime.Seconds(),
		},
		Requests: map[string]int{},
		Phases:   map[string]float64{"inputs": in.genTime.Seconds()},
		Steal:    map[string][]float64{},
		Metrics:  metricSet{},
		clock:    time.Now(),
	}
}

// lap records the time since the previous lap as phase name.
func (r *report) lap(name string) {
	now := time.Now()
	r.Phases[name] = now.Sub(r.clock).Seconds()
	r.clock = now
}

// finish records the gate's verdict.
func (r *report) finish(g *gate) {
	r.Failed = g.failed
	r.Notes = g.notes
	r.TiedOptima = g.ties
	r.Correct = g.failed == 0
	r.Metrics.set(errorShare.Name, ratio(float64(g.failed), float64(r.Attempted)))
}

// liveMB drops the CSV and returns what the set-up server added to the
// live heap since base, which was measured with the CSV still live.
func liveMB(base uint64, in *inputs) float64 {
	base -= uint64(cap(in.csv))
	in.csv = nil
	live := heapAlloc()
	return float64(live-min(base, live)) / 1e6
}

func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// phase is the length of a phase: its share of --seconds and the cap.
func phase(seconds int, share float64) (dur, maxDur time.Duration) {
	d := time.Duration(share * float64(seconds) * float64(time.Second))
	return d, maxPhaseShare * d
}

// runTimed is the untraced run: set-up, the latency phase, the
// throughput phase, then the correctness gate over every request.
func runTimed(w workloadSpec, seed int64, seconds int) (*report, error) {
	in, err := makeInputs(w, seed)
	if err != nil {
		return nil, err
	}
	rep := newReport(w, seed, seconds, false, in)
	base := heapAlloc()
	var srv *server
	setups := make([]float64, 0, w.SetupReps)
	for i := 0; i < w.SetupReps; i++ {
		srv = nil
		runtime.GC()
		start := time.Now()
		srv, err = setup(w, in.csv)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if err := checkNoModeledCost(srv.db); err != nil {
		return nil, err
	}
	rep.lap("setup")
	rep.Inputs.LiveMB = liveMB(base, in)
	live := heapAlloc()

	ctx := context.Background()
	do := func(ctx context.Context, tr string, voice bool) sample { return ask(ctx, srv.engine, tr, voice, nil) }
	latDur, maxLat := phase(seconds, latencyShare)
	thrDur, maxThr := phase(seconds, throughputShare)
	lats := measure(in.latency, func(seq []string) attempt {
		var a attempt
		a.samples, a.stats = latencyPhase(ctx, seq, latDur, maxLat, minPairs, do)
		return a
	})
	rep.lap("latency")
	thrs := measure(in.throughput, func(seq []string) attempt {
		var a attempt
		a.samples, a.rate = throughputPhase(ctx, seq, thrDur, maxThr, minThroughputPairs, do)
		return a
	})
	rep.lap("throughput")
	var all []sample
	for _, a := range append(lats, thrs...) {
		all = append(all, a.samples...)
	}
	for _, a := range lats {
		rep.Steal["latency"] = append(rep.Steal["latency"], a.steal)
	}
	for _, a := range thrs {
		rep.Steal["throughput"] = append(rep.Steal["throughput"], a.steal)
	}
	kept, thrKept := leastStolen(lats), leastStolen(thrs)
	lat, ls, thr, rate := kept.samples, kept.stats, thrKept.samples, thrKept.rate
	// The answer costs average the first minPairs utterances of the
	// sequence, from the first latency attempt.
	costs := lats[0].samples[:min(2*minPairs, len(lats[0].samples))]
	rep.Requests["latency"] = len(lat)
	rep.Requests["throughput"] = len(thr)
	rep.Attempted = len(all)
	describeInputs(rep, lat)

	g := &gate{exact: w.exact()}
	g.checkSamples(srv.db, all)
	rep.lap("gate")

	m := rep.Metrics
	var plot, voice, plotCost, voiceCost []float64
	for _, s := range lat {
		if s.err != nil {
			continue
		}
		if s.voice {
			voice = append(voice, ms(s.latency))
		} else {
			plot = append(plot, ms(s.latency))
		}
	}
	for _, s := range costs {
		switch {
		case s.err != nil:
		case s.voice:
			voiceCost = append(voiceCost, s.ans.Voice.Objective)
		default:
			plotCost = append(plotCost, s.ans.Stats.Cost)
		}
	}
	m.set("setup_s", median(setups))
	m.set("plot_ms_p50", blockQuantile(plot, 0.5))
	m.set("plot_ms_p95", blockQuantile(plot, 0.95))
	m.set("voice_ms_p50", blockQuantile(voice, 0.5))
	m.set("voice_ms_p95", blockQuantile(voice, 0.95))
	m.set("asks_per_s", rate)
	m.set("allocs_per_ask", ratio(float64(ls.mallocs), float64(len(lat))))
	m.set("heap_mb", float64(live)/1e6)
	m.set("plot_cost_ms", mean(plotCost))
	m.set("voice_cost_ms", mean(voiceCost))
	rep.finish(g)
	return rep, nil
}

// runTraced is the traced run. It measures the untraced latency phase
// again, replays the same utterances through an engine whose planner is
// the benchmark's layer-by-layer tracer, then runs the two-client phase
// traced. The tracer's answers must equal the system's.
func runTraced(w workloadSpec, seed int64, seconds int) (*report, error) {
	in, err := makeInputs(w, seed)
	if err != nil {
		return nil, err
	}
	rep := newReport(w, seed, seconds, true, in)
	// Set-up layers: the CSV load and the nlq catalog build.
	var loads, catalogs []float64
	for i := 0; i < w.SetupReps; i++ {
		runtime.GC()
		start := time.Now()
		db, err := loadDB(w, in.csv)
		if err != nil {
			return nil, err
		}
		loads = append(loads, time.Since(start).Seconds())
		tbl, err := db.Table(w.Dataset.String())
		if err != nil {
			return nil, err
		}
		start = time.Now()
		nlq.BuildCatalog(tbl, 0)
		catalogs = append(catalogs, ms(time.Since(start)))
	}
	base := heapAlloc()
	srv, err := setup(w, in.csv)
	if err != nil {
		return nil, err
	}
	if err := checkNoModeledCost(srv.db); err != nil {
		return nil, err
	}
	rep.Inputs.LiveMB = liveMB(base, in)
	tr := newTracer(w, srv.db, srv.sys.Catalog())
	tracedEngine, err := newEngine(w, srv.db, tr.planner)
	if err != nil {
		return nil, err
	}
	rep.lap("setup")

	ctx := context.Background()
	latDur, maxLat := phase(seconds, latencyShare/2)
	thrDur, maxThr := phase(seconds, throughputShare/2)
	lat, ls := latencyPhase(ctx, in.latency, latDur, maxLat, minPairs,
		func(ctx context.Context, t string, voice bool) sample { return ask(ctx, srv.engine, t, voice, nil) })
	rep.lap("latency")
	traced := make([]sample, 0, len(lat))
	for _, s := range lat {
		traced = append(traced, tr.ask(ctx, tracedEngine, s.transcript, s.voice, true))
	}
	rep.lap("traced_latency")
	thr, _ := throughputPhase(ctx, in.throughput, thrDur, maxThr, minThroughputPairs/2, func(ctx context.Context, t string, voice bool) sample {
		return tr.ask(ctx, tracedEngine, t, voice, false)
	})
	rep.lap("traced_throughput")
	rep.Requests["latency"] = len(lat)
	rep.Requests["traced_latency"] = len(traced)
	rep.Requests["traced_throughput"] = len(thr)
	rep.Attempted = len(lat) + len(traced) + len(thr)
	describeInputs(rep, lat)

	g := &gate{exact: w.exact()}
	g.checkSamples(srv.db, lat, traced, thr)
	g.checkSame(lat, traced)
	rep.lap("gate")

	layerMetrics(rep.Metrics, lat, traced, thr)
	rep.Metrics.set("nlq.catalog_ms", median(catalogs))
	rep.Metrics.set("sqldb.load_s", median(loads))
	rep.Metrics.set("runtime.gc_cycles_per_ask", ratio(float64(ls.gcs), float64(len(lat))))
	rep.finish(g)
	return rep, nil
}

// describeInputs records the input properties the latency phase saw.
func describeInputs(rep *report, lat []sample) {
	var seq []string
	var cands []float64
	for _, s := range lat {
		if s.voice {
			continue
		}
		seq = append(seq, s.transcript)
		if s.err == nil {
			cands = append(cands, float64(len(s.ans.Candidates)))
		}
	}
	rep.Inputs.CandidatesPerRequest = mean(cands)
	rep.Inputs.RepeatedShare = repeatedShare(seq)
}

// layerMetrics turns the traced requests into per-layer metrics. Layer
// times are per request that ran the layer; the serve layer's self time
// is engine.Do minus the planner call; trace.gap_ms is what the traced
// spans leave unaccounted of the untraced request time.
func layerMetrics(m metricSet, untraced, traced, traced2c []sample) {
	var sum [numLayers]span
	var plots, voices, planned, plannedPlots, plannedVoices, hits float64
	var self, accounted, untracedTotal time.Duration
	var cands, words, svgBytes float64
	var nodes, lps, iters, spNodes, spIters float64
	var rows, preds, shared float64
	for _, s := range untraced {
		untracedTotal += s.latency
	}
	for _, s := range traced {
		r := s.trace
		self += s.do - r.planner
		accounted += s.do - r.planner
		for l := layer(0); l < numLayers; l++ {
			sum[l].dur += r.spans[l].dur
			sum[l].allocs += r.spans[l].allocs
			accounted += r.spans[l].dur
		}
		if s.voice {
			voices++
		} else {
			plots++
			svgBytes += float64(s.svgBytes)
		}
		if !r.planned {
			hits++
			continue
		}
		planned++
		cands += float64(r.cands)
		if s.voice {
			plannedVoices++
			words += float64(r.words)
			spNodes += float64(r.speak.Nodes)
			spIters += float64(r.speak.SimplexIters)
			continue
		}
		plannedPlots++
		nodes += float64(r.solve.Nodes)
		lps += float64(r.solve.LPSolves)
		iters += float64(r.solve.SimplexIters)
		rows += float64(r.scan.Rows)
		preds += float64(r.scan.Predicates)
		shared += float64(r.scan.SharedPredicates)
	}
	n := float64(len(traced))
	perMs := func(l layer, per float64) float64 { return ratio(ms(sum[l].dur), per) }
	perAllocs := func(per float64, ls ...layer) float64 {
		var a uint64
		for _, l := range ls {
			a += sum[l].allocs
		}
		return ratio(float64(a), per)
	}
	var self2c time.Duration
	for _, s := range traced2c {
		self2c += s.do - s.trace.planner
	}
	m.set("serve.self_ms", ratio(ms(self), n))
	m.set("serve.self_ms_2c", ratio(ms(self2c), float64(len(traced2c))))
	m.set("serve.cache_hit_share", ratio(hits, n))
	m.set("nlq.translate_ms", perMs(layerTranslate, planned))
	m.set("nlq.candidates_ms", perMs(layerCandidates, planned))
	m.set("nlq.candidates", ratio(cands, planned))
	m.set("nlq.allocs", perAllocs(planned, layerTranslate, layerCandidates))
	m.set("core.solve_ms", perMs(layerSolve, plannedPlots))
	m.set("core.solve_allocs", perAllocs(plannedPlots, layerSolve))
	m.set("ilp.nodes", ratio(nodes, plannedPlots))
	m.set("ilp.lp_solves", ratio(lps, plannedPlots))
	m.set("ilp.simplex_iters", ratio(iters, plannedPlots))
	m.set("ilp.iters_per_ms", ratio(iters, ms(sum[layerSolve].dur)))
	m.set("speak.plan_ms", perMs(layerSpeakPlan, plannedVoices))
	m.set("speak.nodes", ratio(spNodes, plannedVoices))
	m.set("speak.simplex_iters", ratio(spIters, plannedVoices))
	m.set("speak.render_ms", perMs(layerSpeakRender, plannedVoices))
	m.set("speak.render_allocs", perAllocs(plannedVoices, layerSpeakRender))
	m.set("speak.words", ratio(words, plannedVoices))
	m.set("merge.plan_us", ratio(us(sum[layerMergePlan].dur), plannedPlots))
	m.set("sqldb.scan_ms", perMs(layerScan, plannedPlots))
	m.set("sqldb.scan_allocs", perAllocs(plannedPlots, layerScan))
	m.set("sqldb.rows", ratio(rows, plannedPlots))
	m.set("sqldb.ns_per_row", ratio(float64(sum[layerScan].dur), rows))
	m.set("sqldb.predicate_share", ratio(shared, preds))
	m.set("viz.svg_us", ratio(us(sum[layerSVG].dur), plots))
	m.set("viz.svg_bytes", ratio(svgBytes, plots))
	m.set("trace.gap_ms", ratio(ms(untracedTotal-accounted), n))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// runWorkload dispatches one run.
func runWorkload(w workloadSpec, seed int64, seconds int, traced bool) (*report, error) {
	if traced {
		return runTraced(w, seed, seconds)
	}
	return runTimed(w, seed, seconds)
}

// errIncorrect marks a run whose answers failed the gate.
var errIncorrect = errors.New("correctness gate failed")
