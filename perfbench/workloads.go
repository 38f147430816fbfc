package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"muve"
	"muve/internal/nlq"
	"muve/internal/speech"
	"muve/internal/sqldb"
	"muve/internal/workload"
)

// workloadSpec is one benchmark workload: a synthetic table served with
// one planner configuration.
type workloadSpec struct {
	Name          string
	Why           string
	Dataset       workload.Dataset
	Rows          int
	Solver        muve.SolverKind
	WidthPx       int
	MaxCandidates int
	// SetupReps is how many times a run sets the server up; setup_s is
	// their median.
	SetupReps int
}

// exact reports whether every solve of the workload must prove
// optimality: the ILP workloads are sized so that it does within the
// 1 s planning budget, so a non-optimal answer is a failure.
func (w workloadSpec) exact() bool { return w.Solver != muve.SolverGreedy }

// The workloads stress different layers: ask-311 mixes the solver, the
// shared scan and nlq on a table that fits in cache; ask-flights is
// scan-bound on a table that does not fit in the per-core caches;
// exact-ads is branch-and-bound-bound with a negligible scan. A scan
// gain should move ask-flights and leave exact-ads flat; a solver gain
// the reverse.
var workloads = []workloadSpec{
	{
		Name:          "ask-311",
		Why:           "muveserver defaults (NYC311 50k rows, greedy, 1024 px, 20 candidates): greedy, shared scan and nlq all matter",
		Dataset:       workload.NYC311,
		Rows:          50_000,
		Solver:        muve.SolverGreedy,
		WidthPx:       1024,
		MaxCandidates: 20,
		SetupReps:     15,
	},
	{
		Name:          "ask-flights",
		Why:           "Flights 400k rows, greedy, 32 candidates: the shared scan and the voice merge executor dominate, on a table far past L2",
		Dataset:       workload.Flights,
		Rows:          400_000,
		Solver:        muve.SolverGreedy,
		WidthPx:       1024,
		MaxCandidates: 32,
		SetupReps:     5,
	},
	{
		Name:          "exact-ads",
		Why:           "Ads 30k rows, ILP, 480 px, 3 candidates: every plot and fact-set ILP proves optimality, so latency is branch-and-bound work",
		Dataset:       workload.Ads,
		Rows:          30_000,
		Solver:        muve.SolverILP,
		WidthPx:       480,
		MaxCandidates: 3,
		SetupReps:     15,
	},
}

// workloadByName finds a workload.
func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (want one of %v or all)", name, names)
}

const (
	// wordErrorRate is the simulated speech channel's word error rate.
	wordErrorRate = 0.15
	// maxPreds bounds the equality predicates per generated query.
	maxPreds = 2
	// poolSize is the number of transcripts generated per phase. On the
	// fastest workload a 25 s run's phases, each measured twice, use
	// under 5000; a phase that exhausts the pool ends early.
	poolSize = 8000
)

// inputs is everything a run feeds the server, generated from the seed
// before any clock starts. The program sees only the CSV and the
// transcripts.
type inputs struct {
	csv []byte
	// latency and throughput are the transcript sequences of the
	// single-client and the two-client phase; they share no draw.
	latency    []string
	throughput []string
	// predsPerQuery is the mean number of predicates of the generated
	// queries.
	predsPerQuery float64
	genTime       time.Duration
}

// makeInputs renders the seeded table as CSV and draws the transcripts:
// random queries (workload.QueryGen), spoken as workload.Utterance, then
// corrupted by the speech channel.
func makeInputs(w workloadSpec, seed int64) (*inputs, error) {
	start := time.Now()
	tbl, err := workload.Build(w.Dataset, w.Rows, seed)
	if err != nil {
		return nil, err
	}
	var csv bytes.Buffer
	if err := sqldb.WriteCSV(tbl, &csv); err != nil {
		return nil, fmt.Errorf("rendering CSV: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	gen := workload.NewQueryGen(tbl, rand.New(rand.NewSource(rng.Int63())))
	ch := speech.NewChannel(wordErrorRate, rand.New(rand.NewSource(rng.Int63())))
	// The recognizer confuses words with catalog terms, as muve.System's
	// own simulated channel does.
	ch.Vocabulary = nlq.BuildCatalog(tbl, 0).Columns()
	preds := 0
	draw := func() []string {
		out := make([]string, poolSize)
		var block []stratum
		for i := range out {
			if len(block) == 0 {
				block = strata()
				rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			}
			q := drawStratum(gen, block[0])
			block = block[1:]
			preds += len(q.Preds)
			out[i] = ch.Transcribe(workload.Utterance(q))
		}
		return out
	}
	in := &inputs{csv: csv.Bytes()}
	in.latency = draw()
	in.throughput = draw()
	in.predsPerQuery = float64(preds) / float64(2*poolSize)
	in.genTime = time.Since(start)
	return in, nil
}

// stratum is a query shape: aggregate function and predicate count.
type stratum struct {
	fn    sqldb.AggFunc
	preds int
}

// strata lists every shape QueryGen.Random(maxPreds) draws, each with
// the same probability there.
func strata() []stratum {
	var out []stratum
	for _, fn := range sqldb.AllAggFuncs {
		for n := 1; n <= maxPreds; n++ {
			out = append(out, stratum{fn, n})
		}
	}
	return out
}

// drawStratum draws QueryGen.Random queries until one has the shape.
// Drawing the shapes in shuffled blocks that hold each shape once keeps
// the generator's distribution but fixes the mix of every block, so
// per-seed means (answer cost above all) vary less between seeds.
func drawStratum(gen *workload.QueryGen, st stratum) sqldb.Query {
	for {
		q := gen.Random(maxPreds)
		if q.Aggs[0].Func == st.fn && len(q.Preds) == st.preds {
			return q
		}
	}
}

// repeatedShare is the share of transcripts in seq that already
// appeared earlier in seq: the requests the answer cache can serve.
func repeatedShare(seq []string) float64 {
	if len(seq) == 0 {
		return 0
	}
	seen := make(map[string]bool, len(seq))
	rep := 0
	for _, s := range seq {
		if seen[s] {
			rep++
		}
		seen[s] = true
	}
	return float64(rep) / float64(len(seq))
}
