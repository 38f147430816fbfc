package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"time"

	"muve"
	"muve/internal/serve"
	"muve/internal/speak"
	"muve/internal/sqldb"
)

// ilpTimeout is muve's default ILP planning budget (the paper's 1 s).
const ilpTimeout = time.Second

// engineOptions are the serve.Engine settings, cmd/muveserver's flag
// defaults. They are stamped into every result.
type engineOptions struct {
	MaxInFlight      int           `json:"max_inflight"`
	SolverWorkers    int           `json:"solver_workers"`
	CacheEntries     int           `json:"cache_entries"`
	CacheTTL         time.Duration `json:"cache_ttl_ns"`
	Timeout          time.Duration `json:"timeout_ns"`
	Queue            int           `json:"queue_depth"`
	BatchQueue       int           `json:"batch_queue"`
	StaleFor         time.Duration `json:"stale_for_ns"`
	BreakerThreshold int           `json:"breaker_threshold"`
	BreakerCooldown  time.Duration `json:"breaker_cooldown_ns"`
	Hedge            bool          `json:"hedge"`
	Sessions         bool          `json:"sessions"`
}

var serveDefaults = engineOptions{
	MaxInFlight:      32,
	CacheEntries:     1024,
	CacheTTL:         5 * time.Minute,
	Timeout:          10 * time.Second,
	BreakerThreshold: 3,
	BreakerCooldown:  5 * time.Second,
}

// muveOptions are the muve.System settings of a workload, stamped into
// every result. The modeled costs (scan throughput, sketches) are off,
// as in muveserver's defaults, and the benchmark asserts they stay off.
type muveOptions struct {
	Solver         string  `json:"solver"`
	WidthPx        int     `json:"width_px"`
	MaxCandidates  int     `json:"max_candidates"`
	K              int     `json:"k"`
	ILPTimeoutMs   int64   `json:"ilp_timeout_ms"`
	BudgetFraction float64 `json:"budget_fraction"`
	WarmStart      bool    `json:"warm_start"`
	SpeakWords     int     `json:"speak_words"`
	ScanThroughput float64 `json:"scan_throughput_rows_per_s"`
	SketchRate     float64 `json:"sketch_rate"`
	DBParallelism  int     `json:"db_parallelism"`
}

func (w workloadSpec) muveOptions() muveOptions {
	return muveOptions{
		Solver:         w.Solver.String(),
		WidthPx:        w.WidthPx,
		MaxCandidates:  w.MaxCandidates,
		K:              20,
		ILPTimeoutMs:   ilpTimeout.Milliseconds(),
		WarmStart:      true,
		SpeakWords:     speak.DefaultWordBudget,
		DBParallelism:  1,
		ScanThroughput: 0,
		SketchRate:     0,
	}
}

// server is one set-up serving stack.
type server struct {
	db     *sqldb.DB
	sys    *muve.System
	engine *serve.Engine
}

// loadDB parses the CSV into a fresh database.
func loadDB(w workloadSpec, csv []byte) (*sqldb.DB, error) {
	tbl, err := sqldb.LoadCSV(w.Dataset.String(), bytes.NewReader(csv))
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", w.Dataset, err)
	}
	db := sqldb.NewDB()
	db.Register(tbl)
	return db, nil
}

// newSystem builds the primary muve.System of a workload.
func newSystem(w workloadSpec, db *sqldb.DB) (*muve.System, error) {
	o := w.muveOptions()
	return muve.New(db, w.Dataset.String(),
		muve.WithSolver(w.Solver),
		muve.WithWidth(o.WidthPx),
		muve.WithMaxCandidates(o.MaxCandidates),
		muve.WithK(o.K),
		muve.WithILPTimeout(ilpTimeout),
		muve.WithBudgetFraction(o.BudgetFraction),
		muve.WithWarmStart(o.WarmStart),
		muve.WithSpeakWords(o.SpeakWords))
}

// setup is the timed set-up: load the CSV, build the system, wire the
// engine.
func setup(w workloadSpec, csv []byte) (*server, error) {
	db, err := loadDB(w, csv)
	if err != nil {
		return nil, err
	}
	sys, err := newSystem(w, db)
	if err != nil {
		return nil, err
	}
	eng, err := newEngine(w, db, systemPlanner(sys))
	if err != nil {
		return nil, err
	}
	return &server{db: db, sys: sys, engine: eng}, nil
}

// systemPlanner routes a request to the system the way muveserver's
// primary planner does: voice requests to AskVoiceContext, the rest to
// AskContext. Requests carry no session, so no warm-start prior exists.
func systemPlanner(sys *muve.System) serve.Planner {
	return func(ctx context.Context, req serve.Request, _ *serve.Session) (any, error) {
		if req.Mode == serve.ModeVoice {
			return sys.AskVoiceContext(ctx, req.Transcript)
		}
		return sys.AskContext(ctx, req.Transcript)
	}
}

// newEngine wires planner into a serve.Engine with muveserver's ladder:
// for ILP workloads a greedy system is the fallback rung, and a
// single-candidate greedy system is always the minimal rung.
func newEngine(w workloadSpec, db *sqldb.DB, planner serve.Planner) (*serve.Engine, error) {
	o := w.muveOptions()
	var fallback serve.Planner
	if w.Solver != muve.SolverGreedy {
		greedy, err := muve.New(db, w.Dataset.String(),
			muve.WithSolver(muve.SolverGreedy),
			muve.WithWidth(o.WidthPx),
			muve.WithSpeakWords(o.SpeakWords))
		if err != nil {
			return nil, err
		}
		fallback = systemPlanner(greedy)
	}
	minimal, err := muve.New(db, w.Dataset.String(),
		muve.WithSolver(muve.SolverGreedy),
		muve.WithWidth(o.WidthPx),
		muve.WithK(1),
		muve.WithMaxCandidates(1),
		muve.WithSpeakWords(o.SpeakWords))
	if err != nil {
		return nil, err
	}
	d := serveDefaults
	return serve.NewEngine(serve.Config{
		Planner:          planner,
		Fallback:         fallback,
		Minimal:          systemPlanner(minimal),
		MaxInFlight:      d.MaxInFlight,
		SolverWorkers:    d.SolverWorkers,
		Timeout:          d.Timeout,
		CacheEntries:     d.CacheEntries,
		CacheTTL:         d.CacheTTL,
		StaleFor:         d.StaleFor,
		Queue:            d.Queue,
		BatchQueue:       d.BatchQueue,
		BreakerThreshold: d.BreakerThreshold,
		BreakerCooldown:  d.BreakerCooldown,
		Hedge:            d.Hedge,
		Dataset:          w.Dataset.String(),
		Solver:           o.Solver,
		WidthPx:          o.WidthPx,
	})
}

// checkNoModeledCost fails when the database models a cost the host
// does not pay: a scan throughput sleep or aggregate sketches. sqldb
// exposes no getter for the throttle, so its field is read by
// reflection; a renamed field fails the check instead of passing it.
func checkNoModeledCost(db *sqldb.DB) error {
	if r := db.SketchRate(); r != 0 {
		return fmt.Errorf("aggregate sketches are enabled (rate %v)", r)
	}
	f := reflect.ValueOf(db).Elem().FieldByName("scanThroughput")
	if !f.IsValid() || f.Kind() != reflect.Float64 {
		return fmt.Errorf("cannot read sqldb.DB's scan throttle")
	}
	if tp := f.Float(); tp != 0 {
		return fmt.Errorf("scan throttle is set (%v rows/s)", tp)
	}
	return nil
}
