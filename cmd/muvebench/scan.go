package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"muve/internal/merge"
	"muve/internal/sqldb"
	"muve/internal/workload"
)

// scanSlowdownTolerance is how much slower than the row-at-a-time
// baseline the shared scan may run at the gated candidate counts before
// the smoke fails — headroom for timer noise on loaded CI hosts. The
// shared scan reads the table once instead of once per candidate, so at
// 8+ candidates it should be several times faster, not marginally.
const scanSlowdownTolerance = 1.0

// scanGateAt is the candidate count from which the shared scan must be
// no slower than executing candidates one at a time. Below it the two
// strategies do nearly the same work and timer noise dominates.
const scanGateAt = 8

// scanGroupedSpeedupGate is the minimum speedup the shared scan must
// deliver on the grouped ladder at >= scanGateAt candidates. Grouped
// candidates each pay a full table pass when run alone, while the
// shared executor amortizes one pass across all of them; under the
// modeled disk-bound scan rate the win at 8 candidates approaches 8x,
// so 4x leaves a 2x cushion for accumulator and emission overhead.
const scanGroupedSpeedupGate = 4.0

// scanUnthrottledReps is how many times an unthrottled run times each
// strategy per arm, keeping the fastest.
const scanUnthrottledReps = 5

// bestOf runs f reps times and returns the fastest run in milliseconds.
func bestOf(reps int, f func() error) (float64, error) {
	best := math.Inf(1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		best = min(best, float64(time.Since(start).Microseconds())/1000)
	}
	return best, nil
}

// scanReport is the machine-readable summary of a -scan run, written to
// -scan-json (BENCH_scan.json in CI) so the shared-scan latency curve
// is tracked next to the solver and chaos smokes.
type scanReport struct {
	Seed int64 `json:"seed"`
	Rows int   `json:"rows"`
	// ThroughputRowsPerSec is the modeled backend scan rate
	// (sqldb.SetScanThroughput) recreating the paper's disk-bound
	// conditions; 0 means raw in-memory speed.
	ThroughputRowsPerSec float64   `json:"throughput_rows_per_sec"`
	Arms                 []scanArm `json:"arms"`
	// GroupedArms measures the same ladder over trend-shaped candidates:
	// GROUP BY a categorical column, some with multiple aggregates. Under
	// the modeled scan rate these arms gate a >= 4x speedup at >= 8
	// candidates, since each grouped candidate run alone costs a full
	// table pass.
	GroupedArms []scanArm `json:"grouped_arms"`
	Pass        bool      `json:"pass"`
}

// scanArm is one candidate count's measurement.
type scanArm struct {
	Candidates int `json:"candidates"`
	// SeparateMillis executes every candidate as its own table scan
	// (the row-at-a-time baseline the paper's unmerged strategy uses).
	SeparateMillis float64 `json:"separate_millis"`
	// SharedMillis answers all candidates in one shared columnar pass.
	SharedMillis float64 `json:"shared_millis"`
	Speedup      float64 `json:"speedup"`
	// Predicates and SharedPredicates count compiled vs actually
	// evaluated filters — their gap is the cross-candidate dedup win.
	Predicates       int64 `json:"predicates"`
	SharedPredicates int64 `json:"shared_predicates"`
	ScannedRows      int64 `json:"scanned_rows"`
	// Groups and Aggregates are only set on grouped arms: total output
	// groups emitted and total aggregate accumulators maintained across
	// the candidate set.
	Groups     int64 `json:"groups,omitempty"`
	Aggregates int64 `json:"aggregates,omitempty"`
}

// scanCandidates builds n phonetically-confusable-style candidates over
// the NYC311 table: single-aggregate, no GROUP BY, one or two equality
// predicates with constants cycling through the column domains so
// neighboring candidates share predicates (exercising dedup) while the
// set as a whole spans many distinct filters.
func scanCandidates(n int) []sqldb.Query {
	aggs := []sqldb.Aggregate{
		{Func: sqldb.AggCount},
		{Func: sqldb.AggSum, Col: "response_hours"},
		{Func: sqldb.AggAvg, Col: "response_hours"},
		{Func: sqldb.AggMax, Col: "response_hours"},
	}
	complaints := []string{"Noise", "Heating", "Parking", "Water Leak", "Rodent", "Graffiti", "Sewer", "Sidewalk"}
	boroughs := []string{"Brooklyn", "Bronx", "Manhattan", "Queens", "Staten Island"}
	out := make([]sqldb.Query, n)
	for i := range out {
		q := sqldb.Query{
			Aggs:  []sqldb.Aggregate{aggs[i%len(aggs)]},
			Table: workload.NYC311.String(),
			Preds: []sqldb.Predicate{{
				Col: "complaint_type", Op: sqldb.OpEq,
				Values: []sqldb.Value{sqldb.Str(complaints[i%len(complaints)])},
			}},
		}
		if i%2 == 1 {
			q.Preds = append(q.Preds, sqldb.Predicate{
				Col: "borough", Op: sqldb.OpEq,
				Values: []sqldb.Value{sqldb.Str(boroughs[(i/2)%len(boroughs)])},
			})
		}
		out[i] = q
	}
	return out
}

// scanGroupedCandidates builds n trend-shaped candidates: one or two
// aggregates GROUP BY a categorical column, with predicates cycling the
// way phonetic confusion sets do. Every third candidate carries a
// second aggregate so multi-aggregate accumulator tuples are measured,
// and the grouping column rotates across borough/agency/status to mix
// dictionary cardinalities.
func scanGroupedCandidates(n int) []sqldb.Query {
	aggs := []sqldb.Aggregate{
		{Func: sqldb.AggCount},
		{Func: sqldb.AggSum, Col: "response_hours"},
		{Func: sqldb.AggAvg, Col: "response_hours"},
		{Func: sqldb.AggMax, Col: "response_hours"},
	}
	groupCols := []string{"borough", "agency", "status"}
	complaints := []string{"Noise", "Heating", "Parking", "Water Leak", "Rodent", "Graffiti", "Sewer", "Sidewalk"}
	out := make([]sqldb.Query, n)
	for i := range out {
		q := sqldb.Query{
			Aggs:    []sqldb.Aggregate{aggs[i%len(aggs)]},
			Table:   workload.NYC311.String(),
			GroupBy: []string{groupCols[i%len(groupCols)]},
			Preds: []sqldb.Predicate{{
				Col: "complaint_type", Op: sqldb.OpEq,
				Values: []sqldb.Value{sqldb.Str(complaints[i%len(complaints)])},
			}},
		}
		if i%3 == 2 {
			q.Aggs = append(q.Aggs, aggs[(i+1)%len(aggs)])
		}
		out[i] = q
	}
	return out
}

// sameFullResult demands bit-level agreement on full result shapes:
// identical columns, group rows in identical order, and identical
// float64 bits in every aggregate cell.
func sameFullResult(a, b sqldb.Result) bool {
	if len(a.Cols) != len(b.Cols) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] {
			return false
		}
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j := range a.Rows[i] {
			av, bv := a.Rows[i][j], b.Rows[i][j]
			if av.K != bv.K || av.S != bv.S || av.I != bv.I ||
				math.Float64bits(av.F) != math.Float64bits(bv.F) {
				return false
			}
		}
	}
	return true
}

// sameResult demands bit-level agreement between the two execution
// strategies: NULL matches only NULL, numbers must share float64 bits.
func sameResult(a, b merge.Result) bool {
	if a.Valid != b.Valid {
		return false
	}
	if !a.Valid {
		return true
	}
	return math.Float64bits(a.Value) == math.Float64bits(b.Value)
}

// runScan measures the cross-candidate shared-scan executor against
// executing each candidate as its own scan, across a doubling ladder of
// candidate counts. It prints the latency curve, writes -scan-json, and
// fails (non-zero exit) when any candidate's shared-scan value differs
// from its individually executed value in a single bit (the correctness
// contract the presentation layer relies on), or when a performance
// gate fails. The gates depend on the scan rate:
//
//   - modeled (throughput > 0, the paper's disk-bound conditions): the
//     shared scan must be no slower than row-at-a-time at >= scanGateAt
//     candidates, and >= scanGroupedSpeedupGate faster on the grouped
//     ladder there;
//   - unthrottled (throughput 0, real CPU time): the shared pass must be
//     no slower than separate execution at every arm, one candidate
//     included. Each timing is the best of scanUnthrottledReps runs,
//     since sub-millisecond runs are at the mercy of the scheduler. The
//     grouped speedup is recorded in the arms, not gated.
func runScan(seed int64, rows int, throughput float64, jsonPath string) error {
	tbl, err := workload.Build(workload.NYC311, rows, seed)
	if err != nil {
		return err
	}
	db := sqldb.NewDB()
	db.Register(tbl)
	db.SetScanThroughput(throughput)

	rep := scanReport{Seed: seed, Rows: rows, ThroughputRowsPerSec: throughput, Pass: true}
	unthrottled := throughput == 0
	reps := 1
	if unthrottled {
		reps = scanUnthrottledReps
	}
	var slow []string
	// gateSlower fails an arm whose shared pass is slower than separate
	// execution where the scan rate's gate applies.
	gateSlower := func(kind string, n int, sharedMs, sepMs float64) {
		if (unthrottled || n >= scanGateAt) && sharedMs > sepMs*scanSlowdownTolerance {
			rep.Pass = false
			slow = append(slow, fmt.Sprintf("%d %scandidates: shared %.1fms vs separate %.1fms", n, kind, sharedMs, sepMs))
		}
	}
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		queries := scanCandidates(n)

		var sep map[int]merge.Result
		sepMs, err := bestOf(reps, func() (err error) {
			sep, err = merge.ExecuteSeparately(db, queries)
			return err
		})
		if err != nil {
			return fmt.Errorf("separate execution at %d candidates: %w", n, err)
		}

		plan := merge.BuildSharedPlan(queries)
		var shared map[int]merge.Result
		var stats sqldb.ScanStats
		sharedMs, err := bestOf(reps, func() (err error) {
			shared, stats, err = plan.Execute(db, 0, 0)
			return err
		})
		if err != nil {
			return fmt.Errorf("shared execution at %d candidates: %w", n, err)
		}

		for qi := range queries {
			if !sameResult(sep[qi], shared[qi]) {
				return fmt.Errorf("disagreement at %d candidates, candidate %d: separate %+v, shared %+v",
					n, qi, sep[qi], shared[qi])
			}
		}

		arm := scanArm{
			Candidates:       n,
			SeparateMillis:   sepMs,
			SharedMillis:     sharedMs,
			Predicates:       stats.Predicates,
			SharedPredicates: stats.SharedPredicates,
			ScannedRows:      stats.Rows,
		}
		if sharedMs > 0 {
			arm.Speedup = sepMs / sharedMs
		}
		rep.Arms = append(rep.Arms, arm)
		gateSlower("", n, sharedMs, sepMs)
	}

	// Grouped ladder: trend-shaped candidates through the same doubling
	// counts. Correctness is gated on full-result bit agreement (group
	// keys, order, every aggregate cell); performance on a hard speedup
	// floor, since each grouped candidate executed alone pays a whole
	// table pass the shared executor amortizes away.
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		queries := scanGroupedCandidates(n)

		var sep map[int]sqldb.Result
		sepMs, err := bestOf(reps, func() (err error) {
			sep, err = merge.ExecuteSeparatelyResults(db, queries)
			return err
		})
		if err != nil {
			return fmt.Errorf("separate grouped execution at %d candidates: %w", n, err)
		}

		plan := merge.BuildSharedPlan(queries)
		var shared map[int]sqldb.Result
		var stats sqldb.ScanStats
		sharedMs, err := bestOf(reps, func() (err error) {
			shared, stats, err = plan.ExecuteResults(db, 0, 0)
			return err
		})
		if err != nil {
			return fmt.Errorf("shared grouped execution at %d candidates: %w", n, err)
		}

		for qi := range queries {
			if !sameFullResult(sep[qi], shared[qi]) {
				return fmt.Errorf("grouped disagreement at %d candidates, candidate %d (%s): results differ",
					n, qi, queries[qi].SQL())
			}
		}

		arm := scanArm{
			Candidates:       n,
			SeparateMillis:   sepMs,
			SharedMillis:     sharedMs,
			Predicates:       stats.Predicates,
			SharedPredicates: stats.SharedPredicates,
			ScannedRows:      stats.Rows,
			Groups:           stats.Groups,
			Aggregates:       stats.Aggregates,
		}
		if sharedMs > 0 {
			arm.Speedup = sepMs / sharedMs
		}
		rep.GroupedArms = append(rep.GroupedArms, arm)
		gateSlower("grouped ", n, sharedMs, sepMs)
		if !unthrottled && n >= scanGateAt && arm.Speedup < scanGroupedSpeedupGate {
			rep.Pass = false
			slow = append(slow, fmt.Sprintf("%d grouped candidates: %.2fx speedup < %.0fx gate (shared %.1fms vs separate %.1fms)",
				n, arm.Speedup, scanGroupedSpeedupGate, sharedMs, sepMs))
		}
	}

	rate := fmt.Sprintf("modeled scan rate %.0f rows/s", throughput)
	if unthrottled {
		rate = fmt.Sprintf("unthrottled, best of %d runs", reps)
	}
	fmt.Printf("shared scan vs row-at-a-time: %s, %d rows, seed %d, %s\n\n",
		workload.NYC311.String(), rows, seed, rate)
	fmt.Printf("%-12s %14s %12s %9s %11s %8s\n", "candidates", "separate(ms)", "shared(ms)", "speedup", "predicates", "shared")
	for _, a := range rep.Arms {
		fmt.Printf("%-12d %14.1f %12.1f %8.2fx %11d %8d\n",
			a.Candidates, a.SeparateMillis, a.SharedMillis, a.Speedup, a.Predicates, a.SharedPredicates)
	}
	fmt.Printf("\ngrouped + multi-aggregate candidates (GROUP BY borough/agency/status):\n\n")
	fmt.Printf("%-12s %14s %12s %9s %8s %6s\n", "candidates", "separate(ms)", "shared(ms)", "speedup", "groups", "aggs")
	for _, a := range rep.GroupedArms {
		fmt.Printf("%-12d %14.1f %12.1f %8.2fx %8d %6d\n",
			a.Candidates, a.SeparateMillis, a.SharedMillis, a.Speedup, a.Groups, a.Aggregates)
	}
	fmt.Println("\nall candidate results bit-identical across strategies (values, group keys, and group order)")

	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("scan report written to %s\n", jsonPath)
	}
	if !rep.Pass {
		return fmt.Errorf("shared scan failed performance gates: %s", strings.Join(slow, "; "))
	}
	return nil
}
