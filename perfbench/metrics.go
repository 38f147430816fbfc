package main

import (
	"math"
	"sort"
	"time"
)

// metricDef declares one reported metric. BENCHMARK.json lists the same
// metrics (a test keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

// endToEnd are the metrics a user of the server sees, measured with
// tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"plot_ms_p50", "ms", "lower", 0.25},
	{"plot_ms_p95", "ms", "lower", 0.25},
	{"voice_ms_p50", "ms", "lower", 0.25},
	{"voice_ms_p95", "ms", "lower", 0.25},
	{"asks_per_s", "1/s", "higher", 0.25},
	{"allocs_per_ask", "count", "lower", 0.1},
	{"heap_mb", "MB", "lower", 0.1},
	{"plot_cost_ms", "ms", "lower", 0.15},
	{"voice_cost_ms", "ms", "lower", 0.15},
}

// perLayer are the traced run's metrics, per request of the modality
// that runs the layer unless the name says otherwise.
var perLayer = []metricDef{
	{"serve.self_ms", "ms", "lower", 0},
	{"serve.self_ms_2c", "ms", "lower", 0},
	{"serve.cache_hit_share", "share", "higher", 0},
	{"nlq.translate_ms", "ms", "lower", 0},
	{"nlq.candidates_ms", "ms", "lower", 0},
	{"nlq.candidates", "count", "lower", 0},
	{"nlq.allocs", "count", "lower", 0},
	{"nlq.catalog_ms", "ms", "lower", 0},
	{"core.solve_ms", "ms", "lower", 0},
	{"core.solve_allocs", "count", "lower", 0},
	{"ilp.nodes", "count", "lower", 0},
	{"ilp.lp_solves", "count", "lower", 0},
	{"ilp.simplex_iters", "count", "lower", 0},
	{"ilp.iters_per_ms", "1/ms", "higher", 0},
	{"speak.plan_ms", "ms", "lower", 0},
	{"speak.nodes", "count", "lower", 0},
	{"speak.simplex_iters", "count", "lower", 0},
	{"speak.render_ms", "ms", "lower", 0},
	{"speak.render_allocs", "count", "lower", 0},
	{"speak.words", "count", "lower", 0},
	{"merge.plan_us", "us", "lower", 0},
	{"sqldb.scan_ms", "ms", "lower", 0},
	{"sqldb.scan_allocs", "count", "lower", 0},
	{"sqldb.rows", "count", "lower", 0},
	{"sqldb.ns_per_row", "ns", "lower", 0},
	{"sqldb.predicate_share", "share", "lower", 0},
	{"sqldb.load_s", "s", "lower", 0},
	{"viz.svg_us", "us", "lower", 0},
	{"viz.svg_bytes", "bytes", "lower", 0},
	{"runtime.gc_cycles_per_ask", "count", "lower", 0},
	{"trace.gap_ms", "ms", "lower", 0},
}

// errorShare is reported with the end-to-end metrics but kept out of
// BENCHMARK.json: it is 0 on every accepted run (any failure exits
// non-zero), and the result line's failed/attempted carry it.
var errorShare = metricDef{"error_share", "share", "lower", 0}

// metricValue is one measured value as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects measured values by name.
type metricSet map[string]metricValue

// set records a declared metric.
func (m metricSet) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer, {errorShare}} {
		for _, d := range defs {
			if d.Name == name {
				m[name] = metricValue{Value: v, Unit: d.Unit}
				return
			}
		}
	}
	panic("undeclared metric " + name)
}

// only keeps the metrics in defs.
func (m metricSet) only(defs []metricDef) metricSet {
	out := metricSet{}
	for _, d := range defs {
		if v, ok := m[d.Name]; ok {
			out[d.Name] = v
		}
	}
	return out
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// blockQuantile is the median, over consecutive blocks of minPairs
// samples (the last block takes the remainder), of each block's
// q-quantile, so one noisy stretch of a run moves one block, not the
// figure. xs is in request order and is left unchanged.
func blockQuantile(xs []float64, q float64) float64 {
	n := max(len(xs)/minPairs, 1)
	per := make([]float64, n)
	for b := range per {
		hi := (b + 1) * minPairs
		if b == n-1 {
			hi = len(xs)
		}
		per[b] = quantile(append([]float64(nil), xs[b*minPairs:hi]...), q)
	}
	return median(per)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never ran).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
