package sqldb

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"
)

// ScanStats describes the work one or more shared scans performed. The
// serving layer aggregates these per answer and exports them as
// muve_scan_* metrics; zero-valued stats mean no shared scan ran.
type ScanStats struct {
	// Scans is the number of table passes executed.
	Scans int64
	// Rows is the total rows covered by those passes (table rows per
	// scan, regardless of sampling — sampling reduces rows *read*, which
	// the throughput throttle accounts separately).
	Rows int64
	// Batches is the number of vectorized batches processed.
	Batches int64
	// Candidates is the number of candidate aggregates answered.
	Candidates int64
	// Predicates is the total predicate instances across candidates.
	Predicates int64
	// SharedPredicates is the number of distinct predicates actually
	// evaluated; Predicates − SharedPredicates filters were deduplicated.
	SharedPredicates int64
	// Groups is the total output groups emitted for grouped candidates
	// (zero when every candidate was ungrouped).
	Groups int64
	// Aggregates is the total aggregate accumulators maintained across
	// candidates; Aggregates − Candidates counts the extra aggregates
	// multi-aggregate candidates rode along for free.
	Aggregates int64
	// SketchHits counts candidate values answered from a precomputed
	// aggregate sketch instead of any scan.
	SketchHits int64
	// SketchBuilds counts sketch constructions (each one sampled scan).
	SketchBuilds int64
}

// Add accumulates o into s.
func (s *ScanStats) Add(o ScanStats) {
	s.Scans += o.Scans
	s.Rows += o.Rows
	s.Batches += o.Batches
	s.Candidates += o.Candidates
	s.Predicates += o.Predicates
	s.SharedPredicates += o.SharedPredicates
	s.Groups += o.Groups
	s.Aggregates += o.Aggregates
	s.SketchHits += o.SketchHits
	s.SketchBuilds += o.SketchBuilds
}

// Empty reports whether no scan work was recorded.
func (s ScanStats) Empty() bool { return s == ScanStats{} }

// scanCandidate is one candidate query being accumulated during a
// shared scan. Ungrouped candidates keep one aggState per aggregate in
// `states`; a single-string-column GROUP BY — the shape every merged
// MUVE query and trend query has — keeps a dense states slice indexed
// directly by dictionary code (states[code*nAggs+j]); composite group
// keys fall back to hash aggregation, mirroring groupAggregate.
type scanCandidate struct {
	filters []int // sorted indices into the distinct-filter list
	never   bool  // some predicate can match no row
	q       Query
	inputs  []aggInput
	nAggs   int

	// Flat accumulator storage: ungrouped (len nAggs) or dictionary-code
	// indexed (len nCodes*nAggs, keyCol non-nil).
	states []aggState
	keyCol *Column
	seen   []bool

	// Composite-key fallback (keyCols non-nil).
	keyCols []*Column
	hashed  map[string]*hashedGroup
	keyBuf  []byte
}

// aggInput is one aggregate's typed input: a COUNT needs only the
// number of selected rows, every other aggregate reads a BIGINT or
// DOUBLE column directly (Validate admits no other input).
type aggInput struct {
	count  bool
	ints   []int64
	floats []float64
}

// at reads row i as the float the row-at-a-time accessor would return.
func (in *aggInput) at(i int) float64 {
	if in.floats != nil {
		return in.floats[i]
	}
	return float64(in.ints[i])
}

// hashedGroup is one composite group's accumulator tuple.
type hashedGroup struct {
	key    []Value
	states []aggState
}

// newScanCandidate sets up accumulator storage for one validated query.
func newScanCandidate(t *Table, q Query) *scanCandidate {
	c := &scanCandidate{q: q, nAggs: len(q.Aggs)}
	c.inputs = make([]aggInput, c.nAggs)
	for j, a := range q.Aggs {
		// COUNT renders only its row count, so a COUNT over a column
		// takes the same popcount path as COUNT(*).
		if a.Func == AggCount {
			c.inputs[j].count = true
			continue
		}
		col := t.Column(a.Col)
		c.inputs[j].ints, c.inputs[j].floats = col.ints, col.floats
	}
	switch {
	case len(q.GroupBy) == 0:
		c.states = make([]aggState, c.nAggs)
	case len(q.GroupBy) == 1 && t.Column(q.GroupBy[0]).Kind == KindString:
		c.keyCol = t.Column(q.GroupBy[0])
		c.states = make([]aggState, len(c.keyCol.dict)*c.nAggs)
		c.seen = make([]bool, len(c.keyCol.dict))
	default:
		c.keyCols = make([]*Column, len(q.GroupBy))
		for k, g := range q.GroupBy {
			c.keyCols[k] = t.Column(g)
		}
		c.hashed = make(map[string]*hashedGroup, 64)
	}
	return c
}

// foldBatch accumulates the selected rows of the batch starting at row
// lo into the candidate's aggregates, one aggregate at a time over
// typed column slices. Within each accumulator rows arrive in ascending
// order, so every group's accumulator sees exactly the float additions
// — in exactly the order — the row-at-a-time path performs for it;
// walking aggregates one after another instead of interleaving them per
// row changes no accumulator's sequence.
func (c *scanCandidate) foldBatch(sel bitmap, lo, n int) {
	nWords := (n + 63) / 64
	switch {
	case c.keyCol != nil:
		codes := c.keyCol.codes[lo : lo+n]
		for j := range c.inputs {
			in := &c.inputs[j]
			switch {
			case in.count:
				foldCodeCounts(c.states, c.nAggs, j, c.seen, sel[:nWords], codes)
			case in.floats != nil:
				foldCodeRows(c.states, c.nAggs, j, c.seen, sel[:nWords], codes, in.floats[lo:lo+n])
			default:
				foldCodeRows(c.states, c.nAggs, j, c.seen, sel[:nWords], codes, in.ints[lo:lo+n])
			}
		}
	case c.keyCols != nil:
		for wi, w := range sel[:nWords] {
			for w != 0 {
				c.foldHashed(lo + wi<<6 + bits.TrailingZeros64(w))
				w &= w - 1
			}
		}
	default:
		for j := range c.inputs {
			in := &c.inputs[j]
			switch {
			case in.count:
				c.states[j].count += int64(sel.count(n))
			case in.floats != nil:
				foldRows(&c.states[j], sel[:nWords], in.floats[lo:lo+n])
			default:
				foldRows(&c.states[j], sel[:nWords], in.ints[lo:lo+n])
			}
		}
	}
}

// foldRows adds every selected row of a batch-local column slice to one
// accumulator, kept in registers for the batch.
func foldRows[T int64 | float64](st *aggState, sel bitmap, col []T) {
	s := *st
	for wi, w := range sel {
		base := wi << 6
		for w != 0 {
			s.add(float64(col[base+bits.TrailingZeros64(w)]))
			w &= w - 1
		}
	}
	*st = s
}

// foldCodeCounts counts selected rows into aggregate j of their
// dictionary-code group and marks the groups seen.
func foldCodeCounts(states []aggState, nAggs, j int, seen []bool, sel bitmap, codes []int32) {
	for wi, w := range sel {
		base := wi << 6
		for w != 0 {
			code := int(codes[base+bits.TrailingZeros64(w)])
			seen[code] = true
			states[code*nAggs+j].count++
			w &= w - 1
		}
	}
}

// foldCodeRows adds selected rows into aggregate j of their
// dictionary-code group and marks the groups seen.
func foldCodeRows[T int64 | float64](states []aggState, nAggs, j int, seen []bool, sel bitmap, codes []int32, col []T) {
	for wi, w := range sel {
		base := wi << 6
		for w != 0 {
			k := base + bits.TrailingZeros64(w)
			code := int(codes[k])
			seen[code] = true
			states[code*nAggs+j].add(float64(col[k]))
			w &= w - 1
		}
	}
}

// foldHashed accumulates row i into its composite-key group, hashing
// the serialized key exactly like groupAggregate.
func (c *scanCandidate) foldHashed(i int) {
	c.keyBuf = c.keyBuf[:0]
	for _, kc := range c.keyCols {
		c.keyBuf = appendKeyPart(c.keyBuf, kc, i)
	}
	g, ok := c.hashed[string(c.keyBuf)]
	if !ok {
		key := make([]Value, len(c.keyCols))
		for k, kc := range c.keyCols {
			key[k] = kc.Value(i)
		}
		g = &hashedGroup{key: key, states: make([]aggState, c.nAggs)}
		c.hashed[string(c.keyBuf)] = g
	}
	for j := range c.inputs {
		if c.inputs[j].count {
			g.states[j].count++
		} else {
			g.states[j].add(c.inputs[j].at(i))
		}
	}
}

// groupCount returns the number of output groups a grouped candidate
// produced (zero for ungrouped candidates).
func (c *scanCandidate) groupCount() int64 {
	switch {
	case c.keyCol != nil:
		var n int64
		for _, ok := range c.seen {
			if ok {
				n++
			}
		}
		return n
	case c.keyCols != nil:
		return int64(len(c.hashed))
	}
	return 0
}

// result renders the candidate's final Result, matching the
// row-at-a-time executor's shape and ordering exactly: ungrouped
// candidates emit one row; dictionary-code groups emit in dictionary
// string order (emitGroupedResult); composite groups emit sorted by
// their serialized key, like groupAggregate.
func (c *scanCandidate) result(scale float64) Result {
	switch {
	case c.keyCol != nil:
		return emitGroupedResult(c.q, c.keyCol, c.states, c.seen, scale)
	case c.keyCols != nil:
		cols := append(append([]string(nil), c.q.GroupBy...), aggColNames(c.q)...)
		res := Result{Cols: cols}
		keys := make([]string, 0, len(c.hashed))
		for k := range c.hashed {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			g := c.hashed[k]
			row := make([]Value, 0, len(g.key)+c.nAggs)
			row = append(row, g.key...)
			for j, a := range c.q.Aggs {
				row = append(row, g.states[j].value(a.Func, scale))
			}
			res.Rows = append(res.Rows, row)
		}
		return res
	default:
		row := make([]Value, c.nAggs)
		for j, a := range c.q.Aggs {
			row[j] = c.states[j].value(a.Func, scale)
		}
		return Result{Cols: aggColNames(c.q), Rows: [][]Value{row}}
	}
}

// sharedScan evaluates every candidate query over t — any mix of
// ungrouped, grouped and multi-aggregate shapes — in ONE pass over the
// table. Distinct predicates are compiled once and evaluated once per
// batch into selection bitmaps; candidates sharing the same predicate
// signature share the combined bitmap; surviving rows are folded into
// per-candidate accumulators in ascending row order, which makes every
// result bit-identical to the row-at-a-time path (same float additions
// in the same order, same deterministic sample membership, same group
// output order by construction: ascending batches, ascending set bits,
// and group emission ordered exactly as the serial executor orders it).
func sharedScan(t *Table, queries []Query, opt execOptions) ([]Result, ScanStats, error) {
	stats := ScanStats{Scans: 1, Rows: int64(t.NumRows()), Candidates: int64(len(queries))}
	if len(queries) == 0 {
		return nil, ScanStats{}, nil
	}

	// Compile: dedup predicates across candidates by their rendered form
	// (which covers column, operator and constants).
	filterIdx := make(map[string]int)
	var filters []batchFilter
	var nevers []bool
	cands := make([]*scanCandidate, len(queries))
	for qi, q := range queries {
		if err := q.Validate(t); err != nil {
			return nil, ScanStats{}, err
		}
		cand := newScanCandidate(t, q)
		stats.Predicates += int64(len(q.Preds))
		stats.Aggregates += int64(len(q.Aggs))
		for _, p := range q.Preds {
			key := p.String()
			fi, ok := filterIdx[key]
			if !ok {
				f, never, err := compileBatchFilter(t, p)
				if err != nil {
					return nil, ScanStats{}, err
				}
				fi = len(filters)
				filterIdx[key] = fi
				filters = append(filters, f)
				nevers = append(nevers, never)
			}
			if nevers[fi] {
				cand.never = true
			} else {
				cand.filters = append(cand.filters, fi)
			}
		}
		sort.Ints(cand.filters)
		cands[qi] = cand
	}
	stats.SharedPredicates = int64(len(filters))

	// Group candidates by filter signature so each distinct conjunction
	// combines its bitmaps — and walks its surviving rows — exactly once.
	type scanGroup struct {
		filters []int
		members []*scanCandidate
	}
	// The signature is the filter indices as fixed-width bytes; the map
	// lookup by string(sig) does not allocate.
	groupIdx := make(map[string]int)
	var groups []*scanGroup
	var sig []byte
	for _, cand := range cands {
		if cand.never {
			continue // empty selection; its zero state already renders correctly
		}
		sig = sig[:0]
		for _, fi := range cand.filters {
			sig = binary.LittleEndian.AppendUint32(sig, uint32(fi))
		}
		gi, ok := groupIdx[string(sig)]
		if !ok {
			gi = len(groups)
			groupIdx[string(sig)] = gi
			groups = append(groups, &scanGroup{filters: cand.filters})
		}
		groups[gi].members = append(groups[gi].members, cand)
	}

	// Only fill bitmaps some live group still references.
	used := make([]bool, len(filters))
	for _, g := range groups {
		for _, fi := range g.filters {
			used[fi] = true
		}
	}

	sampling := opt.sampleRate > 0 && opt.sampleRate < 1
	var threshold uint64
	if sampling {
		// Must match filterRowsRange's expression exactly so both paths
		// agree on sample membership.
		threshold = uint64(opt.sampleRate * float64(math.MaxUint64))
	}

	base := newBitmap(scanBatchRows)
	cur := newBitmap(scanBatchRows)
	filterBms := make([]bitmap, len(filters))
	for fi := range filterBms {
		if used[fi] {
			filterBms[fi] = newBitmap(scanBatchRows)
		}
	}

	rows := t.NumRows()
	for lo := 0; lo < rows; lo += scanBatchRows {
		n := rows - lo
		if n > scanBatchRows {
			n = scanBatchRows
		}
		stats.Batches++
		nWords := (n + 63) / 64
		if sampling {
			fillSample(base, lo, n, opt.sampleSeed, threshold)
		} else {
			base.setAll(n)
		}
		for fi := range filterBms {
			if used[fi] {
				filters[fi].fill(filterBms[fi], lo, n)
			}
		}
		for _, g := range groups {
			sel := base
			if len(g.filters) > 0 {
				cur.copyFrom(base, nWords)
				for _, fi := range g.filters {
					cur.and(filterBms[fi], nWords)
				}
				sel = cur
			}
			for _, m := range g.members {
				m.foldBatch(sel, lo, n)
			}
		}
	}

	scale := 1.0
	if sampling {
		scale = 1 / opt.sampleRate
	}
	out := make([]Result, len(queries))
	for qi, cand := range cands {
		out[qi] = cand.result(scale)
		stats.Groups += cand.groupCount()
	}
	return out, stats, nil
}

// ExecSharedResults evaluates a set of queries of any supported shape —
// ungrouped or grouped, single- or multi-aggregate — all against the
// same table, in one shared table pass, and returns one full Result per
// query (positionally). This is the cross-candidate generalization of
// the paper's query merging: merging batches only same-template
// candidates into IN + GROUP BY, while the shared scan feeds arbitrary
// candidate shapes — different functions, columns, predicates, group
// keys and aggregate counts — from a single scan's worth of data
// movement.
func (db *DB) ExecSharedResults(queries []Query) ([]Result, ScanStats, error) {
	return db.execShared(queries, 0, 0)
}

// ExecSharedResultsSampled is ExecSharedResults over the deterministic
// uniform sample with the given rate in (0, 1]; COUNT and SUM are
// scaled, and sample membership matches ExecSampled for the same seed,
// so approximate shared-scan answers agree bit-for-bit with per-query
// sampled answers.
func (db *DB) ExecSharedResultsSampled(queries []Query, rate float64, seed uint64) ([]Result, ScanStats, error) {
	if rate <= 0 || rate > 1 {
		return nil, ScanStats{}, fmt.Errorf("sqldb: sample rate %v outside (0, 1]", rate)
	}
	return db.execShared(queries, rate, seed)
}

// ExecShared evaluates a set of single-aggregate ungrouped queries, all
// against the same table, in one shared table pass and returns one
// scalar Value per query (positionally). It is the scalar convenience
// form of ExecSharedResults for the multiplot candidate class.
func (db *DB) ExecShared(queries []Query) ([]Value, ScanStats, error) {
	if err := requireScalar(queries); err != nil {
		return nil, ScanStats{}, err
	}
	res, stats, err := db.execShared(queries, 0, 0)
	return scalars(res), stats, err
}

// ExecSharedSampled is ExecShared over the deterministic uniform sample
// with the given rate in (0, 1].
func (db *DB) ExecSharedSampled(queries []Query, rate float64, seed uint64) ([]Value, ScanStats, error) {
	if err := requireScalar(queries); err != nil {
		return nil, ScanStats{}, err
	}
	if rate <= 0 || rate > 1 {
		return nil, ScanStats{}, fmt.Errorf("sqldb: sample rate %v outside (0, 1]", rate)
	}
	res, stats, err := db.execShared(queries, rate, seed)
	return scalars(res), stats, err
}

// requireScalar guards the scalar ExecShared entry points.
func requireScalar(queries []Query) error {
	for _, q := range queries {
		if len(q.Aggs) != 1 || len(q.GroupBy) != 0 {
			return fmt.Errorf("sqldb: ExecShared requires single ungrouped aggregates, got %q (use ExecSharedResults)", q.SQL())
		}
	}
	return nil
}

// scalars extracts the single value of each scalar result.
func scalars(res []Result) []Value {
	if res == nil {
		return nil
	}
	out := make([]Value, len(res))
	for i, r := range res {
		out[i] = r.Rows[0][0]
	}
	return out
}

func (db *DB) execShared(queries []Query, rate float64, seed uint64) ([]Result, ScanStats, error) {
	if len(queries) == 0 {
		return nil, ScanStats{}, nil
	}
	name := queries[0].Table
	for _, q := range queries[1:] {
		if q.Table != name {
			return nil, ScanStats{}, fmt.Errorf("sqldb: shared scan spans tables %q and %q", name, q.Table)
		}
	}
	t, err := db.Table(name)
	if err != nil {
		return nil, ScanStats{}, err
	}
	start := time.Now()
	res, stats, err := sharedScan(t, queries, execOptions{sampleRate: rate, sampleSeed: seed})
	// The whole point: one scan's worth of data movement feeds every
	// candidate, so the throughput model charges the table ONCE — not
	// once per query like the row-at-a-time path.
	effective := float64(t.NumRows())
	if rate > 0 && rate < 1 {
		effective *= rate
	}
	db.throttle(start, effective)
	return res, stats, err
}
