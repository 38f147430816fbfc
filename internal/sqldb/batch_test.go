package sqldb

import (
	"math"
	"math/rand"
	"testing"
)

// kernelRows is a row count that is a multiple of neither 64 nor
// scanBatchRows, so the whole-table walk ends in a partial word of a
// partial batch.
const kernelRows = 2*scanBatchRows + 64*7 + 29

// kernelTable builds a table whose columns exercise every kernel edge:
// string codes, ints that are negative, far from the IN constants or at
// the int64 extremes, and floats including signed zeros and NaN.
func kernelTable(t *testing.T, rng *rand.Rand) *Table {
	t.Helper()
	tbl, err := NewTable("k",
		ColumnDef{Name: "s", Kind: KindString},
		ColumnDef{Name: "i", Kind: KindInt},
		ColumnDef{Name: "f", Kind: KindFloat},
	)
	if err != nil {
		t.Fatal(err)
	}
	strs := []string{"a", "b", "c", "d", "e"}
	oddInts := []int64{math.MinInt64, math.MaxInt64, 1 << 40, -1 << 40}
	floats := []float64{0, math.Copysign(0, -1), 1.5, 2, 7, math.NaN(), -3.25}
	for r := 0; r < kernelRows; r++ {
		i := int64(rng.Intn(30) - 10)
		if rng.Intn(50) == 0 {
			i = oddInts[rng.Intn(len(oddInts))]
		}
		err := tbl.AppendRow(
			Str(strs[rng.Intn(len(strs))]),
			Int(i),
			Float(floats[rng.Intn(len(floats))]),
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// kernelCases covers every kernel and the never classification.
var kernelCases = []struct {
	name  string
	pred  Predicate
	kind  filterKind
	never bool
}{
	{"string =", Predicate{Col: "s", Op: OpEq, Values: []Value{Str("b")}}, filterCodeEq, false},
	{"string IN", Predicate{Col: "s", Op: OpIn, Values: []Value{Str("a"), Str("d"), Str("zz"), Int(3), Str("a")}}, filterCodeIn, false},
	{"string IN one present", Predicate{Col: "s", Op: OpIn, Values: []Value{Str("zz"), Str("e")}}, filterCodeEq, false},
	{"string absent", Predicate{Col: "s", Op: OpEq, Values: []Value{Str("zz")}}, 0, true},
	{"string numeric literal", Predicate{Col: "s", Op: OpIn, Values: []Value{Int(1), Float(2)}}, 0, true},
	{"int =", Predicate{Col: "i", Op: OpEq, Values: []Value{Int(4)}}, filterIntEq, false},
	{"int = integral float", Predicate{Col: "i", Op: OpEq, Values: []Value{Float(-3)}}, filterIntEq, false},
	{"int = fractional float", Predicate{Col: "i", Op: OpEq, Values: []Value{Float(2.5)}}, 0, true},
	{"int IN", Predicate{Col: "i", Op: OpIn, Values: []Value{Int(-7), Float(3), Float(3.5), Int(12), Int(-7)}}, filterIntIn, false},
	{"int IN one integral", Predicate{Col: "i", Op: OpIn, Values: []Value{Float(0.5), Float(6)}}, filterIntEq, false},
	{"int IN wide range", Predicate{Col: "i", Op: OpIn, Values: []Value{Int(2), Int(1 << 40), Float(-1 << 40)}}, filterIntIn, false},
	{"int IN extremes", Predicate{Col: "i", Op: OpIn, Values: []Value{Int(math.MinInt64), Int(math.MaxInt64)}}, filterIntIn, false},
	{"int IN string literal", Predicate{Col: "i", Op: OpIn, Values: []Value{Str("4")}}, 0, true},
	{"float =", Predicate{Col: "f", Op: OpEq, Values: []Value{Float(1.5)}}, filterFloatIn, false},
	{"float = zero", Predicate{Col: "f", Op: OpEq, Values: []Value{Int(0)}}, filterFloatIn, false},
	{"float IN", Predicate{Col: "f", Op: OpIn, Values: []Value{Int(2), Float(-3.25), Float(math.NaN()), Float(9)}}, filterFloatIn, false},
	{"float IN string literal", Predicate{Col: "f", Op: OpIn, Values: []Value{Str("x")}}, 0, true},
}

// TestBatchFilterKernelsMatchRowCheck checks every kernel against the
// row-at-a-time compilePredicate check, bit by bit, over batch lengths
// around the word and batch boundaries at several offsets, and over the
// whole table in scan-sized batches. Destination words start as
// garbage, so a kernel that skips a word or leaves tail bits set fails.
func TestBatchFilterKernelsMatchRowCheck(t *testing.T) {
	tbl := kernelTable(t, rand.New(rand.NewSource(11)))
	rows := tbl.NumRows()
	for _, tc := range kernelCases {
		f, never, err := compileBatchFilter(tbl, tc.pred)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		chk, _, rowNever, err := compilePredicate(tbl, tc.pred)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if never != tc.never || rowNever != tc.never {
			t.Errorf("%s: never = %v (row check %v), want %v", tc.name, never, rowNever, tc.never)
			continue
		}
		if never {
			continue
		}
		if f.kind != tc.kind {
			t.Errorf("%s: kernel %d, want %d", tc.name, f.kind, tc.kind)
		}
		dst := newBitmap(scanBatchRows)
		check := func(lo, n int) {
			for i := range dst {
				dst[i] = 0xA5A5A5A5A5A5A5A5
			}
			f.fill(dst, lo, n)
			for k := 0; k < (n+63)/64*64; k++ {
				got := dst[k>>6]>>(k&63)&1 == 1
				want := k < n && chk(lo+k)
				if got != want {
					t.Fatalf("%s: rows [%d,%d) bit %d = %v, row check says %v", tc.name, lo, lo+n, k, got, want)
				}
			}
		}
		for _, n := range []int{1, 63, 64, 65, 2047, 2048} {
			for _, lo := range []int{0, 1, 63, 1000, rows - n} {
				check(lo, n)
			}
		}
		matched := 0
		for lo := 0; lo < rows; lo += scanBatchRows {
			n := min(scanBatchRows, rows-lo)
			check(lo, n)
			matched += dst.count(n)
		}
		if matched == 0 && tc.name != "int IN extremes" {
			t.Errorf("%s: matched no row; the case tests nothing", tc.name)
		}
	}
}

// TestBatchFilterFillDoesNotAllocate pins the steady state of the
// filter phase: once compiled, filling a batch allocates nothing.
func TestBatchFilterFillDoesNotAllocate(t *testing.T) {
	tbl := kernelTable(t, rand.New(rand.NewSource(12)))
	var filters []batchFilter
	for _, tc := range kernelCases {
		f, never, err := compileBatchFilter(tbl, tc.pred)
		if err != nil {
			t.Fatal(err)
		}
		if !never {
			filters = append(filters, f)
		}
	}
	dst := newBitmap(scanBatchRows)
	rows := tbl.NumRows()
	allocs := testing.AllocsPerRun(20, func() {
		for i := range filters {
			for lo := 0; lo < rows; lo += scanBatchRows {
				filters[i].fill(dst, lo, min(scanBatchRows, rows-lo))
			}
		}
	})
	if allocs != 0 {
		t.Errorf("filling every kernel over the table allocated %.1f times per run, want 0", allocs)
	}
}

// TestSharedScanRaggedTableBitIdentical runs every kernel through the
// full shared scan, ungrouped and grouped, on the ragged-length table
// and compares with row-at-a-time execution bit for bit.
func TestSharedScanRaggedTableBitIdentical(t *testing.T) {
	tbl := kernelTable(t, rand.New(rand.NewSource(13)))
	var queries []Query
	aggs := []Aggregate{{Func: AggCount}, {Func: AggSum, Col: "f"}, {Func: AggMin, Col: "i"}, {Func: AggAvg, Col: "f"}}
	for ci, tc := range kernelCases {
		q := Query{Table: "k", Aggs: []Aggregate{aggs[ci%len(aggs)], aggs[(ci+1)%len(aggs)]}, Preds: []Predicate{tc.pred}}
		queries = append(queries, q)
		g := q
		g.GroupBy = []string{"s"}
		queries = append(queries, g)
	}
	got, _, err := sharedScan(tbl, queries, execOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		want, err := execute(tbl, q, execOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameResultBits(got[qi], want); diff != "" {
			t.Errorf("%s: %s", q.SQL(), diff)
		}
	}
}

// BenchmarkSharedScan measures one shared pass over a 200k-row table
// answering 16 candidates: string equality and IN filters, an int
// equality, scalar and dictionary-code grouped aggregates.
func BenchmarkSharedScan(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	tbl, err := NewTable("sales",
		ColumnDef{Name: "cat", Kind: KindString},
		ColumnDef{Name: "region", Kind: KindString},
		ColumnDef{Name: "qty", Kind: KindInt},
		ColumnDef{Name: "price", Kind: KindFloat},
	)
	if err != nil {
		b.Fatal(err)
	}
	cats := []string{"apples", "oranges", "bananas", "grapes", "melons"}
	regions := []string{"north", "south", "east", "west", "central", "coast"}
	for i := 0; i < 200_000; i++ {
		if err := tbl.AppendRow(Str(cats[rng.Intn(len(cats))]), Str(regions[rng.Intn(len(regions))]),
			Int(int64(rng.Intn(10))), Float(rng.Float64()*100)); err != nil {
			b.Fatal(err)
		}
	}
	aggs := []Aggregate{{Func: AggCount}, {Func: AggSum, Col: "price"}, {Func: AggAvg, Col: "qty"}, {Func: AggMax, Col: "price"}}
	var queries []Query
	for i := 0; i < 16; i++ {
		q := Query{Table: "sales", Aggs: []Aggregate{aggs[i%len(aggs)]},
			Preds: []Predicate{{Col: "cat", Op: OpEq, Values: []Value{Str(cats[i%len(cats)])}}}}
		switch i % 4 {
		case 1:
			q.Preds = append(q.Preds, Predicate{Col: "region", Op: OpIn, Values: []Value{Str(regions[i%6]), Str(regions[(i+1)%6])}})
		case 2:
			q.Preds = append(q.Preds, Predicate{Col: "qty", Op: OpEq, Values: []Value{Int(int64(i % 10))}})
		case 3:
			q.GroupBy = []string{"region"}
		}
		queries = append(queries, q)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sharedScan(tbl, queries, execOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
