package sqldb

import (
	"fmt"
	"math"
	"math/bits"
)

// scanBatchRows is the number of rows one shared-scan batch covers. The
// batch is the unit of predicate vectorization: each distinct predicate
// fills one selection bitmap per batch, candidates AND the bitmaps they
// reference, and accumulation walks the surviving bits. 2048 rows keeps
// a batch's bitmaps (32 words each) and the touched column slices inside
// the L1 cache while amortizing the per-batch setup across enough rows.
const scanBatchRows = 2048

// bitmap is a selection vector over the rows of one batch: bit k set
// means batch-local row k survives. Word granularity makes predicate
// combination (AND) and population scans cheap.
type bitmap []uint64

// newBitmap returns a bitmap able to hold n bits.
func newBitmap(n int) bitmap {
	return make(bitmap, (n+63)/64)
}

// setAll sets the first n bits and clears every remaining bit, so
// trailing-word garbage can never leak into an AND chain.
func (b bitmap) setAll(n int) {
	full := n >> 6
	for i := 0; i < full; i++ {
		b[i] = ^uint64(0)
	}
	if rem := n & 63; rem != 0 {
		b[full] = (uint64(1) << uint(rem)) - 1
		full++
	}
	for i := full; i < len(b); i++ {
		b[i] = 0
	}
}

// and intersects b with o in place over the first nWords words.
func (b bitmap) and(o bitmap, nWords int) {
	for i := 0; i < nWords; i++ {
		b[i] &= o[i]
	}
}

// copyFrom overwrites the first nWords words of b with o's.
func (b bitmap) copyFrom(o bitmap, nWords int) {
	copy(b[:nWords], o[:nWords])
}

// count returns the number of set bits among the first n.
func (b bitmap) count(n int) int {
	nWords := (n + 63) / 64
	total := 0
	for i := 0; i < nWords; i++ {
		total += bits.OnesCount64(b[i])
	}
	return total
}

// filterKind selects the kernel a compiled batchFilter runs.
type filterKind uint8

const (
	// filterCodeEq is string `=`: one dictionary code.
	filterCodeEq filterKind = iota
	// filterCodeIn is string IN: a membership bitset over dictionary codes.
	filterCodeIn
	// filterIntEq is BIGINT `=`.
	filterIntEq
	// filterIntIn is BIGINT IN: one hash-set probe per row.
	filterIntIn
	// filterFloatIn is DOUBLE `=` or IN: one compare per constant.
	filterFloatIn
)

// batchFilter is one predicate compiled for vectorized evaluation: a
// kernel kind plus the typed column slice and constants it compares.
// fill writes one 64-bit word per 64 rows with a branch-free compare
// loop; only the int IN's hash probe calls into the runtime per row.
type batchFilter struct {
	kind filterKind

	codes  []int32 // string column dictionary codes
	ints   []int64 // BIGINT column
	floats []float64

	code   int32              // filterCodeEq constant
	i64    int64              // filterIntEq constant
	set    []uint64           // filterCodeIn membership bits
	intSet map[int64]struct{} // filterIntIn constants
	wants  []float64          // filterFloatIn constants
}

// compileBatchFilter resolves a predicate into a typed batch kernel,
// mirroring compilePredicate's semantics exactly: string constants
// become dictionary-code comparisons, multi-value INs become membership
// sets, and the never classification (no constant can match) agrees
// with the row-at-a-time compiler, so both paths select identical rows.
func compileBatchFilter(t *Table, p Predicate) (f batchFilter, never bool, err error) {
	c := t.Column(p.Col)
	if c == nil {
		return batchFilter{}, false, fmt.Errorf("sqldb: unknown column %q", p.Col)
	}
	switch c.Kind {
	case KindString:
		var codes []int32
		for _, v := range p.Values {
			if v.K != KindString {
				continue // numeric literal never equals a string
			}
			if code, ok := c.code(v.S); ok {
				codes = append(codes, code)
			}
		}
		switch len(codes) {
		case 0:
			return batchFilter{}, true, nil
		case 1:
			return batchFilter{kind: filterCodeEq, codes: c.codes, code: codes[0]}, false, nil
		}
		set := make([]uint64, (len(c.dict)+63)/64)
		for _, code := range codes {
			set[code>>6] |= 1 << (uint(code) & 63)
		}
		return batchFilter{kind: filterCodeIn, codes: c.codes, set: set}, false, nil
	case KindInt:
		var wants []int64
		for _, v := range p.Values {
			w := v.I
			switch {
			case v.K == KindInt:
			case v.K == KindFloat && v.F == math.Trunc(v.F):
				w = int64(v.F)
			default:
				continue
			}
			wants = append(wants, w)
		}
		switch len(wants) {
		case 0:
			return batchFilter{}, true, nil
		case 1:
			return batchFilter{kind: filterIntEq, ints: c.ints, i64: wants[0]}, false, nil
		}
		set := make(map[int64]struct{}, len(wants))
		for _, w := range wants {
			set[w] = struct{}{}
		}
		return batchFilter{kind: filterIntIn, ints: c.ints, intSet: set}, false, nil
	case KindFloat:
		var wants []float64
		for _, v := range p.Values {
			if v.K == KindInt || v.K == KindFloat {
				wants = append(wants, v.AsFloat())
			}
		}
		if len(wants) == 0 {
			return batchFilter{}, true, nil
		}
		return batchFilter{kind: filterFloatIn, floats: c.floats, wants: wants}, false, nil
	}
	return batchFilter{}, false, fmt.Errorf("sqldb: predicate on invalid column %q", p.Col)
}

// fill writes the match bits for rows [lo, lo+n) into dst: word i
// receives the verdicts for batch-local rows [64i, 64i+64). Every word
// covering a row is overwritten and bits past n in the last word are
// left clear, so dst needs no prior clear and is itself a valid
// selection over the batch.
func (f *batchFilter) fill(dst bitmap, lo, n int) {
	switch f.kind {
	case filterCodeEq:
		fillEq(dst, f.codes[lo:lo+n], f.code)
	case filterCodeIn:
		fillCodeIn(dst, f.codes[lo:lo+n], f.set)
	case filterIntEq:
		fillEq(dst, f.ints[lo:lo+n], f.i64)
	case filterIntIn:
		fillIntIn(dst, f.ints[lo:lo+n], f.intSet)
	case filterFloatIn:
		fillFloatIn(dst, f.floats[lo:lo+n], f.wants)
	}
}

// b2u converts a verdict to a 0/1 word without a branch (the compiler
// lowers it to a flag set).
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Every kernel builds a word the same way: each row's verdict enters at
// the top bit while earlier verdicts shift down, so after a chunk of m
// rows row k sits at bit k+64-m, and one final shift by 64-m puts it at
// bit k with the bits past the chunk clear. Shifting by a constant keeps
// the loop free of variable shifts.

// fillEq is the `=` kernel over dictionary codes or integers.
func fillEq[T int32 | int64](dst bitmap, col []T, want T) {
	for base := 0; base < len(col); base += 64 {
		chunk := col[base:min(base+64, len(col))]
		var w uint64
		for _, x := range chunk {
			w = w>>1 | b2u(x == want)<<63
		}
		dst[base>>6] = w >> (uint(64-len(chunk)) & 63)
	}
}

// fillCodeIn is the string IN kernel: one bit probe per row.
func fillCodeIn(dst bitmap, col []int32, set []uint64) {
	for base := 0; base < len(col); base += 64 {
		chunk := col[base:min(base+64, len(col))]
		var w uint64
		for _, x := range chunk {
			c := uint32(x)
			w = w>>1 | (set[c>>6]>>(c&63))<<63
		}
		dst[base>>6] = w >> (uint(64-len(chunk)) & 63)
	}
}

// fillIntIn is the BIGINT IN kernel: one hash probe per row, so long
// lists stay O(1) per row.
func fillIntIn(dst bitmap, col []int64, set map[int64]struct{}) {
	for base := 0; base < len(col); base += 64 {
		chunk := col[base:min(base+64, len(col))]
		var w uint64
		for _, x := range chunk {
			_, ok := set[x]
			w = w>>1 | b2u(ok)<<63
		}
		dst[base>>6] = w >> (uint(64-len(chunk)) & 63)
	}
}

// fillFloatIn is the DOUBLE `=`/IN kernel: each constant builds its own
// word over the chunk and the words are ORed.
func fillFloatIn(dst bitmap, col []float64, wants []float64) {
	for base := 0; base < len(col); base += 64 {
		chunk := col[base:min(base+64, len(col))]
		var hits uint64
		for _, want := range wants {
			var w uint64
			for _, x := range chunk {
				w = w>>1 | b2u(x == want)<<63
			}
			hits |= w
		}
		dst[base>>6] = hits >> (uint(64-len(chunk)) & 63)
	}
}

// fillSample writes the deterministic sample bitmap for rows [lo, lo+n):
// exactly the rows filterRowsRange keeps (rowHash at or below the rate
// threshold), including every trailing bit cleared, so it doubles as the
// AND base that masks filler tail garbage.
func fillSample(dst bitmap, lo, n int, seed, threshold uint64) {
	var w uint64
	for k := 0; k < n; k++ {
		if rowHash(uint64(lo+k), seed) <= threshold {
			w |= 1 << uint(k&63)
		}
		if k&63 == 63 {
			dst[k>>6] = w
			w = 0
		}
	}
	if n&63 != 0 {
		dst[(n-1)>>6] = w
	}
}
