package ilp

import (
	"math"
	"time"
)

// lpStatus is the outcome of an LP relaxation solve.
type lpStatus uint8

const (
	lpOptimal lpStatus = iota
	lpInfeasible
	lpUnbounded
	lpAborted // deadline or iteration cap hit
	lpCutoff  // the dual bound reached the caller's cutoff before optimality
)

// lpProblem is a linear program in the form
//
//	min c'x  s.t.  A x (<=|>=|=) b,  lo <= x <= hi
//
// Bounds stay bounds: the simplex keeps a nonbasic variable at one of
// them, so no bound ever becomes a row. A nil lo (hi) means every lower
// (upper) bound is 0 (+Inf).
type lpProblem struct {
	c      []float64 // length n
	a      [][]float64
	sense  []Sense // length m
	b      []float64
	lo, hi []float64
}

const (
	// primalTol is how far a basic variable may sit outside its bounds
	// and still count as feasible.
	primalTol = 1e-7
	// dualTol is the reduced-cost tolerance of the optimality tests.
	dualTol = 1e-9
	// pivotTol is the smallest tableau entry accepted as a pivot.
	pivotTol = 1e-9
	// deadlineCheckMask throttles time.Now calls to every 64 iterations.
	deadlineCheckMask = 63
)

// Nonbasic positions of a column in lpTab.state; a basic column stores
// its tableau row (>= 0) instead.
const (
	nbLo   int32 = -1 // at its lower bound
	nbHi   int32 = -2 // at its upper bound
	nbFree int32 = -3 // free (both bounds infinite), held at zero
)

// lpTab is a dense bounded-variable simplex tableau. Row i reads
// a_i x + s_i = b_i over the n structural columns and one slack column
// per row; a slack's bounds carry its row's sense (<= gives s >= 0,
// >= gives s <= 0, = gives s = 0), so the slack basis is always a basis
// and no artificial column exists.
//
// The tableau is the unit of warm starting in branch and bound: a child
// node is its parent's optimal tableau with one bound changed, which
// leaves it dual feasible, so the dual simplex re-solves it in a few
// pivots. copyFrom makes such a snapshot; all of a tableau's numbers
// live in two flat buffers, so a snapshot is two copies and a warm
// tableau never allocates again.
type lpTab struct {
	m, n int
	c    []float64 // structural costs; shared read-only with snapshots

	f []float64 // backing for t | beta | d | lo | hi
	g []int32   // backing for head | state

	t      [][]float64 // m rows of B^-1 [A I], width n+m
	beta   []float64   // value of the basic column of each row
	d      []float64   // reduced costs, length n+m
	lo, hi []float64   // column bounds, length n+m
	head   []int32     // basic column of each row
	state  []int32     // basic row, or nbLo/nbHi/nbFree

	// obj is c'x at the current basis. While the basis is dual feasible
	// it is a lower bound on the LP optimum; after a solve it is exact.
	obj float64
	// iters counts the pivots and bound flips of the last solve.
	iters int

	// Scratch, not part of a snapshot: pivot-row nonzero columns, dual
	// ratio test candidates, structural values.
	nz    []int
	cands []ratioCand
	x     []float64
}

// shape sizes the tableau for m rows and n structural columns and lays
// the views over the flat buffers. Contents are unspecified.
func (tb *lpTab) shape(m, n int) {
	w := n + m
	nf := m*w + m + 3*w
	if cap(tb.f) < nf {
		tb.f = make([]float64, nf)
	}
	tb.f = tb.f[:nf]
	if ng := m + w; cap(tb.g) < ng {
		tb.g = make([]int32, ng)
	} else {
		tb.g = tb.g[:ng]
	}
	if cap(tb.t) < m {
		tb.t = make([][]float64, m)
	}
	tb.t = tb.t[:m]
	for i := range tb.t {
		tb.t[i] = tb.f[i*w : (i+1)*w : (i+1)*w]
	}
	off := m * w
	tb.beta = tb.f[off : off+m]
	off += m
	tb.d = tb.f[off : off+w]
	off += w
	tb.lo = tb.f[off : off+w]
	off += w
	tb.hi = tb.f[off : off+w]
	tb.head = tb.g[:m]
	tb.state = tb.g[m:]
	tb.m, tb.n = m, n
}

// copyFrom makes tb a snapshot of src: same basis, values, reduced
// costs and bounds, independent storage.
func (tb *lpTab) copyFrom(src *lpTab) {
	tb.shape(src.m, src.n)
	copy(tb.f, src.f)
	copy(tb.g, src.g)
	tb.c = src.c
	tb.obj = src.obj
}

// load sets tb to p's slack basis. Each structural column starts at the
// bound its cost prefers (upper when the cost is negative), which makes
// the slack basis dual feasible whenever that bound is finite.
func (tb *lpTab) load(p *lpProblem) {
	m, n := len(p.a), len(p.c)
	tb.shape(m, n)
	clear(tb.f)
	tb.c = p.c
	inf := math.Inf(1)
	for j := 0; j < n; j++ {
		lo, hi := 0.0, inf
		if p.lo != nil {
			lo = p.lo[j]
		}
		if p.hi != nil {
			hi = p.hi[j]
		}
		tb.lo[j], tb.hi[j] = lo, hi
		tb.d[j] = p.c[j]
		switch {
		case p.c[j] < 0 && !math.IsInf(hi, 1):
			tb.state[j] = nbHi
		case !math.IsInf(lo, -1):
			tb.state[j] = nbLo
		case !math.IsInf(hi, 1):
			tb.state[j] = nbHi
		default:
			tb.state[j] = nbFree
		}
	}
	for i := 0; i < m; i++ {
		row := tb.t[i]
		copy(row, p.a[i])
		s := n + i
		row[s] = 1
		tb.head[i] = int32(s)
		tb.state[s] = int32(i)
		switch p.sense[i] {
		case LE:
			tb.lo[s], tb.hi[s] = 0, inf
		case GE:
			tb.lo[s], tb.hi[s] = -inf, 0
		case EQ:
			tb.lo[s], tb.hi[s] = 0, 0
		}
		v := p.b[i]
		for j, a := range p.a[i] {
			if a != 0 {
				v -= a * tb.value(j)
			}
		}
		tb.beta[i] = v
	}
}

// value returns column j's current value.
func (tb *lpTab) value(j int) float64 {
	switch s := tb.state[j]; s {
	case nbLo:
		return tb.lo[j]
	case nbHi:
		return tb.hi[j]
	case nbFree:
		return 0
	default:
		return tb.beta[s]
	}
}

// objective computes c'x at the current basis from scratch.
func (tb *lpTab) objective() float64 {
	v := 0.0
	for j, cj := range tb.c {
		if cj != 0 {
			v += cj * tb.value(j)
		}
	}
	return v
}

// structural returns the structural columns' values in a buffer owned
// by tb, valid until its next call.
func (tb *lpTab) structural() []float64 {
	x := growFloats(&tb.x, tb.n)
	for j := range x {
		x[j] = tb.value(j)
	}
	return x
}

// fix sets column j's bounds to [v, v], keeping the basis. A nonbasic
// column moves to v and the basic values follow; a basic one is left
// primal infeasible for the dual simplex to repair. Either way the
// reduced costs are untouched, so a dual feasible tableau stays dual
// feasible.
func (tb *lpTab) fix(j int, v float64) {
	old := tb.value(j)
	tb.lo[j], tb.hi[j] = v, v
	if tb.state[j] >= 0 {
		return
	}
	if delta := v - old; delta != 0 {
		for i, row := range tb.t {
			if a := row[j]; a != 0 {
				tb.beta[i] -= a * delta
			}
		}
	}
	tb.state[j] = nbLo
}

// iterCap bounds one solve's pivots; past half of it both simplex
// methods switch to smallest-index rules, which cannot cycle.
func (tb *lpTab) iterCap() int {
	c := 200 * (tb.m + tb.n + tb.m)
	if c < 2000 {
		c = 2000
	}
	return c
}

// stop reports whether a solve has run out of iterations or time. The
// clock is read every 64 iterations, after the first 63: a warm
// re-solve usually needs fewer, and the branch-and-bound loop polls
// the deadline between nodes itself.
func (tb *lpTab) stop(iter, iterCap int, deadline time.Time) bool {
	if iter > iterCap {
		return true
	}
	return iter&deadlineCheckMask == deadlineCheckMask && pastDeadline(deadline)
}

// pastDeadline reports whether a deadline is set and has passed.
func pastDeadline(deadline time.Time) bool {
	return !deadline.IsZero() && time.Now().After(deadline)
}

// solve finds an optimum from the current basis. Columns whose reduced
// cost has the wrong sign for the bound they sit at (only possible
// where that bound is infinite) start at a reduced cost of zero, so the
// basis is dual feasible; the dual simplex then reaches primal
// feasibility, and when any cost was zeroed the primal simplex finishes
// against the true costs (and is the one that can prove unboundedness).
func (tb *lpTab) solve(deadline time.Time) lpStatus {
	tb.iters = 0
	if pastDeadline(deadline) {
		return lpAborted
	}
	shifted := false
	for j := range tb.d {
		if tb.state[j] < 0 && tb.wrongSign(j) {
			tb.d[j] = 0
			shifted = true
		}
	}
	if st := tb.dual(deadline, math.Inf(1)); st != lpOptimal || !shifted {
		return st
	}
	tb.priceOut()
	return tb.primal(deadline)
}

// wrongSign reports whether nonbasic column j's reduced cost says the
// objective improves by moving it off its current bound.
func (tb *lpTab) wrongSign(j int) bool {
	dj := tb.d[j]
	switch tb.state[j] {
	case nbLo:
		return dj < -dualTol && tb.lo[j] < tb.hi[j]
	case nbHi:
		return dj > dualTol && tb.lo[j] < tb.hi[j]
	default:
		return math.Abs(dj) > dualTol
	}
}

// priceOut recomputes every reduced cost from the structural costs:
// d_j = c_j - c_B' B^-1 A_j.
func (tb *lpTab) priceOut() {
	clear(tb.d)
	copy(tb.d, tb.c)
	for i, row := range tb.t {
		h := int(tb.head[i])
		if h >= tb.n || tb.c[h] == 0 {
			continue
		}
		cb := tb.c[h]
		for j, a := range row {
			if a != 0 {
				tb.d[j] -= cb * a
			}
		}
	}
	for i := range tb.t {
		tb.d[tb.head[i]] = 0
	}
}

// resolve re-optimizes a dual feasible tableau (a branch-and-bound
// child) with the dual simplex, stopping early at cutoff.
func (tb *lpTab) resolve(deadline time.Time, cutoff float64) lpStatus {
	tb.iters = 0
	return tb.dual(deadline, cutoff)
}

// dual runs the bounded dual simplex from a dual feasible basis until
// the basis is primal feasible (lpOptimal), the row chosen to leave
// proves the LP infeasible, or the dual bound c'x reaches cutoff
// (lpCutoff: the optimum can only be higher).
func (tb *lpTab) dual(deadline time.Time, cutoff float64) lpStatus {
	iterCap := tb.iterCap()
	tb.obj = tb.objective()
	checkCut := !math.IsInf(cutoff, 1)
	for iter := 0; ; iter++ {
		if tb.stop(iter, iterCap, deadline) {
			return lpAborted
		}
		bland := iter > iterCap/2
		// Leaving row: the basic value furthest outside its bounds.
		r := -1
		worst := primalTol
		for i, v := range tb.beta {
			h := tb.head[i]
			var gap float64
			switch {
			case v < tb.lo[h]-primalTol:
				gap = tb.lo[h] - v
			case v > tb.hi[h]+primalTol:
				gap = v - tb.hi[h]
			default:
				continue
			}
			if bland {
				if r == -1 || h < tb.head[r] {
					r = i
				}
			} else if gap > worst {
				worst, r = gap, i
			}
		}
		if r == -1 {
			tb.obj = tb.objective()
			return lpOptimal
		}
		leave := int(tb.head[r])
		target, leaveTo := tb.hi[leave], nbHi
		rise := tb.beta[r] < tb.lo[leave]
		if rise {
			target, leaveTo = tb.lo[leave], nbLo
		}
		q := tb.dualRatio(r, rise, bland)
		if q < 0 {
			return lpInfeasible
		}
		step := (tb.beta[r] - target) / tb.t[r][q]
		tb.obj += tb.d[q] * step
		xq := tb.move(q, step)
		tb.state[leave] = leaveTo
		tb.pivot(r, q, xq)
		tb.iters++
		if checkCut && tb.obj >= cutoff {
			if tb.obj = tb.objective(); tb.obj >= cutoff {
				return lpCutoff
			}
		}
	}
}

// dualRatio picks the entering column for leaving row r (rise: the
// leaving variable must increase to reach its bound) with a two-pass
// Harris ratio test: among the columns whose dual ratio is within the
// tolerance-relaxed minimum, take the largest pivot. In Bland mode it
// takes the smallest index at the exact minimum. It returns -1 when no
// column can move the leaving variable toward its bound, which proves
// the LP infeasible.
func (tb *lpTab) dualRatio(r int, rise, bland bool) int {
	relax := dualTol
	if bland {
		relax = 0
	}
	flip := 1.0
	if rise {
		flip = -1
	}
	// Pass 1 collects the candidates — nonbasic, movable columns whose
	// move pushes the leaving variable toward its bound — with their
	// reduced costs clipped at the dual feasible sign, and finds the
	// relaxed minimum ratio.
	cands := tb.cands[:0]
	bound := math.Inf(1)
	for j, a := range tb.t[r] {
		if a == 0 {
			continue
		}
		s := tb.state[j]
		if s >= 0 {
			continue
		}
		a *= flip // now a > 0 means raising j helps, a < 0 lowering
		var dj float64
		switch s {
		case nbLo:
			if a <= pivotTol {
				continue
			}
			dj = math.Max(tb.d[j], 0)
		case nbHi:
			if a >= -pivotTol {
				continue
			}
			a, dj = -a, math.Max(-tb.d[j], 0)
		default:
			if a = math.Abs(a); a <= pivotTol {
				continue
			}
			dj = math.Abs(tb.d[j])
		}
		if tb.lo[j] == tb.hi[j] {
			continue
		}
		cands = append(cands, ratioCand{j: j, dj: dj, a: a})
		if ratio := (dj + relax) / a; ratio < bound {
			bound = ratio
		}
	}
	tb.cands = cands
	// Pass 2: within the bound, the largest pivot.
	q, best := -1, 0.0
	for _, c := range cands {
		if c.dj/c.a <= bound && c.a > best {
			q, best = c.j, c.a
			if bland {
				break
			}
		}
	}
	return q
}

// ratioCand is one entering candidate of the dual ratio test.
type ratioCand struct {
	j     int
	dj, a float64
}

// move shifts nonbasic column q by step, the basic values with it, and
// returns q's new value.
func (tb *lpTab) move(q int, step float64) float64 {
	xq := tb.value(q) + step
	for i, row := range tb.t {
		if a := row[q]; a != 0 {
			tb.beta[i] -= a * step
		}
	}
	return xq
}

// pivot makes column q, now at value xq, basic in row r (Gauss-Jordan
// on the tableau and the reduced-cost row). The caller has already set
// the leaving column's nonbasic state.
func (tb *lpTab) pivot(r, q int, xq float64) {
	pr := tb.t[r]
	inv := 1 / pr[q]
	nz := tb.nz[:0]
	for j, v := range pr {
		if v != 0 {
			pr[j] = v * inv
			nz = append(nz, j)
		}
	}
	pr[q] = 1
	tb.nz = nz
	for i, row := range tb.t {
		if i == r {
			continue
		}
		f := row[q]
		if f == 0 {
			continue
		}
		for _, j := range nz {
			row[j] -= f * pr[j]
		}
		row[q] = 0
	}
	if f := tb.d[q]; f != 0 {
		for _, j := range nz {
			tb.d[j] -= f * pr[j]
		}
		tb.d[q] = 0
	}
	tb.beta[r] = xq
	tb.head[r] = int32(q)
	tb.state[q] = int32(r)
}

// primal runs the bounded primal simplex from a primal feasible basis
// (Dantzig pricing, bound flips in the ratio test) to an optimum, or
// until a ray proves the LP unbounded.
func (tb *lpTab) primal(deadline time.Time) lpStatus {
	iterCap := tb.iterCap()
	for iter := 0; ; iter++ {
		if tb.stop(iter, iterCap, deadline) {
			return lpAborted
		}
		bland := iter > iterCap/2
		// Entering column: the largest reduced-cost gain among columns
		// free to move in the improving direction dir.
		q, dir, best := -1, 0.0, dualTol
		for j, dj := range tb.d {
			s := tb.state[j]
			if s >= 0 || tb.lo[j] == tb.hi[j] {
				continue
			}
			gain, sgn := -dj, 1.0
			if dj > 0 {
				gain, sgn = dj, -1
			}
			if gain <= dualTol || (sgn > 0 && s == nbHi) || (sgn < 0 && s == nbLo) {
				continue
			}
			if bland {
				q, dir = j, sgn
				break
			}
			if gain > best {
				q, dir, best = j, sgn, gain
			}
		}
		if q == -1 {
			tb.obj = tb.objective()
			return lpOptimal
		}
		// Ratio test: the first basic variable to reach a bound as q
		// moves, or q's own opposite bound (a bound flip, r == -1). Near
		// ties go to the larger pivot (Bland: the smaller column index).
		theta := tb.hi[q] - tb.lo[q]
		r, rTo, rA := -1, nbLo, 0.0
		for i, row := range tb.t {
			a := row[q] * dir // basic i falls by a per unit step
			h := tb.head[i]
			var ratio float64
			var to int32
			switch {
			case a > pivotTol && !math.IsInf(tb.lo[h], -1):
				ratio, to = math.Max(tb.beta[i]-tb.lo[h], 0)/a, nbLo
			case a < -pivotTol && !math.IsInf(tb.hi[h], 1):
				ratio, to = math.Max(tb.hi[h]-tb.beta[i], 0)/-a, nbHi
			default:
				continue
			}
			aa := math.Abs(a)
			better := ratio < theta-pivotTol
			if !better && ratio <= theta+pivotTol && r >= 0 {
				if bland {
					better = h < tb.head[r]
				} else {
					better = aa > rA
				}
			}
			if better {
				theta, r, rTo, rA = math.Min(theta, ratio), i, to, aa
			}
		}
		if math.IsInf(theta, 1) {
			return lpUnbounded
		}
		step := dir * theta
		tb.obj += tb.d[q] * step
		xq := tb.move(q, step)
		tb.iters++
		if r == -1 {
			if dir > 0 {
				tb.state[q] = nbHi
			} else {
				tb.state[q] = nbLo
			}
			continue
		}
		tb.state[tb.head[r]] = rTo
		tb.pivot(r, q, xq)
	}
}

// solveLP solves p with a throwaway tableau, the one-shot form of
// solveLPInto. Branch and bound drives its tableaus directly (load and
// solve at the root, fix and resolve below it); these two entry points
// serve the LP kernel's tests.
func (p *lpProblem) solveLP(deadline time.Time) ([]float64, float64, lpStatus) {
	var tb lpTab
	return p.solveLPInto(deadline, &tb)
}

// solveLPInto solves p from its slack basis in tb. It returns the
// structural values and the objective; the slice aliases tb and is
// valid until tb's next solve.
func (p *lpProblem) solveLPInto(deadline time.Time, tb *lpTab) ([]float64, float64, lpStatus) {
	tb.load(p)
	if st := tb.solve(deadline); st != lpOptimal {
		return nil, 0, st
	}
	return tb.structural(), tb.obj, lpOptimal
}

// growFloats returns (*buf)[:n] with zeroed contents, reallocating only
// when capacity is insufficient.
func growFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	s := (*buf)[:n]
	clear(s)
	*buf = s
	return s
}
