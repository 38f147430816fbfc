package ilp

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// lpAlmost compares with LP-solver tolerance.
func lpAlmost(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestSolveLPBasicMax(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (classic example):
	// optimum at (2, 6) with objective 36; as minimization of the negation.
	// x <= 4 is a bound, not a row.
	p := &lpProblem{
		c: []float64{-3, -5},
		a: [][]float64{
			{0, 2},
			{3, 2},
		},
		sense: []Sense{LE, LE},
		b:     []float64{12, 18},
		hi:    []float64{4, math.Inf(1)},
	}
	x, obj, st := p.solveLP(time.Time{})
	if st != lpOptimal {
		t.Fatalf("status = %v", st)
	}
	if !lpAlmost(obj, -36) {
		t.Errorf("objective = %v, want -36", obj)
	}
	if !lpAlmost(x[0], 2) || !lpAlmost(x[1], 6) {
		t.Errorf("x = %v, want (2, 6)", x)
	}
}

func TestSolveLPEqualityAndGE(t *testing.T) {
	// min x + y s.t. x + y = 4, x >= 1: optimum 4 at e.g. (1, 3).
	p := &lpProblem{
		c: []float64{1, 1},
		a: [][]float64{
			{1, 1},
			{1, 0},
		},
		sense: []Sense{EQ, GE},
		b:     []float64{4, 1},
	}
	x, obj, st := p.solveLP(time.Time{})
	if st != lpOptimal {
		t.Fatalf("status = %v", st)
	}
	if !lpAlmost(obj, 4) {
		t.Errorf("objective = %v, want 4", obj)
	}
	if x[0] < 1-1e-6 || !lpAlmost(x[0]+x[1], 4) {
		t.Errorf("x = %v", x)
	}
}

func TestSolveLPZeroRHSNormalization(t *testing.T) {
	// Logical constraints with rhs 0 in every sense, as MUVE's models
	// are full of: each becomes a slack bounded by its sense. min -x
	// s.t. x <= y (x - y <= 0), y - x >= 0, x - y = 0 forces x = y; with
	// the bound y <= 5: optimum x = y = 5.
	p := &lpProblem{
		c: []float64{-1, 0},
		a: [][]float64{
			{1, -1}, // x - y <= 0
			{-1, 1}, // y - x >= 0 (redundant, exercises GE rhs 0)
			{1, -1}, // x - y = 0
		},
		sense: []Sense{LE, GE, EQ},
		b:     []float64{0, 0, 0},
		hi:    []float64{math.Inf(1), 5},
	}
	x, obj, st := p.solveLP(time.Time{})
	if st != lpOptimal {
		t.Fatalf("status = %v", st)
	}
	if !lpAlmost(obj, -5) || !lpAlmost(x[0], 5) || !lpAlmost(x[1], 5) {
		t.Errorf("x = %v obj = %v", x, obj)
	}
}

func TestSolveLPInfeasible(t *testing.T) {
	// x >= 3 as a row against the bound x <= 1.
	p := &lpProblem{
		c:     []float64{1},
		a:     [][]float64{{1}},
		sense: []Sense{GE},
		b:     []float64{3},
		hi:    []float64{1},
	}
	_, _, st := p.solveLP(time.Time{})
	if st != lpInfeasible {
		t.Errorf("status = %v, want infeasible", st)
	}
}

func TestSolveLPUnbounded(t *testing.T) {
	// min -x with only x >= 0 and a vacuous constraint.
	p := &lpProblem{
		c:     []float64{-1},
		a:     [][]float64{{-1}}, // -x <= 1, never binding upward
		sense: []Sense{LE},
		b:     []float64{1},
	}
	_, _, st := p.solveLP(time.Time{})
	if st != lpUnbounded {
		t.Errorf("status = %v, want unbounded", st)
	}
}

func TestSolveLPNoConstraints(t *testing.T) {
	p := &lpProblem{c: []float64{1, 2}}
	x, obj, st := p.solveLP(time.Time{})
	if st != lpOptimal || obj != 0 || x[0] != 0 || x[1] != 0 {
		t.Errorf("unconstrained min of positive costs should sit at origin: %v %v %v", x, obj, st)
	}
	p = &lpProblem{c: []float64{-1}}
	if _, _, st := p.solveLP(time.Time{}); st != lpUnbounded {
		t.Errorf("negative cost over x >= 0 should be unbounded, got %v", st)
	}
}

func TestSolveLPNegativeRHSFlip(t *testing.T) {
	// -x <= -2 means x >= 2; min x should be 2. The slack basis starts
	// primal infeasible, so the dual simplex does the work.
	p := &lpProblem{
		c:     []float64{1},
		a:     [][]float64{{-1}},
		sense: []Sense{LE},
		b:     []float64{-2},
	}
	x, obj, st := p.solveLP(time.Time{})
	if st != lpOptimal || !lpAlmost(obj, 2) || !lpAlmost(x[0], 2) {
		t.Errorf("x = %v obj = %v st = %v", x, obj, st)
	}
}

func TestSolveLPDeadline(t *testing.T) {
	// An already-expired deadline aborts promptly on a non-trivial LP.
	n := 40
	p := &lpProblem{c: make([]float64, n)}
	rng := rand.New(rand.NewSource(1))
	for i := range p.c {
		p.c[i] = -rng.Float64()
	}
	for r := 0; r < n; r++ {
		row := make([]float64, n)
		for j := range row {
			row[j] = rng.Float64()
		}
		p.a = append(p.a, row)
		p.sense = append(p.sense, LE)
		p.b = append(p.b, 1+rng.Float64())
	}
	_, _, st := p.solveLP(time.Now().Add(-time.Second))
	if st != lpAborted {
		t.Errorf("status = %v, want aborted", st)
	}
}

// TestSolveLPRandomAgainstVertexEnumeration differential-tests the simplex
// on small random LPs against brute-force vertex enumeration (all basis
// choices of 2 variables out of constraints and bounds).
func TestSolveLPRandomAgainstVertexEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		// 2 variables, up to 4 LE constraints with positive rhs (origin
		// feasible, so the LP is always feasible; unboundedness possible),
		// and an upper bound on each variable half the time, passed as a
		// bound.
		nCons := 1 + rng.Intn(4)
		p := &lpProblem{
			c:  []float64{rng.NormFloat64(), rng.NormFloat64()},
			hi: []float64{math.Inf(1), math.Inf(1)},
		}
		for j := range p.hi {
			if rng.Intn(2) == 0 {
				p.hi[j] = rng.Float64() * 5
			}
		}
		for i := 0; i < nCons; i++ {
			p.a = append(p.a, []float64{rng.NormFloat64(), rng.NormFloat64()})
			p.sense = append(p.sense, LE)
			p.b = append(p.b, rng.Float64()*5)
		}
		x, obj, st := p.solveLP(time.Time{})
		want, unbounded := bruteForceLP2(p)
		if unbounded {
			if st != lpUnbounded {
				t.Errorf("trial %d: got %v, want unbounded", trial, st)
			}
			continue
		}
		if st != lpOptimal {
			t.Errorf("trial %d: status = %v", trial, st)
			continue
		}
		if !lpAlmost(obj, want) {
			t.Errorf("trial %d: obj = %v, want %v (x = %v)", trial, obj, want, x)
		}
	}
}

// bruteForceLP2 solves a 2-variable LP with LE constraints, x >= 0 and
// upper bounds p.hi by enumerating all candidate vertices
// (constraint/bound/axis intersections) and checking a coarse
// unboundedness certificate. Finite upper bounds enter the enumeration
// as the LE rows the simplex itself never builds.
func bruteForceLP2(bounded *lpProblem) (float64, bool) {
	p := &lpProblem{c: bounded.c}
	p.a = append(p.a, bounded.a...)
	p.b = append(p.b, bounded.b...)
	for j, h := range bounded.hi {
		if !math.IsInf(h, 1) {
			row := []float64{0, 0}
			row[j] = 1
			p.a = append(p.a, row)
			p.b = append(p.b, h)
		}
	}
	// Unbounded iff there is a ray direction d >= 0 with c'd < 0 and
	// a_i'd <= 0 for all i. Sample directions densely.
	for ang := 0.0; ang <= math.Pi/2+1e-9; ang += math.Pi / 720 {
		d := [2]float64{math.Cos(ang), math.Sin(ang)}
		if p.c[0]*d[0]+p.c[1]*d[1] >= -1e-9 {
			continue
		}
		ok := true
		for i := range p.a {
			if p.a[i][0]*d[0]+p.a[i][1]*d[1] > 1e-9 {
				ok = false
				break
			}
		}
		if ok {
			return 0, true
		}
	}
	// Vertex enumeration: origin, axis intercepts, pairwise intersections.
	type pt = [2]float64
	cands := []pt{{0, 0}}
	lines := append([][]float64{}, p.a...)
	rhs := append([]float64{}, p.b...)
	lines = append(lines, []float64{1, 0}, []float64{0, 1}) // axes x=0 swapped below
	rhs = append(rhs, 0, 0)
	// Treat axes as equalities x=0 / y=0 via the same intersection code:
	// line i: a'x = b.
	for i := 0; i < len(lines); i++ {
		for j := i + 1; j < len(lines); j++ {
			a1, b1 := lines[i], rhs[i]
			a2, b2 := lines[j], rhs[j]
			det := a1[0]*a2[1] - a1[1]*a2[0]
			if math.Abs(det) < 1e-12 {
				continue
			}
			x := (b1*a2[1] - b2*a1[1]) / det
			y := (a1[0]*b2 - a2[0]*b1) / det
			cands = append(cands, pt{x, y})
		}
	}
	best := math.Inf(1)
	for _, c := range cands {
		if c[0] < -1e-9 || c[1] < -1e-9 {
			continue
		}
		feasible := true
		for i := range p.a {
			if p.a[i][0]*c[0]+p.a[i][1]*c[1] > p.b[i]+1e-9 {
				feasible = false
				break
			}
		}
		if feasible {
			if v := p.c[0]*c[0] + p.c[1]*c[1]; v < best {
				best = v
			}
		}
	}
	return best, false
}

// randomBoxedLP draws a small LP whose columns are all boxed: the
// first nBin are binaries [0, 1], the rest continuous [0, u]. Rows of
// every sense are built around a random point of the box, so the root
// is feasible and fixings can make children infeasible.
func randomBoxedLP(rng *rand.Rand) (p *lpProblem, nBin int) {
	n := 3 + rng.Intn(6)
	nBin = 1 + rng.Intn(n)
	m := 2 + rng.Intn(5)
	p = &lpProblem{c: make([]float64, n), lo: make([]float64, n), hi: make([]float64, n)}
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		p.c[j] = float64(rng.Intn(21) - 10)
		p.hi[j] = 1
		if j >= nBin {
			p.hi[j] = float64(1 + rng.Intn(8))
		}
		x0[j] = rng.Float64() * p.hi[j]
	}
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		ax := 0.0
		for j := range row {
			if rng.Intn(3) > 0 {
				row[j] = float64(rng.Intn(11) - 5)
				ax += row[j] * x0[j]
			}
		}
		sense := []Sense{LE, GE, EQ}[rng.Intn(3)]
		rhs := ax
		switch sense {
		case LE:
			rhs += rng.Float64() * 3
		case GE:
			rhs -= rng.Float64() * 3
		}
		p.a = append(p.a, row)
		p.sense = append(p.sense, sense)
		p.b = append(p.b, rhs)
	}
	return p, nBin
}

// TestDualResolveMatchesColdSolve is the warm-vs-cold differential test
// of the branch-and-bound LP kernel: along random sequences of binary
// fixings, re-solving a snapshot of the parent's optimal tableau with
// the dual simplex must agree with a cold solve of the same bounds from
// the slack basis — same status, objective within 1e-9 — including
// fixings that make the child infeasible.
func TestDualResolveMatchesColdSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	infeasible, resolved := 0, 0
	for trial := 0; trial < 400; trial++ {
		p, nBin := randomBoxedLP(rng)
		var parent lpTab
		if _, _, st := p.solveLPInto(time.Time{}, &parent); st != lpOptimal {
			t.Fatalf("trial %d: root status = %v, want optimal (root is feasible by construction)", trial, st)
		}
		lo := append([]float64(nil), p.lo...)
		hi := append([]float64(nil), p.hi...)
		for _, j := range rng.Perm(nBin) {
			v := float64(rng.Intn(2))
			var child lpTab
			child.copyFrom(&parent)
			child.fix(j, v)
			warm := child.resolve(time.Time{}, math.Inf(1))
			lo[j], hi[j] = v, v
			cold := &lpProblem{c: p.c, a: p.a, sense: p.sense, b: p.b, lo: lo, hi: hi}
			_, coldObj, coldSt := cold.solveLP(time.Time{})
			if warm != coldSt {
				t.Fatalf("trial %d: fixing x%d=%v: warm status %v, cold %v", trial, j, v, warm, coldSt)
			}
			if warm != lpOptimal {
				infeasible++
				break
			}
			resolved++
			if math.Abs(child.obj-coldObj) > 1e-9 {
				t.Fatalf("trial %d: fixing x%d=%v: warm objective %v, cold %v", trial, j, v, child.obj, coldObj)
			}
			parent.copyFrom(&child)
		}
	}
	if infeasible == 0 || resolved == 0 {
		t.Fatalf("corpus too easy: %d infeasible children, %d optimal re-solves", infeasible, resolved)
	}
}

// TestDualResolveCutoff checks the early stop: a re-solve whose dual
// bound reaches a cutoff below its optimum may stop there (lpCutoff,
// at a bound no lower than the cutoff) or finish; with the cutoff above
// the optimum it always finishes.
func TestDualResolveCutoff(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cut := 0
	for trial := 0; trial < 300; trial++ {
		p, nBin := randomBoxedLP(rng)
		var root lpTab
		if _, _, st := p.solveLPInto(time.Time{}, &root); st != lpOptimal {
			t.Fatalf("trial %d: root status = %v", trial, st)
		}
		j, v := rng.Intn(nBin), float64(rng.Intn(2))
		var ref lpTab
		ref.copyFrom(&root)
		ref.fix(j, v)
		if ref.resolve(time.Time{}, math.Inf(1)) != lpOptimal {
			continue
		}
		var child lpTab
		child.copyFrom(&root)
		child.fix(j, v)
		switch st := child.resolve(time.Time{}, ref.obj-1e-6); st {
		case lpCutoff:
			cut++
			if child.obj < ref.obj-1e-6 {
				t.Fatalf("trial %d: cut off at %v below the cutoff %v", trial, child.obj, ref.obj-1e-6)
			}
		case lpOptimal:
			if math.Abs(child.obj-ref.obj) > 1e-9 {
				t.Fatalf("trial %d: optimum %v, want %v", trial, child.obj, ref.obj)
			}
		default:
			t.Fatalf("trial %d: status %v", trial, st)
		}
		child.copyFrom(&root)
		child.fix(j, v)
		if st := child.resolve(time.Time{}, ref.obj+1e-6); st != lpOptimal || math.Abs(child.obj-ref.obj) > 1e-9 {
			t.Fatalf("trial %d: cutoff above the optimum: status %v obj %v, want optimal %v", trial, st, child.obj, ref.obj)
		}
	}
	if cut == 0 {
		t.Fatal("no re-solve was cut off")
	}
}
