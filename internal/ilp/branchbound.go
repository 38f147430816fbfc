package ilp

import (
	"context"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a Solve call.
type Options struct {
	// Ctx, when non-nil, carries pprof labels (stage, lane, …) onto the
	// subtree worker goroutines so CPU profiles attribute branch-and-
	// bound work to the requesting pipeline stage. It does NOT govern
	// cancellation — Deadline does; label plumbing only.
	Ctx context.Context
	// Deadline aborts the search when reached; the best incumbent found so
	// far is returned with StatusFeasible (or StatusTimeout when none).
	// The zero value means no deadline.
	Deadline time.Time
	// MaxNodes caps the number of branch-and-bound nodes (0 = unlimited).
	// The cap is exact across workers: at most MaxNodes relaxations are
	// solved regardless of parallelism.
	MaxNodes int
	// WarmStart, when non-nil, seeds the incumbent with a known feasible
	// assignment (indexed by VarID). MUVE passes the greedy solution so a
	// timeout can never return something worse than greedy.
	WarmStart []float64
	// Workers is the number of subtree workers exploring the frontier
	// (the pure-Go substitute for the Gurobi Threads parameter). 0 uses
	// runtime.GOMAXPROCS(0); 1 forces the sequential search. A completed
	// search returns the same optimal objective at any worker count;
	// among equal-objective optima the lexicographically smallest
	// discovered assignment wins, so the incumbent is canonical whenever
	// the optimum is unique.
	Workers int
}

// intTol is the integrality tolerance.
const intTol = 1e-6

// Solve minimizes the model objective subject to its constraints via
// LP-relaxation branch & bound over a work-stealing worker pool. The
// returned Solution is never nil when err is nil.
func (m *Model) Solve(opt Options) (*Solution, error) {
	if len(m.vars) == 0 {
		return nil, ErrNoModel
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sh := &bbShared{
		model:     m,
		lp:        m.relaxation(),
		deadline:  opt.Deadline,
		maxNodes:  int64(opt.MaxNodes),
		rootBound: math.Inf(-1),
	}
	sh.objBits.Store(math.Float64bits(math.Inf(1)))
	sh.incOwner.Store(-1)
	sh.complete.Store(true)
	sh.workers = make([]*bbWorker, workers)
	for i := range sh.workers {
		sh.workers[i] = &bbWorker{id: int32(i), sh: sh}
	}
	if opt.WarmStart != nil {
		// Like every incumbent, the seed is held snapped to integers and
		// valued by the model, so Objective always equals the objective
		// of Values exactly.
		ws := append([]float64(nil), opt.WarmStart...)
		cleanIntegers(m, ws)
		if m.feasible(ws, 1e-6) {
			sh.incumbent = ws
			sh.incObjVal = m.evalObjective(ws)
			sh.objBits.Store(math.Float64bits(sh.incObjVal))
			sh.incumbents.Add(1)
		}
	}

	// Seed phase, single-threaded on worker 0: process the root, then
	// expand the frontier best-first (lowest parent bound first) until
	// there is enough independent work to hand out. Small models usually
	// finish entirely inside this phase, which keeps the parallel
	// machinery free for the searches that actually need it.
	w0 := sh.workers[0]
	var seed []bbNode
	w0.process(bbNode{bound: math.Inf(-1)}, &seed)
	if workers > 1 {
		for len(seed) > 0 && len(seed) < 2*workers && !sh.stopped.Load() {
			best := 0
			for i := 1; i < len(seed); i++ {
				if seed[i].bound < seed[best].bound {
					best = i
				}
			}
			nd := seed[best]
			seed[best] = seed[len(seed)-1]
			seed = seed[:len(seed)-1]
			sh.pending.Add(-1)
			w0.process(nd, &seed)
		}
	}

	if len(seed) > 0 && !sh.stopped.Load() {
		// Deal the frontier out worst-bound first so every worker's deque
		// ends with (and therefore pops first) its most promising node.
		sort.Slice(seed, func(i, j int) bool { return seed[i].bound > seed[j].bound })
		for i, nd := range seed {
			w := sh.workers[i%workers]
			w.deque = append(w.deque, nd)
		}
		if workers == 1 {
			w0.run()
		} else {
			var wg sync.WaitGroup
			for _, w := range sh.workers {
				wg.Add(1)
				go func(w *bbWorker) {
					defer wg.Done()
					// Re-apply the caller's pprof labels: goroutines
					// inherit labels from their spawner, but Solve may be
					// dispatched from a pool goroutine that never carried
					// them — the context is the reliable carrier.
					if opt.Ctx != nil {
						pprof.Do(opt.Ctx, pprof.Labels(), func(context.Context) { w.run() })
					} else {
						w.run()
					}
				}(w)
			}
			wg.Wait()
		}
	}

	lpSolves, simplexIters := 0, 0
	for _, w := range sh.workers {
		lpSolves += w.lpSolves
		simplexIters += w.simplexIters
		for _, tb := range w.freeTabs {
			tabPool.Put(tb)
		}
	}
	sol := &Solution{
		Nodes:        int(sh.nodes.Load()),
		LPSolves:     lpSolves,
		SimplexIters: simplexIters,
		RootIters:    sh.rootIters,
		Incumbents:   int(sh.incumbents.Load()),
		Workers:      workers,
		Steals:       int(sh.steals.Load()),
		SharedPrunes: int(sh.sharedPrunes.Load()),
	}
	complete := sh.complete.Load()
	switch {
	case sh.incumbent == nil && complete:
		sol.Status = StatusInfeasible
		sol.Bound = math.Inf(1)
	case sh.incumbent == nil:
		sol.Status = StatusTimeout
		sol.Bound = sh.rootBound
	case complete:
		sol.Status = StatusOptimal
		sol.Objective = sh.incObjVal
		sol.Values = sh.incumbent
		sol.Bound = sh.incObjVal
	default:
		sol.Status = StatusFeasible
		sol.Objective = sh.incObjVal
		sol.Values = sh.incumbent
		sol.Bound = sh.rootBound
	}
	return sol, nil
}

// bbNode is one frontier entry: a subproblem plus what its parent's
// relaxation proved about the subtree underneath it.
type bbNode struct {
	// tab is the parent's optimal tableau with this node's branching
	// bound already applied: dual feasible, so any worker re-solves it
	// with the dual simplex. nil marks the root.
	tab *lpTab
	// bound is the parent LP objective, a valid lower bound for the whole
	// subtree; nodes whose bound cannot beat the incumbent are dropped at
	// pop time without paying an LP solve.
	bound float64
}

// bbShared is the state all workers of one Solve call share.
type bbShared struct {
	model    *Model
	lp       *lpProblem // the root relaxation; nil when trivially infeasible
	deadline time.Time
	maxNodes int64

	// Incumbent: objBits mirrors the incumbent objective as float bits
	// for lock-free bound checks on the hot path; mu guards the actual
	// solution swap and the exact objective value.
	objBits   atomic.Uint64
	incOwner  atomic.Int32 // worker that produced the incumbent; -1 = warm start
	mu        sync.Mutex
	incumbent []float64
	incObjVal float64

	stopped  atomic.Bool // deadline or node cap hit: wind down
	complete atomic.Bool // false once any subtree was abandoned unproven
	pending  atomic.Int64

	nodes        atomic.Int64
	incumbents   atomic.Int64
	steals       atomic.Int64
	sharedPrunes atomic.Int64

	// rootBound and rootIters are written during the single-threaded
	// seed phase only.
	rootBound float64
	rootIters int

	workers []*bbWorker
}

// incObj returns the current incumbent objective without locking.
func (sh *bbShared) incObj() float64 { return math.Float64frombits(sh.objBits.Load()) }

// halt stops the search without a completeness proof.
func (sh *bbShared) halt() {
	sh.complete.Store(false)
	sh.stopped.Store(true)
}

// offer proposes x (model-space, feasible, objective obj) as the new
// incumbent. Strict improvements always win; ties within 1e-9 go to the
// lexicographically smaller assignment so a completed search reports a
// canonical incumbent regardless of worker count or discovery order.
func (sh *bbShared) offer(x []float64, obj float64, owner int32) {
	if obj > sh.incObj()+1e-9 {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := sh.incObjVal
	if sh.incumbent == nil {
		cur = math.Inf(1)
	}
	switch {
	case obj < cur-1e-9:
	case obj <= cur+1e-9 && sh.incumbent != nil && lexLess(x, sh.incumbent):
	default:
		return
	}
	sh.incumbent = append(sh.incumbent[:0], x...)
	sh.incObjVal = obj
	// The pruning bound only ever tightens: on a lexicographic tie keep
	// the smaller of the two (equal within 1e-9) objectives.
	if bits := math.Float64bits(obj); obj < math.Float64frombits(sh.objBits.Load()) {
		sh.objBits.Store(bits)
	}
	sh.incOwner.Store(owner)
	sh.incumbents.Add(1)
}

// lexLess orders assignments lexicographically with a small tolerance,
// the canonical tie-break among equal-objective incumbents.
func lexLess(a, b []float64) bool {
	for i := range a {
		switch d := a[i] - b[i]; {
		case d < -1e-9:
			return true
		case d > 1e-9:
			return false
		}
	}
	return false
}

// bbWorker explores subtrees from a private LIFO deque (depth-first
// locality, like the old recursion) and steals the shallowest node of a
// victim's deque when its own runs dry.
type bbWorker struct {
	id int32
	sh *bbShared

	mu    sync.Mutex
	deque []bbNode

	freeTabs []*lpTab  // snapshots to reuse, so warm searches never allocate
	xr       []float64 // offerRounded's snapped point
	tick     int

	lpSolves     int
	simplexIters int
}

// push appends a node to the worker's own deque.
func (w *bbWorker) push(nd bbNode) {
	w.sh.pending.Add(1)
	w.mu.Lock()
	w.deque = append(w.deque, nd)
	w.mu.Unlock()
}

// pop takes the newest node (deepest, owner side).
func (w *bbWorker) pop() (bbNode, bool) {
	w.mu.Lock()
	n := len(w.deque)
	if n == 0 {
		w.mu.Unlock()
		return bbNode{}, false
	}
	nd := w.deque[n-1]
	w.deque[n-1] = bbNode{}
	w.deque = w.deque[:n-1]
	w.mu.Unlock()
	return nd, true
}

// stealFrom takes the oldest node (shallowest, largest subtree) from a
// victim's deque.
func (w *bbWorker) stealFrom(victim *bbWorker) (bbNode, bool) {
	victim.mu.Lock()
	n := len(victim.deque)
	if n == 0 {
		victim.mu.Unlock()
		return bbNode{}, false
	}
	nd := victim.deque[0]
	copy(victim.deque, victim.deque[1:])
	victim.deque[n-1] = bbNode{}
	victim.deque = victim.deque[:n-1]
	victim.mu.Unlock()
	return nd, true
}

// run drains work until the search stops or the global frontier is
// empty (pending counts queued plus in-flight nodes, so zero means the
// whole tree is either explored or pruned).
func (w *bbWorker) run() {
	sh := w.sh
	idle := 0
	for {
		if sh.stopped.Load() {
			return
		}
		nd, ok := w.pop()
		if !ok {
			for i := 1; i < len(sh.workers) && !ok; i++ {
				victim := sh.workers[(int(w.id)+i)%len(sh.workers)]
				nd, ok = w.stealFrom(victim)
			}
			if ok {
				sh.steals.Add(1)
			}
		}
		if !ok {
			if sh.pending.Load() == 0 {
				return
			}
			idle++
			if idle < 8 {
				runtime.Gosched()
			} else {
				time.Sleep(20 * time.Microsecond)
			}
			continue
		}
		idle = 0
		w.process(nd, nil)
		sh.pending.Add(-1)
	}
}

// checkLimits reports whether the search should stop. The stop flag is
// checked on every node; the wall clock only every 64 nodes — a
// time.Now syscall per node is measurable on small instances and worse
// with many workers.
func (w *bbWorker) checkLimits() bool {
	sh := w.sh
	if sh.stopped.Load() {
		return true
	}
	hit := false
	if w.tick&deadlineCheckMask == 0 && pastDeadline(sh.deadline) {
		sh.halt()
		hit = true
	}
	w.tick++
	return hit
}

// process solves one node and then keeps diving: the child on the side
// the LP point rounds to continues in place on the same tableau, and
// the other child is pushed with a snapshot of it. The dive ends at a
// leaf (pruned, infeasible or integral). During the single-threaded
// best-first seed phase both children go to seedQ instead and process
// returns after one node.
func (w *bbWorker) process(nd bbNode, seedQ *[]bbNode) {
	sh := w.sh
	tab, bound := nd.tab, nd.bound
	for {
		// Re-check the parent bound against the global incumbent: it may
		// have tightened since this node was queued.
		if bound >= sh.incObj()-1e-9 {
			w.pruned()
			break
		}
		if w.checkLimits() {
			break
		}
		// Exact node accounting across workers: reserve a node slot, give
		// it back when over the cap so reported Nodes never exceeds
		// MaxNodes.
		if sh.nodes.Add(1) > sh.maxNodes && sh.maxNodes > 0 {
			sh.nodes.Add(-1)
			sh.halt()
			break
		}
		isRoot := tab == nil
		var st lpStatus
		if isRoot {
			tab = w.newTab()
			st = lpInfeasible
			if sh.lp != nil {
				tab.load(sh.lp)
				st = tab.solve(sh.deadline)
				sh.rootIters = tab.iters
			}
		} else {
			st = tab.resolve(sh.deadline, sh.incObj()-sh.model.objConst-1e-9)
		}
		w.lpSolves++
		w.simplexIters += tab.iters
		if st == lpCutoff {
			w.pruned()
			break
		}
		if st != lpOptimal {
			if st != lpInfeasible {
				// Unbounded (only with unbounded continuous variables) or
				// aborted: no useful bound below this node, so optimality
				// can no longer be proven.
				sh.complete.Store(false)
			}
			// An aborted relaxation usually means the deadline passed;
			// poll it immediately so the rest of the pool winds down too.
			if st == lpAborted && pastDeadline(sh.deadline) {
				sh.halt()
			}
			break
		}
		obj := tab.obj + sh.model.objConst
		if isRoot {
			sh.rootBound = obj
		}
		if obj >= sh.incObj()-1e-9 {
			w.pruned()
			break
		}
		x := tab.structural()
		// Offer the snapped point: for an integral relaxation it is the
		// leaf's incumbent, for a fractional one a rounding heuristic so
		// timeouts still surface something feasible. An integral point
		// the model rejects (LP round-off beyond its tolerance) leaves
		// its subtree unproven.
		bv := w.branchVar(x, tab)
		if vetted := w.offerRounded(x); bv == -1 {
			if !vetted {
				sh.complete.Store(false)
			}
			break
		}
		// Dive toward the fractional value's rounding; the away child is
		// pushed below it, so a thief stealing from the other end of the
		// deque gets the subtree the owner would visit last.
		first := math.Round(x[bv])
		away := w.newTab()
		away.copyFrom(tab)
		away.fix(bv, 1-first)
		tab.fix(bv, first)
		if seedQ != nil {
			sh.pending.Add(2)
			*seedQ = append(*seedQ, bbNode{tab: away, bound: obj}, bbNode{tab: tab, bound: obj})
			return
		}
		w.push(bbNode{tab: away, bound: obj})
		bound = obj
	}
	w.release(tab)
}

// pruned counts a prune against an incumbent another worker found.
func (w *bbWorker) pruned() {
	if o := w.sh.incOwner.Load(); o >= 0 && o != w.id {
		w.sh.sharedPrunes.Add(1)
	}
}

// branchVar picks, among the unfixed fractional binaries, the one with
// the highest branching priority, breaking ties by fractionality. It
// returns -1 when there is none.
func (w *bbWorker) branchVar(x []float64, tab *lpTab) int {
	bv := -1
	bestFrac := intTol
	bestPri := 0
	for i, vi := range w.sh.model.vars {
		if !vi.integer || tab.lo[i] == tab.hi[i] {
			continue
		}
		f := math.Abs(x[i] - math.Round(x[i]))
		if f <= intTol {
			continue
		}
		if bv == -1 || vi.priority > bestPri ||
			(vi.priority == bestPri && f > bestFrac) {
			bestPri = vi.priority
			bestFrac = f
			bv = i
		}
	}
	return bv
}

// offerRounded snaps x's integer variables to the nearest integer and,
// when the model accepts the result, offers it as an incumbent valued
// by the model's own objective. It reports whether the snapped point
// was feasible.
func (w *bbWorker) offerRounded(x []float64) bool {
	m := w.sh.model
	r := growFloats(&w.xr, len(x))
	copy(r, x)
	cleanIntegers(m, r)
	if !m.feasible(r, 1e-7) {
		return false
	}
	w.sh.offer(r, m.evalObjective(r), w.id)
	return true
}

// maxFreeTabs caps a worker's snapshot free list.
const maxFreeTabs = 64

// tabPool carries tableaus from one Solve's workers to the next, so a
// steady stream of solves reuses their buffers instead of allocating
// (and zeroing) a fresh snapshot for every branch of every search.
var tabPool sync.Pool

// newTab returns a tableau from the worker's free list, the pool, or a
// new one.
func (w *bbWorker) newTab() *lpTab {
	if n := len(w.freeTabs); n > 0 {
		tb := w.freeTabs[n-1]
		w.freeTabs = w.freeTabs[:n-1]
		return tb
	}
	if tb, ok := tabPool.Get().(*lpTab); ok {
		return tb
	}
	return new(lpTab)
}

// release returns a tableau to the free list. A stolen node's tableau
// lands on the thief's list.
func (w *bbWorker) release(tb *lpTab) {
	if tb != nil && len(w.freeTabs) < maxFreeTabs {
		w.freeTabs = append(w.freeTabs, tb)
	}
}

// relaxation builds the model's LP relaxation, once per Solve: one row
// per constraint, one column per variable with the variable's own
// bounds. It returns nil when a constraint without terms is violated by
// its constant alone.
func (m *Model) relaxation() *lpProblem {
	n := len(m.vars)
	p := &lpProblem{
		c:  make([]float64, n),
		lo: make([]float64, n),
		hi: make([]float64, n),
	}
	for i, vi := range m.vars {
		p.lo[i], p.hi[i] = vi.lo, vi.hi
	}
	for _, t := range m.obj {
		p.c[t.Var] += t.Coeff
	}
	arena := make([]float64, len(m.cons)*n)
	for _, con := range m.cons {
		if len(con.terms) == 0 {
			ok := true
			switch con.sense {
			case LE:
				ok = con.rhs >= -1e-9
			case GE:
				ok = con.rhs <= 1e-9
			case EQ:
				ok = math.Abs(con.rhs) <= 1e-9
			}
			if !ok {
				return nil
			}
			continue
		}
		k := len(p.a)
		row := arena[k*n : (k+1)*n : (k+1)*n]
		for _, t := range con.terms {
			row[t.Var] += t.Coeff
		}
		p.a = append(p.a, row)
		p.sense = append(p.sense, con.sense)
		p.b = append(p.b, con.rhs)
	}
	return p
}

// cleanIntegers snaps integer variables to exact integral values.
func cleanIntegers(m *Model, x []float64) {
	for i, vi := range m.vars {
		if vi.integer {
			x[i] = math.Round(x[i])
		}
	}
}
