package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// nondetflowChecker is the interprocedural companion to `determinism`:
// where determinism flags nondeterminism *sources* syntactically inside
// the dataset-byte-path packages, nondetflow proves — module-wide, and
// through any call chain — that no value *derived from* a source ever
// reaches a byte-producing sink. Sources are wall-clock reads
// (time.Now/Since/Until), draws from the global math/rand source, and
// map-iteration order (a slice appended under a map range). Sinks are
// Config.TaintSinks: store record appends, the JSONL/CSV export
// writers, trace export, ETag computation, and /v1 response encoding.
// Two launderings are recognized: sorting (an order-tainted collection
// sorted before it reaches the sink is the repo's sanctioned
// collect-then-sort pattern), and the injected obs.Clock seam (a call
// through a function *value* is never a source — which is exactly why
// injected clocks keep same-seed runs byte-identical while direct
// time.Now calls do not).
//
// The engine computes one summary per module function by fixpoint over
// the shared call graph: whether its return value can carry source
// taint, which parameters pass through to its return value, and which
// parameters flow into a sink (with the call chain, for the report).
// Intraprocedural propagation is flow-insensitive over assignments with
// positional sort laundering, matching the determinism checker's
// collect-then-sort rule.
var nondetflowChecker = &Checker{
	Name: "nondetflow",
	Doc:  "no wall-clock, global-rand, or map-order derived value may flow into store/export/trace/ETag/response sinks",
	Rationale: "Same-seed runs must be byte-identical across worker counts, store backends, " +
		"and (ROADMAP item 3) worker processes; a wall-clock read or map-order dependence " +
		"three calls upstream of a store append silently breaks that contract in a way no " +
		"syntactic check can see. The taint fixpoint tracks values derived from time.Now, " +
		"the global math/rand source, and map-iteration order through every static call " +
		"chain into the byte-producing sinks, accepting only the two audited launderings: " +
		"a sort before the sink, or the injected obs.Clock seam.",
	Example: `internal/obs/span.go:208: [nondetflow] value derived from time.Since flows into trace export (ExportSpan)`,
	Run:     runNondetflow,
}

// taint is the per-value lattice element: a source reason chain (with
// an ordering-only flag — order taint is laundered by sorting, value
// taint is not) plus a bitmask of the enclosing function's parameters
// whose taint would flow into this value.
type taint struct {
	src    string
	order  bool
	params uint64
}

func (t taint) empty() bool { return t.src == "" && t.params == 0 }

func (t *taint) merge(o taint) {
	if t.src == "" {
		t.src, t.order = o.src, o.order
	} else if o.src != "" && !o.order {
		// A value-level taint (clock/rand) dominates an ordering-only
		// one: sorting must not launder the merged value.
		t.order = false
	}
	t.params |= o.params
}

// sinkFlow records that a function parameter reaches a sink: the sink's
// description, the call chain to it, and whether the path sorts the
// value first (laundering ordering-only taint).
type sinkFlow struct {
	desc   string
	via    string
	sorted bool
}

// fnTaint is one function's interprocedural summary.
type fnTaint struct {
	retSrc    string           // source reason chain carried by a return value
	retOrder  bool             // that source taint is ordering-only
	retParams uint64           // parameter bits whose taint passes to the return value
	sinks     map[int]sinkFlow // parameter index (receiver = 0 for methods) → sink reached
}

func (s *fnTaint) equal(o *fnTaint) bool {
	if s.retSrc != o.retSrc || s.retOrder != o.retOrder || s.retParams != o.retParams ||
		len(s.sinks) != len(o.sinks) {
		return false
	}
	for k, v := range s.sinks {
		if o.sinks[k] != v {
			return false
		}
	}
	return true
}

type taintEngine struct {
	pass      *Pass
	summaries map[*types.Func]*fnTaint
}

func runNondetflow(p *Pass) {
	if len(p.Cfg.TaintSinks) == 0 {
		return
	}
	g := p.Graph
	e := &taintEngine{pass: p, summaries: map[*types.Func]*fnTaint{}}
	// Summary fixpoint: recompute every function from the current
	// summaries of its callees until nothing changes. Facts only grow
	// (bitmasks and non-empty strings derived from them), so this
	// terminates; the round cap is a safety net against pathological
	// mutual recursion.
	for round := 0; round < 32; round++ {
		changed := false
		for _, obj := range g.Order {
			s := e.analyze(g.Nodes[obj], false)
			if old := e.summaries[obj]; old == nil || !old.equal(s) {
				e.summaries[obj] = s
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Report pass: summaries are stable; now emit diagnostics.
	for _, obj := range g.Order {
		e.analyze(g.Nodes[obj], true)
	}
}

// fnScope is the per-function analysis state.
type fnScope struct {
	e       *taintEngine
	node    *FuncNode
	params  map[types.Object]int         // param object → summary index
	taints  map[types.Object]*taint      // current per-variable taint
	sorted  map[types.Object][]token.Pos // positions of sort calls per variable
	regions [][2]token.Pos               // map-range body extents (order regions)
	report  bool
}

// analyze runs the intraprocedural engine over one function and returns
// its fresh summary. With report=true it additionally emits diagnostics
// for source-tainted values reaching sinks.
func (e *taintEngine) analyze(node *FuncNode, report bool) *fnTaint {
	sc := &fnScope{
		e: e, node: node, report: report,
		params: map[types.Object]int{},
		taints: map[types.Object]*taint{},
		sorted: map[types.Object][]token.Pos{},
	}
	// Parameter indexing: receiver first (methods), then declared params.
	idx := 0
	if node.Decl.Recv != nil {
		for _, field := range node.Decl.Recv.List {
			for _, name := range field.Names {
				if obj := node.Pkg.Info.Defs[name]; obj != nil {
					sc.params[obj] = idx
				}
				idx++
			}
			if len(field.Names) == 0 {
				idx++
			}
		}
	}
	if node.Decl.Type.Params != nil {
		for _, field := range node.Decl.Type.Params.List {
			for _, name := range field.Names {
				if obj := node.Pkg.Info.Defs[name]; obj != nil {
					sc.params[obj] = idx
				}
				idx++
			}
			if len(field.Names) == 0 {
				idx++
			}
		}
	}
	for obj, i := range sc.params {
		if i < 64 {
			sc.taints[obj] = &taint{params: 1 << i}
		}
	}

	sc.collectRegionsAndSorts()

	// Assignment fixpoint: flow-insensitive, repeated until no variable
	// gains taint (capped; each round only adds facts).
	for round := 0; round < 32; round++ {
		if !sc.propagateOnce() {
			break
		}
	}

	sum := &fnTaint{sinks: map[int]sinkFlow{}}
	sc.finish(sum)
	return sum
}

// collectRegionsAndSorts records map-range body extents (the order
// regions: appends inside them depend on Go's randomized iteration
// order) and sort-call positions per sorted variable (the positional
// laundering rule: a sort after the taint and before the use cleans
// ordering-only taint, mirroring the determinism checker).
func (sc *fnScope) collectRegionsAndSorts() {
	info := sc.node.Pkg.Info
	ast.Inspect(sc.node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					sc.regions = append(sc.regions, [2]token.Pos{n.Body.Pos(), n.Body.End()})
				}
			}
		case *ast.CallExpr:
			fn := funcObj(info, n)
			if fn == nil || len(n.Args) == 0 {
				return true
			}
			switch pkgPathOf(fn) {
			case "sort", "slices":
				if obj := baseObj(info, n.Args[0]); obj != nil {
					sc.sorted[obj] = append(sc.sorted[obj], n.Pos())
				}
			}
		}
		return true
	})
}

// inOrderRegion reports whether pos sits inside a map-range body.
func (sc *fnScope) inOrderRegion(pos token.Pos) bool {
	for _, r := range sc.regions {
		if pos >= r[0] && pos < r[1] {
			return true
		}
	}
	return false
}

// sortedBefore reports whether obj was sorted at a position before use.
func (sc *fnScope) sortedBefore(obj types.Object, use token.Pos) bool {
	for _, sp := range sc.sorted[obj] {
		if sp < use {
			return true
		}
	}
	return false
}

// propagateOnce walks every assignment-like construct once, merging RHS
// taint into LHS variables. Returns whether anything changed.
func (sc *fnScope) propagateOnce() bool {
	changed := false
	absorb := func(target ast.Expr, t taint) {
		if t.empty() {
			return
		}
		obj := baseObj(sc.node.Pkg.Info, target)
		if obj == nil {
			return
		}
		cur := sc.taints[obj]
		if cur == nil {
			cur = &taint{}
			sc.taints[obj] = cur
		}
		before := *cur
		cur.merge(t)
		if *cur != before {
			changed = true
		}
	}
	ast.Inspect(sc.node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					absorb(n.Lhs[i], sc.exprTaint(n.Rhs[i]))
				}
			} else if len(n.Rhs) == 1 {
				t := sc.exprTaint(n.Rhs[0])
				for _, lhs := range n.Lhs {
					absorb(lhs, t)
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					absorb(n.Names[i], sc.exprTaint(n.Values[i]))
				}
			} else if len(n.Values) == 1 {
				t := sc.exprTaint(n.Values[0])
				for _, name := range n.Names {
					absorb(name, t)
				}
			}
		case *ast.RangeStmt:
			t := sc.exprTaint(n.X)
			if !t.empty() {
				if n.Key != nil {
					absorb(n.Key, t)
				}
				if n.Value != nil {
					absorb(n.Value, t)
				}
			}
		}
		return true
	})
	return changed
}

// exprTaint evaluates the taint carried by an expression under the
// current variable state.
func (sc *fnScope) exprTaint(e ast.Expr) taint {
	info := sc.node.Pkg.Info
	switch e := e.(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if obj == nil {
			return taint{}
		}
		t := sc.taints[obj]
		if t == nil {
			return taint{}
		}
		out := *t
		// Positional laundering: ordering-only taint read after a sort
		// of the same variable is clean.
		if out.order && sc.sortedBefore(obj, e.Pos()) {
			out.src, out.order = "", false
		}
		return out
	case *ast.SelectorExpr:
		// Field read of a tainted value, or a qualified package var.
		t := sc.exprTaint(e.X)
		if obj := info.Uses[e.Sel]; obj != nil {
			if vt := sc.taints[obj]; vt != nil {
				t.merge(*vt)
			}
		}
		return t
	case *ast.CallExpr:
		return sc.callTaint(e)
	case *ast.ParenExpr:
		return sc.exprTaint(e.X)
	case *ast.StarExpr:
		return sc.exprTaint(e.X)
	case *ast.UnaryExpr:
		return sc.exprTaint(e.X)
	case *ast.BinaryExpr:
		t := sc.exprTaint(e.X)
		t.merge(sc.exprTaint(e.Y))
		return t
	case *ast.IndexExpr:
		t := sc.exprTaint(e.X)
		t.merge(sc.exprTaint(e.Index))
		return t
	case *ast.SliceExpr:
		return sc.exprTaint(e.X)
	case *ast.TypeAssertExpr:
		return sc.exprTaint(e.X)
	case *ast.CompositeLit:
		var t taint
		for _, el := range e.Elts {
			t.merge(sc.exprTaint(el))
		}
		return t
	case *ast.KeyValueExpr:
		return sc.exprTaint(e.Value)
	}
	return taint{}
}

// callTaint evaluates a call expression: sources, module summaries,
// sort laundering, conversions, and the conservative argument
// passthrough for everything the engine cannot see into. A call through
// a function value resolves to nothing and taints nothing — that is
// the obs.Clock seam: injected clocks are deterministic by contract.
func (sc *fnScope) callTaint(call *ast.CallExpr) taint {
	info := sc.node.Pkg.Info
	// Type conversion: taint of the operand.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return sc.exprTaint(call.Args[0])
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append":
				var t taint
				for _, a := range call.Args {
					t.merge(sc.exprTaint(a))
				}
				if sc.inOrderRegion(call.Pos()) {
					t.merge(taint{src: "map iteration order", order: true})
				}
				return t
			case "len", "cap", "make", "new":
				return taint{}
			default:
				var t taint
				for _, a := range call.Args {
					t.merge(sc.exprTaint(a))
				}
				return t
			}
		}
	}
	fn := funcObj(info, call)
	if fn == nil {
		// Function value or interface the engine cannot resolve: the
		// injected-seam laundering. obs.Clock reads land here.
		return taint{}
	}
	if src := sourceOf(fn); src != "" {
		return taint{src: src}
	}
	argTaint := func() taint {
		var t taint
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if _, isMethod := info.Selections[sel]; isMethod {
				t.merge(sc.exprTaint(sel.X))
			}
		}
		for _, a := range call.Args {
			t.merge(sc.exprTaint(a))
		}
		return t
	}
	switch pkgPathOf(fn) {
	case "sort", "slices":
		// Sorting launders ordering-only taint; value taint survives.
		t := argTaint()
		if t.order {
			t.src, t.order = "", false
		}
		return t
	}
	if node := sc.e.nodeFor(fn); node != nil {
		sum := sc.e.summaries[fn]
		var t taint
		if sum != nil {
			if sum.retSrc != "" {
				t.merge(taint{src: fn.Name() + " (" + sum.retSrc + ")", order: sum.retOrder})
			}
			if sum.retParams != 0 {
				args := sc.callArgs(call, fn)
				for i, a := range args {
					bit := i
					if bit > 63 {
						bit = 63
					}
					if sum.retParams&(1<<bit) != 0 {
						t.merge(sc.exprTaint(a))
					}
				}
			}
		}
		return t
	}
	// Unknown externals (fmt, strconv, strings, time arithmetic, ...):
	// conservative passthrough — derived output carries input taint.
	return argTaint()
}

// callArgs aligns a call's argument expressions with the callee's
// summary parameter indexing: receiver first for methods.
func (sc *fnScope) callArgs(call *ast.CallExpr, fn *types.Func) []ast.Expr {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if _, isMethod := sc.node.Pkg.Info.Selections[sel]; isMethod {
				return append([]ast.Expr{sel.X}, call.Args...)
			}
		}
	}
	return call.Args
}

// nodeFor returns the call-graph node for a module function, nil for
// externals.
func (e *taintEngine) nodeFor(fn *types.Func) *FuncNode {
	return e.pass.Graph.Nodes[fn]
}

// finish runs the sink-and-return pass: emit reports (report mode),
// and fold sink flows and return taint into the summary.
func (sc *fnScope) finish(sum *fnTaint) {
	ast.Inspect(sc.node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sc.checkCall(n, sum)
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				t := sc.exprTaint(res)
				if t.src != "" && sum.retSrc == "" {
					sum.retSrc, sum.retOrder = t.src, t.order
				}
				sum.retParams |= t.params
			}
		}
		return true
	})
}

// checkCall inspects one call: a configured sink, or a module function
// whose summary says a parameter reaches a sink.
func (sc *fnScope) checkCall(call *ast.CallExpr, sum *fnTaint) {
	fn := funcObj(sc.node.Pkg.Info, call)
	if fn == nil {
		return
	}
	if desc := sinkOf(sc.e.pass.Cfg, fn); desc != "" {
		for _, a := range call.Args {
			t := sc.exprTaint(a)
			if t.src != "" {
				sc.reportFlow(call, t.src, desc, fn.Name(), "")
			}
			sc.recordParamSinks(sum, t, desc, "", false)
		}
		return
	}
	if sc.e.nodeFor(fn) == nil {
		return
	}
	calleeSum := sc.e.summaries[fn]
	if calleeSum == nil || len(calleeSum.sinks) == 0 {
		return
	}
	args := sc.callArgs(call, fn)
	// Deterministic order over the callee's sink params.
	idxs := make([]int, 0, len(calleeSum.sinks))
	for i := range calleeSum.sinks {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		if i >= len(args) {
			continue
		}
		flow := calleeSum.sinks[i]
		via := fn.Name()
		if flow.via != "" {
			via += " → " + flow.via
		}
		t := sc.exprTaint(args[i])
		if t.src != "" && !(t.order && flow.sorted) {
			sc.reportFlow(call, t.src, flow.desc, "", via)
		}
		sc.recordParamSinks(sum, t, flow.desc, via, flow.sorted)
	}
}

// recordParamSinks folds "this function's parameter reaches a sink"
// facts into the summary.
func (sc *fnScope) recordParamSinks(sum *fnTaint, t taint, desc, via string, sorted bool) {
	if t.params == 0 {
		return
	}
	for bit := 0; bit < 64; bit++ {
		if t.params&(1<<bit) == 0 {
			continue
		}
		if _, exists := sum.sinks[bit]; !exists {
			sum.sinks[bit] = sinkFlow{desc: desc, via: via, sorted: sorted}
		}
	}
}

// reportFlow emits one nondetflow diagnostic at the sink-reaching call.
func (sc *fnScope) reportFlow(call *ast.CallExpr, src, desc, direct, via string) {
	if !sc.report {
		return
	}
	switch {
	case via != "":
		sc.e.pass.Reportf(call.Pos(),
			"value derived from %s flows into %s via %s", src, desc, via)
	case direct != "":
		sc.e.pass.Reportf(call.Pos(),
			"value derived from %s flows into %s (%s)", src, desc, direct)
	default:
		sc.e.pass.Reportf(call.Pos(),
			"value derived from %s flows into %s", src, desc)
	}
}

// sourceOf classifies a resolved callee as a nondeterminism source.
func sourceOf(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() != nil {
		return ""
	}
	switch pkgPathOf(fn) {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return "time." + fn.Name()
		}
	case "math/rand", "math/rand/v2":
		if !globalRandOK[fn.Name()] {
			return "rand." + fn.Name()
		}
	}
	return ""
}

// sinkOf matches a resolved callee against Config.TaintSinks.
func sinkOf(cfg Config, fn *types.Func) string {
	pkg, name := pkgPathOf(fn), fn.Name()
	for _, s := range cfg.TaintSinks {
		if s.Pkg == pkg && s.Name == name {
			return s.Desc
		}
	}
	return ""
}

// baseObj resolves the root variable of an lvalue-ish expression:
// x, x.f, x[i], *x, (x) all resolve to x's object.
func baseObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch ee := e.(type) {
		case *ast.Ident:
			if obj := info.Uses[ee]; obj != nil {
				return obj
			}
			return info.Defs[ee]
		case *ast.SelectorExpr:
			e = ee.X
		case *ast.IndexExpr:
			e = ee.X
		case *ast.StarExpr:
			e = ee.X
		case *ast.ParenExpr:
			e = ee.X
		case *ast.SliceExpr:
			e = ee.X
		default:
			return nil
		}
	}
}
