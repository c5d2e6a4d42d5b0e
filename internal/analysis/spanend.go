package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// spanendChecker keeps the trace tree honest: a span that is started but
// never ended records nothing (its duration is lost and the exporter
// never sees it), and one that is ended only on some control-flow paths
// leaks whenever the other path is taken. Every obs.StartSpan /
// obs.StartSpanWith call in non-test code must therefore bind the span
// and end it on every path out of the enclosing function — `defer
// span.End()` by preference, or a straight-line `span.End()` (or `d :=
// span.End()`, keeping the duration End returns) with no return between
// start and end. Ending inside a nested function literal
// is accepted (the deferred-closure pattern the pipeline uses to end its
// run span exactly once), as is returning the span to the caller, which
// transfers the obligation.
var spanendChecker = &Checker{
	Name: "spanend",
	Doc:  "spans from obs.StartSpan/StartSpanWith are ended on all paths (prefer defer span.End())",
	Rationale: "A span that is started but not ended on some return path exports a trace " +
		"tree with silently missing subtrees — the trace viewer shows a gap, not an error, " +
		"and the flight recorder's ring retains a half-open span forever. Requiring an " +
		"End on every path (defer, always-run closure, or straight-line) keeps exported " +
		"traces structurally complete.",
	Example: `internal/core/pipeline.go:350: [spanend] span from StartSpan is not ended on all paths (prefer defer span.End())`,
	Run:     runSpanend,
}

func runSpanend(p *Pass) {
	for _, pkg := range p.Module.Pkgs {
		for _, f := range pkg.Files {
			name := p.Module.Fset.Position(f.Pos()).Filename
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					checkSpanScope(p, pkg, fd.Body)
				}
			}
		}
	}
}

// spanStart is one StartSpan call bound to a variable in the scope under
// check, with the block position needed for the straight-line analysis.
type spanStart struct {
	obj   types.Object
	name  string // "StartSpan" or "StartSpanWith"
	stmt  *ast.AssignStmt
	block *ast.BlockStmt
	idx   int // index of stmt in block.List (-1 if not a direct block child)
}

// checkSpanScope analyzes one function body. Nested function literals
// are separate scopes: a span started inside a closure must be ended by
// that closure, and conversely a span started outside may be ended by a
// closure the outer function runs on every exit path.
func checkSpanScope(p *Pass, pkg *Package, body *ast.BlockStmt) {
	stmtPos := indexStatements(body)

	var starts []spanStart
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkSpanScope(p, pkg, n.Body)
			return false
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if fn := startSpanCallee(pkg, call); fn != "" {
					p.Reportf(call.Pos(),
						"result of obs.%s is discarded; bind the span and defer span.End()", fn)
				}
			}
		// A StartSpan call inside a return statement transfers the End
		// obligation to the caller (this is how obs.StartSpan itself
		// delegates to StartSpanWith); it needs no case here because
		// only assignment and bare-statement uses are ever reported.
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := startSpanCallee(pkg, call)
			if fn == "" {
				return true
			}
			if len(n.Lhs) != 2 {
				return true
			}
			ident, ok := n.Lhs[1].(*ast.Ident)
			if !ok {
				return true
			}
			if ident.Name == "_" {
				p.Reportf(ident.Pos(),
					"span from obs.%s is assigned to the blank identifier and can never be ended", fn)
				return true
			}
			obj := pkg.Info.Defs[ident]
			if obj == nil {
				obj = pkg.Info.Uses[ident]
			}
			if obj == nil {
				return true
			}
			st := spanStart{obj: obj, name: fn, stmt: n, idx: -1}
			if pos, ok := stmtPos[ast.Stmt(n)]; ok {
				st.block, st.idx = pos.block, pos.idx
			}
			starts = append(starts, st)
		}
		return true
	})

	for _, st := range starts {
		checkSpanEnds(p, pkg, body, st, stmtPos)
	}
}

// endSite classifies one span.End() use inside the scope.
type endSite struct {
	deferred bool
	inLit    bool
	block    *ast.BlockStmt
	idx      int
}

// checkSpanEnds verifies one started span has a dominating End within
// the scope and reports otherwise.
func checkSpanEnds(p *Pass, pkg *Package, body *ast.BlockStmt, st spanStart, stmtPos map[ast.Stmt]stmtAt) {
	var sites []endSite
	depth := 0
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			depth++
			ast.Inspect(n.Body, walk)
			depth--
			return false
		case *ast.DeferStmt:
			if isEndCall(pkg, n.Call, st.obj) {
				sites = append(sites, endSite{deferred: true, inLit: depth > 0})
				return false
			}
		case *ast.ExprStmt, *ast.AssignStmt:
			if !isEndStmt(pkg, n.(ast.Stmt), st.obj) {
				return true
			}
			site := endSite{inLit: depth > 0, idx: -1}
			if pos, ok := stmtPos[n.(ast.Stmt)]; ok {
				site.block, site.idx = pos.block, pos.idx
			}
			sites = append(sites, site)
		}
		return true
	}
	ast.Inspect(body, walk)

	if len(sites) == 0 {
		p.Reportf(st.stmt.Pos(),
			"span %q from obs.%s is never ended in this function; defer %s.End() after starting it",
			st.obj.Name(), st.name, st.obj.Name())
		return
	}
	for _, site := range sites {
		if site.deferred || site.inLit {
			// defer runs on every exit path; a closure end-site is the
			// deferred-wrapper pattern and is accepted as dominating.
			return
		}
		if site.block == st.block && st.idx >= 0 && site.idx > st.idx &&
			!returnsBetween(st.block, st.idx+1, site.idx) {
			return
		}
	}
	p.Reportf(st.stmt.Pos(),
		"span %q from obs.%s is not ended on all paths (a return can skip %s.End(); use defer)",
		st.obj.Name(), st.name, st.obj.Name())
}

// stmtAt locates a statement as a direct child of a block.
type stmtAt struct {
	block *ast.BlockStmt
	idx   int
}

// indexStatements maps every direct block-child statement in the scope
// (excluding nested function literals) to its block and index.
func indexStatements(body *ast.BlockStmt) map[ast.Stmt]stmtAt {
	pos := map[ast.Stmt]stmtAt{}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if b, ok := n.(*ast.BlockStmt); ok {
			for i, s := range b.List {
				pos[s] = stmtAt{block: b, idx: i}
			}
		}
		return true
	})
	return pos
}

// returnsBetween reports whether any statement in block.List[from:to]
// contains a return (at any depth outside nested function literals),
// which would let control skip a straight-line End below it.
func returnsBetween(block *ast.BlockStmt, from, to int) bool {
	for _, s := range block.List[from:to] {
		found := false
		ast.Inspect(s, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// startSpanCallee returns "StartSpan" / "StartSpanWith" when the call
// resolves to the internal/obs span constructors, else "".
func startSpanCallee(pkg *Package, call *ast.CallExpr) string {
	fn := funcObj(pkg.Info, call)
	if fn == nil || pkgPathOf(fn) != "aipan/internal/obs" {
		return ""
	}
	if name := fn.Name(); name == "StartSpan" || name == "StartSpanWith" {
		return name
	}
	return ""
}

// isEndStmt reports whether stmt is a statement-level End of the span:
// `span.End()`, or `d := span.End()` keeping the returned duration.
func isEndStmt(pkg *Package, stmt ast.Stmt, obj types.Object) bool {
	var call ast.Expr
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		call = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) != 1 {
			return false
		}
		call = s.Rhs[0]
	}
	c, ok := call.(*ast.CallExpr)
	return ok && isEndCall(pkg, c, obj)
}

// isEndCall reports whether call is `<span>.End()` on the given span
// object.
func isEndCall(pkg *Package, call *ast.CallExpr, obj types.Object) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return false
	}
	ident, ok := sel.X.(*ast.Ident)
	return ok && pkg.Info.Uses[ident] == obj
}
