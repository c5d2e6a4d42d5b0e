package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// determinismChecker guards the paper's reproducibility claim (§3, §5):
// the packages that produce dataset bytes must be pure functions of
// (seed, corpus, taxonomy). Three nondeterminism sources are banned
// inside Config.DeterministicPkgs:
//
//  1. time.Now — wall-clock reads belong to obs (inject obs.Clock).
//  2. the global math/rand source — rand.Intn and friends share
//     process-global state; only seeded *rand.Rand instances
//     (rand.New(rand.NewSource(seed))) are deterministic.
//  3. map iteration feeding output — ranging over a map and appending,
//     sending, or writing rows leaks Go's randomized map order into the
//     result, and so does assigning the range key or value to a plain
//     variable declared outside the loop (a first- or last-wins pick),
//     unless the enclosing function sorts afterwards (collect-then-sort
//     is the repo's sanctioned pattern).
//
// webgen/russell/downstream (seeded rand) and obs (wall clock) are
// allowlisted by construction: they are not in DeterministicPkgs.
var determinismChecker = &Checker{
	Name: "determinism",
	Doc:  "no wall clock, global rand, or unsorted map iteration (output or a first/last-wins pick) in dataset-producing packages",
	Rationale: "The reproduction's core guarantee is byte-identical dataset output for a " +
		"given seed, across worker counts and store backends. Any wall-clock read, draw from " +
		"the unseeded global math/rand source, map-iteration-ordered output, or element " +
		"picked by map order (the first or last range key or value kept in an outer " +
		"variable, so ties go to whichever the map yields) inside the " +
		"dataset-producing packages breaks that silently. This checker bans the sources " +
		"syntactically inside Config.DeterministicPkgs; nondetflow complements it by tracking " +
		"derived values through call chains module-wide.",
	Example: `internal/core/pipeline.go:101: [determinism] time.Now is nondeterministic; inject obs.Clock or derive from the seed`,
	Run:     runDeterminism,
}

// globalRandOK are the math/rand package-level functions that construct
// seeded sources rather than draw from the global one.
var globalRandOK = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

func runDeterminism(p *Pass) {
	for _, pkg := range p.Module.Pkgs {
		if !p.Cfg.deterministic(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkDeterminismCall(p, pkg, n)
				case *ast.FuncDecl:
					if n.Body != nil {
						checkMapRanges(p, pkg, n.Body)
					}
				}
				return true
			})
		}
	}
}

func checkDeterminismCall(p *Pass, pkg *Package, call *ast.CallExpr) {
	fn := funcObj(pkg.Info, call)
	if fn == nil {
		return
	}
	switch pkgPathOf(fn) {
	case "time":
		if fn.Name() == "Now" && fn.Type().(*types.Signature).Recv() == nil {
			p.Reportf(call.Pos(),
				"call to time.Now in deterministic package %s (inject an obs.Clock seam instead)", pkg.Path)
		}
	case "math/rand", "math/rand/v2":
		if fn.Type().(*types.Signature).Recv() == nil && !globalRandOK[fn.Name()] {
			p.Reportf(call.Pos(),
				"use of the global math/rand source (rand.%s) in deterministic package %s (use a seeded rand.New(rand.NewSource(seed)))",
				fn.Name(), pkg.Path)
		}
	}
}

// checkMapRanges walks one function body and flags map-range loops that
// feed output without a later sort in the same function.
func checkMapRanges(p *Pass, pkg *Package, body *ast.BlockStmt) {
	// Collect the positions after which a sort call occurs.
	var sortPositions []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := funcObj(pkg.Info, call); fn != nil {
			switch pkgPathOf(fn) {
			case "sort", "slices":
				sortPositions = append(sortPositions, call.Pos())
			}
		}
		return true
	})
	sortedAfter := func(pos token.Pos) bool {
		for _, sp := range sortPositions {
			if sp > pos {
				return true
			}
		}
		return false
	}

	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pkg.Info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		reason := feedsOutput(pkg, rng.Body)
		if reason == "" {
			reason = picksElement(pkg, rng)
		}
		if reason != "" && !sortedAfter(rng.End()) {
			p.Reportf(rng.Pos(),
				"map iteration %s without a following sort leaks randomized map order into output in deterministic package %s",
				reason, pkg.Path)
		}
		return true
	})
}

// feedsOutput reports how a map-range body makes iteration order
// observable: appending to a slice, sending on a channel, or calling an
// order-sensitive sink method. Pure numeric accumulation and map/set
// writes are commutative and therefore fine.
func feedsOutput(pkg *Package, body *ast.BlockStmt) string {
	// Order-sensitive sink methods in this codebase: table row builders
	// and stream writers.
	sinks := map[string]bool{
		"Append": true, "AddRow": true, "Write": true, "WriteString": true,
		"WriteRune": true, "WriteByte": true, "Fprintf": true, "Fprintln": true, "Fprint": true,
		"Print": true, "Printf": true, "Println": true,
	}
	reason := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			reason = "sending on a channel"
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if fun.Name == "append" {
					if _, isBuiltin := pkg.Info.Uses[fun].(*types.Builtin); isBuiltin {
						reason = "appending to a slice"
					}
				}
			case *ast.SelectorExpr:
				if sinks[fun.Sel.Name] {
					reason = "calling " + fun.Sel.Name
				}
			}
		}
		return true
	})
	return reason
}

// picksElement reports a map-range body that assigns the range key or
// value — or a field, element or dereference of one — to a plain
// variable declared outside the loop. Whichever iteration assigns first
// or last wins, so the kept element follows Go's randomized map order
// whenever more than one iteration qualifies. Map writes and compound
// assignments (numeric accumulation) are not picks.
func picksElement(pkg *Package, rng *ast.RangeStmt) string {
	objOf := func(e ast.Expr) types.Object {
		if id, ok := e.(*ast.Ident); ok {
			return pkg.Info.ObjectOf(id)
		}
		return nil
	}
	key, val := objOf(rng.Key), objOf(rng.Value)
	fromIter := func(e ast.Expr) bool {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				obj := objOf(x)
				return obj != nil && (obj == key || obj == val)
			}
		}
	}
	reason := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			v, ok := pkg.Info.Uses[id].(*types.Var)
			if !ok || (v.Pos() >= rng.Pos() && v.Pos() < rng.End()) {
				continue // blank, or declared inside the loop
			}
			if fromIter(as.Rhs[i]) {
				reason = "assigning the range key or value to " + id.Name + " (a first- or last-wins pick)"
				return false
			}
		}
		return true
	})
	return reason
}
