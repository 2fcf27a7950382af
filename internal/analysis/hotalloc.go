package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAllocAnalyzer keeps per-iteration heap traffic out of the pipeline's
// innermost loops. The mux render, camera synthesis and DecodeCaptures
// loops run per pixel or per Block at 30–120 Hz; an allocation inside them
// turns into millions of allocations per second and GC pressure that shows
// up directly in ns/op (the benchdiff gate catches it dynamically — this
// analyzer catches it before it is ever measured).
//
// Inside the innermost loops of hot functions (see loops.go for hotness)
// it flags:
//
//   - make / new calls;
//   - composite literals that allocate: slice or map literals, and any
//     literal whose address is taken (&T{...}); plain value struct/array
//     literals are register-allocated and stay allowed;
//   - string concatenation (each + builds a fresh string);
//   - fmt calls (they allocate and box every operand);
//   - explicit conversions of concrete values to interface types (boxing);
//   - software transcendental math calls (math.Pow, math.Round, math.Sin,
//     …): not allocations, but the same per-iteration cost class — a
//     50–200-cycle library call on every pixel. The fixed-point era made
//     this the repo's dominant regression vector (camera gamma encode was
//     31% of EndToEnd before the internal/fixed LUT cutover), so the
//     analyzer flags them alongside heap traffic. Intrinsified functions
//     (Sqrt, Abs, Floor, Ceil, Trunc, Min, Max) compile to single
//     instructions and stay allowed.
//
// The sanctioned pattern is the repo's scratch-buffer idiom: allocate once
// per function or per worker chunk (the capture stream's pooled row runs
// in camera.CaptureWith) and reuse;
// for curves, tabulate once (internal/fixed's Gamma) and interpolate.
var HotAllocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Doc:  "forbid allocations (make/new/escaping literals/string concat/fmt/boxing) and software transcendental math calls in innermost loops of hot functions",
	Run:  runHotAlloc,
}

// transcendentalMath lists the math functions that are genuine software
// call-outs (no compiler intrinsic): each costs tens to hundreds of cycles
// per call. Sqrt/Abs/Floor/Ceil/Trunc/Inf/NaN/Signbit/Min/Max are
// intrinsified or trivial and deliberately absent.
var transcendentalMath = map[string]bool{
	"Pow": true, "Exp": true, "Exp2": true, "Expm1": true,
	"Log": true, "Log2": true, "Log10": true, "Log1p": true,
	"Sin": true, "Cos": true, "Tan": true, "Sincos": true,
	"Asin": true, "Acos": true, "Atan": true, "Atan2": true,
	"Sinh": true, "Cosh": true, "Tanh": true,
	"Asinh": true, "Acosh": true, "Atanh": true,
	"Round": true, "RoundToEven": true, "Mod": true, "Remainder": true,
	"Hypot": true, "Cbrt": true, "Gamma": true, "Lgamma": true,
	"Erf": true, "Erfc": true, "Erfinv": true, "Erfcinv": true,
}

func runHotAlloc(pass *Pass) {
	for _, fn := range collectHotFuncs(pass) {
		if !fn.hot {
			continue
		}
		for _, loop := range fn.loops {
			if !loop.innermost() {
				continue
			}
			inspectLoop(loop.body(), func(n ast.Node) {
				checkHotAllocNode(pass, fn, n)
			})
			if fs, ok := loop.stmt.(*ast.ForStmt); ok {
				if fs.Cond != nil {
					inspectLoop(fs.Cond, func(n ast.Node) { checkHotAllocNode(pass, fn, n) })
				}
				if fs.Post != nil {
					inspectLoop(fs.Post, func(n ast.Node) { checkHotAllocNode(pass, fn, n) })
				}
			}
		}
	}
}

// inspectLoop walks an innermost loop region without descending into
// function literals (their bodies run on their own frame and get their own
// funcLoops entry).
func inspectLoop(n ast.Node, visit func(ast.Node)) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if m != nil {
			visit(m)
		}
		return true
	})
}

func checkHotAllocNode(pass *Pass, fn *funcLoops, n ast.Node) {
	switch n := n.(type) {
	case *ast.CallExpr:
		checkHotAllocCall(pass, fn, n)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				pass.Reportf(n.Pos(), "&composite literal escapes to the heap every iteration of a hot innermost loop in %s; allocate once outside the loop", fn.name)
			}
		}
	case *ast.CompositeLit:
		t := pass.Info.Types[ast.Expr(n)].Type
		if t == nil {
			return
		}
		switch t.Underlying().(type) {
		case *types.Slice, *types.Map:
			pass.Reportf(n.Pos(), "%s literal allocates every iteration of a hot innermost loop in %s; hoist or reuse a scratch buffer", litKind(t), fn.name)
		}
	case *ast.BinaryExpr:
		if n.Op != token.ADD {
			return
		}
		if t, ok := pass.Info.Types[ast.Expr(n)].Type.Underlying().(*types.Basic); ok && t.Info()&types.IsString != 0 {
			// Constant folding happens at compile time; only flag runtime
			// concatenation.
			if pass.Info.Types[ast.Expr(n)].Value == nil {
				pass.Reportf(n.Pos(), "string concatenation allocates every iteration of a hot innermost loop in %s; build once outside or use a []byte scratch", fn.name)
			}
		}
	}
}

func checkHotAllocCall(pass *Pass, fn *funcLoops, call *ast.CallExpr) {
	// Type conversions to interface types box their operand.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if _, isIface := tv.Type.Underlying().(*types.Interface); isIface && len(call.Args) == 1 {
			if at := pass.Info.Types[call.Args[0]].Type; at != nil {
				if _, already := at.Underlying().(*types.Interface); !already {
					pass.Reportf(call.Pos(), "conversion to interface boxes its operand every iteration of a hot innermost loop in %s", fn.name)
				}
			}
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				pass.Reportf(call.Pos(), "%s allocates every iteration of a hot innermost loop in %s; hoist the buffer and reuse it", b.Name(), fn.name)
			}
			return
		}
	}
	obj := funcObj(pass.Info, call.Fun)
	if obj == nil || obj.Pkg() == nil {
		return
	}
	switch obj.Pkg().Path() {
	case "fmt":
		pass.Reportf(call.Pos(), "fmt.%s allocates and boxes in a hot innermost loop in %s; move formatting out of the per-element path", obj.Name(), fn.name)
	case "math":
		if transcendentalMath[obj.Name()] {
			pass.Reportf(call.Pos(), "math.%s is a software transcendental call on every iteration of a hot innermost loop in %s; hoist it, tabulate it (see internal/fixed), or move to integer arithmetic", obj.Name(), fn.name)
		}
	}
}

// litKind names the allocating literal class for the diagnostic.
func litKind(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Map:
		return "map"
	default:
		return "slice"
	}
}
