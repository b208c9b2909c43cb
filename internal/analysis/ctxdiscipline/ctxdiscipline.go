// Package ctxdiscipline defines an analyzer enforcing the service
// tier's cancellation contract.
//
// The service tier exists to run simulations on behalf of HTTP
// requests, and requests die: clients disconnect, deadlines fire,
// the server drains. tasks.RunCtx is the one simulation entry point,
// and it honors that — it executes the kernel in RunUntil slices and
// polls the request context between slices, so an abandoned request
// frees its worker in bounded time. A direct Kernel.Run from service
// code bypasses the slicing and wedges a pool worker for the full
// virtual run no matter when the caller went away.
//
// Two rules:
//
//  1. In howsim/internal/service and howsim/cmd/howsimd, calls that
//     execute a simulation directly — Run / RunUntil on *sim.Kernel or
//     *sim.ShardGroup — are findings, and so is any tasks.Run* function
//     other than tasks.RunCtx, a guard against a context-free entry
//     point coming back.
//
//  2. In those packages plus howsim/internal/tasks, a function that
//     takes a context.Context must not contain a loop that calls out
//     without ever consulting a context — the worker/pool shape where
//     cancellation is accepted at the signature and then ignored for
//     the duration. Any reference to a context-typed value inside the
//     loop (ctx.Err(), ctx.Done(), passing ctx along) satisfies the
//     rule.
//
// `//howsim:allow ctxdiscipline -- reason` suppresses a finding on its
// line or the line above.
package ctxdiscipline

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"

	"howsim/internal/analysis/allow"
)

var Analyzer = &analysis.Analyzer{
	Name: "ctxdiscipline",
	Doc:  "service-tier simulations must run via tasks.RunCtx, and ctx-taking loops must poll their context",
	Run:  run,
}

// runEntryPrefixes are the request-serving packages where rule 1
// applies: simulation execution must be routed through tasks.RunCtx.
var runEntryPrefixes = []string{
	"howsim/internal/service",
	"howsim/cmd/howsimd",
}

// loopPrefixes add the tier that implements the sliced execution
// itself; rule 2's ctx-polling shape applies there too.
var loopPrefixes = []string{
	"howsim/internal/service",
	"howsim/cmd/howsimd",
	"howsim/internal/tasks",
}

// directRunMethods are the kernel-driving methods on *sim.Kernel and
// *sim.ShardGroup that execute a simulation to (or toward) completion.
var directRunMethods = map[string]bool{
	"Run":      true,
	"RunUntil": true,
}

func hasPrefix(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) (any, error) {
	path := pass.Pkg.Path()
	if !hasPrefix(path, loopPrefixes) {
		return nil, nil
	}
	sup := allow.NewSuppressor(pass)
	defer sup.ReportStale(pass)
	entry := hasPrefix(path, runEntryPrefixes)

	for _, f := range pass.Files {
		if allow.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		if entry {
			checkDirectRuns(pass, sup, f)
		}
		checkLoops(pass, sup, f)
	}
	return nil, nil
}

// checkDirectRuns flags rule-1 calls: direct kernel execution and
// context-free tasks entry points.
func checkDirectRuns(pass *analysis.Pass, sup *allow.Suppressor, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return true
		}
		if recv := sig.Recv(); recv != nil {
			tn, pkg := recvTypeAndPkg(recv.Type())
			if pkg == "sim" && (tn == "Kernel" || tn == "ShardGroup") && directRunMethods[fn.Name()] {
				allow.Reportf(pass, sup, call.Pos(),
					"direct %s.%s call in the service tier: route simulation execution through tasks.RunCtx so the run stays cancellable",
					tn, fn.Name())
			}
			return true
		}
		if fn.Pkg() != nil && fn.Pkg().Name() == "tasks" &&
			strings.HasPrefix(fn.Name(), "Run") && fn.Name() != "RunCtx" {
			allow.Reportf(pass, sup, call.Pos(),
				"tasks.%s executes a simulation without a context; the service tier must call tasks.RunCtx",
				fn.Name())
		}
		return true
	})
}

// recvTypeAndPkg unwraps a receiver type to its named type's name and
// defining package name.
func recvTypeAndPkg(t types.Type) (string, string) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name(), ""
	}
	return obj.Name(), obj.Pkg().Name()
}

// checkLoops flags rule-2 loops: inside any function (declaration or
// literal) with a context.Context parameter, a for/range loop that
// makes calls but never references a context-typed value.
func checkLoops(pass *analysis.Pass, sup *allow.Suppressor, f *ast.File) {
	check := func(ftyp *ast.FuncType, body *ast.BlockStmt, name string) {
		if body == nil || !hasCtxParam(pass, ftyp) {
			return
		}
		checkLoopBody(pass, sup, body, name)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			check(fn.Type, fn.Body, fn.Name.Name)
		case *ast.FuncLit:
			check(fn.Type, fn.Body, "func literal")
		}
		return true
	})
}

// hasCtxParam reports whether the function type declares a
// context.Context parameter.
func hasCtxParam(pass *analysis.Pass, ftyp *ast.FuncType) bool {
	if ftyp.Params == nil {
		return false
	}
	for _, field := range ftyp.Params.List {
		if tv, ok := pass.TypesInfo.Types[field.Type]; ok && isContext(tv.Type) {
			return true
		}
	}
	return false
}

// isContext reports whether t is context.Context.
func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// checkLoopBody walks a ctx-taking function body looking for loops
// that call out but never touch a context. Only outermost offending
// loops are reported: a loop that references ctx anywhere inside it
// (including via a nested loop) passes.
func checkLoopBody(pass *analysis.Pass, sup *allow.Suppressor, body *ast.BlockStmt, name string) {
	ast.Inspect(body, func(n ast.Node) bool {
		var loop ast.Node
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loop = n
		case *ast.FuncLit:
			// Literals are checked independently by checkLoops (their
			// own params decide whether the rule applies).
			return false
		default:
			return true
		}
		if !loopDoesWork(pass, loop) || loopTouchesContext(pass, loop) {
			return true
		}
		allow.Reportf(pass, sup, loop.Pos(),
			"loop in %s calls out without polling its context; check ctx.Err() or select on ctx.Done() each iteration",
			name)
		// Don't pile findings onto nested loops of an already-flagged one.
		return false
	})
}

// loopDoesWork reports whether the loop contains a real call — the
// shape worth interrupting. Conversions, builtins, and method values
// without invocation don't count.
func loopDoesWork(pass *analysis.Pass, loop ast.Node) bool {
	found := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
			return true
		}
		found = true
		return false
	})
	return found
}

// loopTouchesContext reports whether any expression inside the loop is
// of (or references a value of) type context.Context — ctx.Err(),
// ctx.Done(), rc.ctx, or passing ctx to a callee all qualify.
func loopTouchesContext(pass *analysis.Pass, loop ast.Node) bool {
	touched := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if touched {
			return false
		}
		expr, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if tv, ok := pass.TypesInfo.Types[expr]; ok && !tv.IsType() && isContext(tv.Type) {
			touched = true
			return false
		}
		return true
	})
	return touched
}
