// Package noblockincallback flags blocking simulator primitives called
// from kernel/Task callback context.
//
// The kernel runs continuation callbacks (the substrate service loops'
// state machines) inline in kernel context: there is no process to
// park, so a blocking call — anything that takes a *sim.Proc and may wait, such
// as Mailbox.Get/Put, Resource.Acquire, Pipe.Transfer, Signal.Wait,
// cpu.Busy or bus.Transfer — deadlocks the whole kernel instead of one
// process. Callback code must use the *Func continuation forms.
//
// Callback context is inferred package-locally: a function is treated
// as callback-only when it is registered as a continuation (passed to a
// *Func primitive, to Kernel.At/After or Proc.Chain, or bound to a
// struct field whose name ends in "Fn" — the repo's state-machine
// convention) and is never also called directly from ordinary process
// code. Function literals
// passed as continuations are callback context unconditionally.
package noblockincallback

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"howsim/internal/analysis/allow"
)

var Analyzer = &analysis.Analyzer{
	Name: "noblockincallback",
	Doc: "flag blocking primitives (Mailbox.Get/Put, Resource.Acquire, Pipe.Transfer, Signal.Wait, cpu.Busy, " +
		"bus.Transfer, Proc.Delay, …) called from functions reachable only as kernel/Task callbacks, " +
		"where blocking deadlocks the kernel; callbacks must use the *Func continuation forms",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// registrars are the continuation-accepting primitives: a func-typed
// argument passed to one of these runs in kernel context.
var registrars = map[string]bool{
	"GetFunc": true, "PutFunc": true, "AcquireFunc": true,
	"TransferFunc": true, "TransferSegmentedFunc": true, "WaitFunc": true, "BusyFunc": true,
	"SendFunc": true, "At": true, "After": true,
	// Proc.Chain runs its start step with the process asleep in a
	// chain: the step must issue callback forms, never block.
	"Chain": true,
}

// blockingProcMethods are methods on *sim.Proc that park the calling
// goroutine.
var blockingProcMethods = map[string]bool{
	"Delay": true, "Await": true,
}

func run(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	sup := allow.NewSuppressor(pass)
	defer sup.ReportStale(pass)

	// Pass 1: index this package's function bodies and collect callback
	// registrations.
	decls := map[*types.Func]*ast.FuncDecl{} // declared funcs/methods with bodies
	var cbRoots []*types.Func                // named funcs registered as continuations
	var cbLits []*ast.FuncLit                // literals registered as continuations

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil {
			return
		}
		if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
			decls[fn] = fd
		}
	})

	addRoot := func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.FuncLit:
			cbLits = append(cbLits, e)
		case *ast.Ident:
			if fn, ok := pass.TypesInfo.Uses[e].(*types.Func); ok {
				cbRoots = append(cbRoots, fn)
			}
		case *ast.SelectorExpr: // bound method value: d.onDone
			if fn, ok := pass.TypesInfo.Uses[e.Sel].(*types.Func); ok {
				cbRoots = append(cbRoots, fn)
			}
		}
	}

	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil), (*ast.AssignStmt)(nil)}, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || !registrars[sel.Sel.Name] {
				return
			}
			for _, arg := range n.Args {
				if _, isFunc := pass.TypesInfo.TypeOf(arg).Underlying().(*types.Signature); isFunc {
					addRoot(arg)
				}
			}
		case *ast.AssignStmt:
			// x.fooFn = x.foo — binding a continuation into state-machine
			// storage marks the bound method as callback context.
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				if sel, ok := lhs.(*ast.SelectorExpr); ok && strings.HasSuffix(sel.Sel.Name, "Fn") {
					addRoot(n.Rhs[i])
				}
			}
		}
	})

	if len(cbRoots) == 0 && len(cbLits) == 0 {
		return nil, nil
	}

	// Pass 2: package-local call graph over declared functions, plus the
	// call sites of each (to tell "callback-only" apart from "also
	// called from process code").
	callees := map[*types.Func][]*types.Func{}
	callerOf := map[*types.Func][]*types.Func{} // callee -> enclosing functions of its call sites
	litCallees := map[*ast.FuncLit][]*types.Func{}
	for fn, fd := range decls {
		fn, fd := fn, fd
		// Calls inside nested literals are attributed to the enclosing
		// function: closures a callback-only function builds run (or are
		// registered) from callback context too.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if g := calleeFunc(pass, call); g != nil && decls[g] != nil {
				callees[fn] = append(callees[fn], g)
				callerOf[g] = append(callerOf[g], fn)
			}
			return true
		})
	}
	for _, lit := range cbLits {
		lit := lit
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if g := calleeFunc(pass, call); g != nil && decls[g] != nil {
				litCallees[lit] = append(litCallees[lit], g)
			}
			return true
		})
	}

	// Closure: everything reachable from a callback registration.
	inCB := map[*types.Func]bool{}
	var visit func(fn *types.Func)
	visit = func(fn *types.Func) {
		if inCB[fn] {
			return
		}
		inCB[fn] = true
		for _, g := range callees[fn] {
			visit(g)
		}
	}
	for _, fn := range cbRoots {
		visit(fn)
	}
	for _, lit := range cbLits {
		for _, g := range litCallees[lit] {
			visit(g)
		}
	}

	// callback-only: in the closure and with no call site in a function
	// outside it.
	cbOnly := func(fn *types.Func) bool {
		if !inCB[fn] {
			return false
		}
		for _, caller := range callerOf[fn] {
			if !inCB[caller] {
				return false
			}
		}
		return true
	}

	reported := map[*ast.CallExpr]bool{}
	report := func(body ast.Node, where string) {
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || reported[call] {
				return true
			}
			if name, bad := blockingCall(pass, call); bad {
				reported[call] = true
				allow.Reportf(pass, sup, call.Pos(),
					"blocking %s called from %s: callbacks run in kernel context and must use the *Func "+
						"continuation forms (blocking here deadlocks the kernel)", name, where)
			}
			return true
		})
	}

	for fn, fd := range decls {
		if cbOnly(fn) {
			report(fd.Body, "callback-only function "+fn.Name())
		}
	}
	for _, lit := range cbLits {
		report(lit.Body, "a continuation literal")
	}
	return nil, nil
}

// calleeFunc resolves a call to the named function or method it
// statically invokes, if any.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// blockingCall reports whether call invokes a blocking simulator
// primitive: any function or method whose first parameter is *Proc (of
// a package named sim) — the blocking API's signature shape — or one of
// the parking methods on *Proc itself.
func blockingCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	if recv := sig.Recv(); recv != nil && isSimProc(recv.Type()) {
		if blockingProcMethods[fn.Name()] {
			return "Proc." + fn.Name(), true
		}
		return "", false
	}
	if sig.Params().Len() > 0 && isSimProc(sig.Params().At(0).Type()) {
		name := fn.Name()
		if recv := sig.Recv(); recv != nil {
			rn := typeName(recv.Type())
			if rn == "Kernel" {
				// Kernel methods taking a *Proc (Handoff, scheduling
				// internals) ARE the kernel context — never blocking.
				return "", false
			}
			name = rn + "." + name
		}
		return name, true
	}
	return "", false
}

func isSimProc(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	o := named.Obj()
	return o.Name() == "Proc" && o.Pkg() != nil && o.Pkg().Name() == "sim"
}

func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}
