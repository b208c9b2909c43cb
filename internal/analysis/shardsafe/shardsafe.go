// Package shardsafe enforces the hub/leaf kernel-affinity contract of
// the sharded execution mode (internal/sim/shard.go, internal/diskos):
// a partitioned simulation stays deterministic only if every
// cross-partition effect goes through Shard.Call. Three rules:
//
// Rule A — hub-drive paths must not block. Methods of sim.ShardGroup
// (Run, respond, waitHorizon, …) execute on the hub goroutine outside
// any process context; calling the blocking *sim.Proc API from them
// (Proc.Delay/Await, or any function whose first parameter is a
// *sim.Proc) would park the scheduler itself. This extends
// noblockincallback's call-graph closure to the shard runtime: the ban
// follows package-local calls out of ShardGroup methods, skipping
// function literals (proxy bodies spawned onto kernels are process
// context again) and Kernel methods (they are the drive mechanism).
//
// Rule B — leaf disklet code must reach the hub only through
// Shard.Call. Inside a function literal spawned on a leaf kernel
// (`sh.Kernel().Spawn(name, func(p *sim.Proc) { … })`), methods that
// touch hub-owned state — diskos.ActiveDisk's communication surface
// (Send, SendToFrontEnd, Recv, Release, CloseInbox), the front-end's
// inbox (FrontEnd.Recv, FrontEnd.CloseInbox) and the kernel-less
// sim coordination types (WaitGroup.Add/Done/Wait, Signal.Fire/Wait/
// Reset, Barrier.Wait) — are flagged unless wrapped in a
// `sh.Call(p, func(hp *sim.Proc) { … })` literal. Locally defined
// closures called from leaf context are followed; named package
// functions are not (they may be shared with single-kernel mode, where
// direct access is legal).
//
// The tasks package reaches the shard group through a placement seam (a
// named type `placement`), and the rules know it: a literal spawned on
// `pl.kernel(i)` is leaf context even though the kernel may be the
// hub's in a single-kernel run, a `pl.cross(p, i, func(hp *sim.Proc)
// { … })` literal is a rendezvous like a Call literal, and the seam's
// other methods (its typed stream helpers) are sanctioned rendezvous.
//
// Rule C — Call (and cross) literals run on the hub and must not touch
// leaf-owned state: ActiveDisk.ReadLocal/WriteLocal/Compute inside one
// are findings (the disk, on-drive CPU and scratch live on the leaf
// kernel; driving them from a hub proxy corrupts the partition).
//
// kernel-bound primitives (sim.Mutex, Mailbox, Resource) may
// legitimately live on either side and are judged by noblockincallback
// instead.
package shardsafe

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"howsim/internal/analysis/allow"
)

var Analyzer = &analysis.Analyzer{
	Name: "shardsafe",
	Doc: "enforce the sharded-execution hub/leaf contract: no blocking *sim.Proc API in ShardGroup " +
		"hub-drive paths, hub-owned objects (ActiveDisk comm surface, FrontEnd inbox, WaitGroup/Signal/Barrier) " +
		"reached from leaf disklets only through Shard.Call, and no leaf-local ActiveDisk ops " +
		"(ReadLocal/WriteLocal/Compute) inside Call literals",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// hubOnlyDiskos is ActiveDisk's hub-owned communication surface: these
// methods drive the interconnect loops, the front-end inbox and the
// pending-request resource, all built on the hub kernel.
var hubOnlyDiskos = map[string]bool{
	"Send": true, "SendToFrontEnd": true, "Recv": true,
	"Release": true, "CloseInbox": true,
}

// hubOnlyFrontEnd is the front-end's inbox surface: the inbox and its
// free list of chunk boxes live on the hub kernel.
var hubOnlyFrontEnd = map[string]bool{"Recv": true, "CloseInbox": true}

// hubOnlySim are methods of the kernel-less sim coordination types:
// they mutate shared wait state and wake parked processes on whatever
// kernel the waiters live, so from a leaf they must go through Call.
var hubOnlySim = map[string]map[string]bool{
	"WaitGroup": {"Add": true, "Done": true, "Wait": true},
	"Signal":    {"Fire": true, "Wait": true, "Reset": true},
	"Barrier":   {"Wait": true},
}

// leafOnlyDiskos are ActiveDisk's leaf-owned operations: the disk
// mechanics, the on-drive CPU and the scratch resource live on the leaf
// kernel.
var leafOnlyDiskos = map[string]bool{
	"ReadLocal": true, "WriteLocal": true, "Compute": true,
}

// blockingProcMethods mirror noblockincallback: *sim.Proc methods that
// park the calling goroutine.
var blockingProcMethods = map[string]bool{
	"Delay": true, "Await": true,
}

func run(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	sup := allow.NewSuppressor(pass)
	defer sup.ReportStale(pass)

	runHubDrive(pass, ins, sup)
	runLeafContext(pass, ins, sup)
	return nil, nil
}

// ---- Rule A: blocking Proc API in ShardGroup hub-drive paths ----

// runHubDrive builds the package-local call-graph closure rooted at
// ShardGroup methods and flags blocking calls, skipping function
// literals (spawned process bodies are process context).
func runHubDrive(pass *analysis.Pass, ins *inspector.Inspector, sup *allow.Suppressor) {
	if pass.Pkg.Name() != "sim" {
		return // ShardGroup is the sim package's type
	}

	decls := map[*types.Func]*ast.FuncDecl{}
	var roots []*types.Func
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil || allow.IsTestFile(pass.Fset, fd.Pos()) {
			return
		}
		fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if !ok {
			return
		}
		decls[fn] = fd
		if recvTypeName(fn) == "ShardGroup" {
			roots = append(roots, fn)
		}
	})
	if len(roots) == 0 {
		return
	}

	// Closure over package-local callees, literal bodies excluded.
	inHub := map[*types.Func]bool{}
	var visit func(fn *types.Func)
	visit = func(fn *types.Func) {
		if inHub[fn] {
			return
		}
		inHub[fn] = true
		fd := decls[fn]
		if fd == nil {
			return
		}
		inspectSkippingLits(fd.Body, func(call *ast.CallExpr) {
			g := calleeFunc(pass, call)
			if g == nil || decls[g] == nil {
				return
			}
			if recvTypeName(g) == "Kernel" || firstParamIsProc(g) {
				// Kernel methods are the drive mechanism; functions taking
				// a *Proc are process context and judged at their call
				// sites.
				return
			}
			visit(g)
		})
	}
	for _, fn := range roots {
		visit(fn)
	}

	for fn := range inHub {
		fd := decls[fn]
		if fd == nil {
			continue
		}
		where := "hub-drive path " + fn.Name()
		inspectSkippingLits(fd.Body, func(call *ast.CallExpr) {
			if name, bad := blockingCall(pass, call); bad {
				allow.Reportf(pass, sup, call.Pos(),
					"blocking %s called from %s: ShardGroup methods run on the hub goroutine "+
						"outside process context; blocking here wedges the scheduler", name, where)
			}
		})
	}
}

// inspectSkippingLits visits every CallExpr under n, skipping function
// literal subtrees.
func inspectSkippingLits(n ast.Node, f func(*ast.CallExpr)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			f(call)
		}
		return true
	})
}

// ---- Rules B and C: leaf spawn bodies and Call literals ----

// runLeafContext finds leaf-spawned literals and checks their bodies in
// leaf context, descending into Call literals in hub context.
func runLeafContext(pass *analysis.Pass, ins *inspector.Inspector, sup *allow.Suppressor) {
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil || allow.IsTestFile(pass.Fset, fd.Pos()) {
			return
		}
		// Local closures (`absorb := func(p *sim.Proc, …) { … }`) are
		// followed when called from leaf context.
		closures := localClosures(pass, fd.Body)
		leafKernels := leafKernelVars(pass, fd.Body)

		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if lit := leafSpawnLit(pass, call, leafKernels); lit != nil {
				c := &leafChecker{pass: pass, sup: sup, closures: closures, visited: map[*ast.FuncLit]bool{}}
				c.checkLeafBody(lit)
				return false // the literal is fully handled
			}
			return true
		})
	})
}

// localClosures maps local variables to the function literals assigned
// to them within this function.
func localClosures(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]*ast.FuncLit {
	out := map[types.Object]*ast.FuncLit{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			lit, ok := as.Rhs[i].(*ast.FuncLit)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj != nil {
				out[obj] = lit
			}
		}
		return true
	})
	return out
}

// leafKernelVars collects local variables assigned from a leaf-kernel
// expression: `lk := sh.Kernel()` or `lk := pl.kernel(i)`.
func leafKernelVars(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if !isLeafKernelCall(pass, as.Rhs[i]) {
				continue
			}
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// isLeafKernelCall reports whether e is `X.Kernel()` with X a
// *sim.Shard, or `X.kernel(i)` with X a placement.
func isLeafKernelCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Kernel":
		return isSimType(pass.TypesInfo.TypeOf(sel.X), "Shard")
	case "kernel":
		return isPlacement(pass.TypesInfo.TypeOf(sel.X))
	}
	return false
}

// isPlacement reports whether t is the tasks placement seam: a named
// type `placement`, or a pointer to one.
func isPlacement(t types.Type) bool {
	if t == nil {
		return false
	}
	name, _ := recvTypeAndPkg(t)
	return name == "placement"
}

// leafSpawnLit returns the function literal passed to a Spawn on a leaf
// kernel (`sh.Kernel().Spawn(…, lit)`, `pl.kernel(i).Spawn(…, lit)`, or
// `lk.Spawn(…, lit)` with lk assigned from either), if call is one.
func leafSpawnLit(pass *analysis.Pass, call *ast.CallExpr, leafKernels map[types.Object]bool) *ast.FuncLit {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Spawn" {
		return nil
	}
	leaf := false
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.CallExpr:
		leaf = isLeafKernelCall(pass, x)
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[x]; obj != nil {
			leaf = leafKernels[obj]
		}
	}
	if !leaf {
		return nil
	}
	for _, a := range call.Args {
		if lit, ok := a.(*ast.FuncLit); ok {
			return lit
		}
	}
	return nil
}

type leafChecker struct {
	pass     *analysis.Pass
	sup      *allow.Suppressor
	closures map[types.Object]*ast.FuncLit
	visited  map[*ast.FuncLit]bool
}

// checkLeafBody walks a leaf-context literal: hub-owned methods are
// findings unless inside a Shard.Call literal, which is checked in hub
// context instead.
func (c *leafChecker) checkLeafBody(lit *ast.FuncLit) {
	if c.visited[lit] {
		return
	}
	c.visited[lit] = true
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// sh.Call(p, func(hp *sim.Proc) { … }) or pl.cross(p, i, …): the
		// literal runs on the hub — switch rules.
		if hubLit, via := shardCallLit(c.pass, call); hubLit != nil {
			c.checkHubLit(hubLit, via)
			return false
		}
		// Follow locally defined closures called from leaf context.
		if id, ok := call.Fun.(*ast.Ident); ok {
			if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
				if inner, ok := c.closures[obj]; ok {
					c.checkLeafBody(inner)
				}
			}
		}
		if name, bad := c.hubOnlyCall(call); bad {
			allow.Reportf(c.pass, c.sup, call.Pos(),
				"%s touches hub-owned state from a leaf disklet; wrap it in a "+
					"Shard.Call(p, func(hp *sim.Proc) { … }) or placement.cross rendezvous", name)
		}
		return true
	})
}

// checkHubLit walks a Call or cross literal (named by via) in hub
// context: leaf-owned ActiveDisk operations are findings.
func (c *leafChecker) checkHubLit(lit *ast.FuncLit, via string) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && inner != lit {
			return false // nested literals: context unknown, stop
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, bad := c.leafOnlyCall(call); bad {
			allow.Reportf(c.pass, c.sup, call.Pos(),
				"%s runs a leaf-owned operation from a %s literal, which executes on "+
					"the hub; only the leaf's own processes may drive its disk, CPU and scratch", name, via)
		}
		return true
	})
}

// shardCallLit returns the literal passed to `X.Call(p, lit)` with X a
// *sim.Shard, or to `X.cross(p, i, lit)` with X a placement, and names
// the rendezvous.
func shardCallLit(pass *analysis.Pass, call *ast.CallExpr) (*ast.FuncLit, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	var via string
	switch x := pass.TypesInfo.TypeOf(sel.X); {
	case sel.Sel.Name == "Call" && isSimType(x, "Shard"):
		via = "Shard.Call"
	case sel.Sel.Name == "cross" && isPlacement(x):
		via = "placement.cross"
	default:
		return nil, ""
	}
	for _, a := range call.Args {
		if lit, ok := a.(*ast.FuncLit); ok {
			return lit, via
		}
	}
	return nil, ""
}

// hubOnlyCall classifies a call in leaf context against the hub-owned
// method sets.
func (c *leafChecker) hubOnlyCall(call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(c.pass, call)
	if fn == nil {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	recvName, pkgName := recvTypeAndPkg(sig.Recv().Type())
	switch {
	case pkgName == "diskos" && recvName == "ActiveDisk" && hubOnlyDiskos[fn.Name()]:
		return "ActiveDisk." + fn.Name(), true
	case pkgName == "diskos" && recvName == "FrontEnd" && hubOnlyFrontEnd[fn.Name()]:
		return "FrontEnd." + fn.Name(), true
	case pkgName == "sim" && hubOnlySim[recvName] != nil && hubOnlySim[recvName][fn.Name()]:
		return recvName + "." + fn.Name(), true
	}
	return "", false
}

// leafOnlyCall classifies a call in hub (Call-literal) context against
// the leaf-owned method set.
func (c *leafChecker) leafOnlyCall(call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(c.pass, call)
	if fn == nil {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	recvName, pkgName := recvTypeAndPkg(sig.Recv().Type())
	if pkgName == "diskos" && recvName == "ActiveDisk" && leafOnlyDiskos[fn.Name()] {
		return "ActiveDisk." + fn.Name(), true
	}
	return "", false
}

// ---- shared type plumbing ----

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

func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	name, _ := recvTypeAndPkg(sig.Recv().Type())
	return name
}

func recvTypeAndPkg(t types.Type) (name, pkg string) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	o := named.Obj()
	if o.Pkg() != nil {
		pkg = o.Pkg().Name()
	}
	return o.Name(), pkg
}

func firstParamIsProc(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	return sig.Params().Len() > 0 && isSimType(sig.Params().At(0).Type(), "Proc")
}

// isSimType reports whether t is *T or T for named type T declared in a
// package named sim.
func isSimType(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	n, pkg := recvTypeAndPkg(t)
	return n == name && pkg == "sim"
}

// blockingCall mirrors noblockincallback's shape test: Proc.Delay/Await
// or any non-Kernel function/method whose first parameter is *sim.Proc.
func blockingCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	if recv := sig.Recv(); recv != nil && isSimType(recv.Type(), "Proc") {
		if blockingProcMethods[fn.Name()] {
			return "Proc." + fn.Name(), true
		}
		return "", false
	}
	if firstParamIsProc(fn) {
		name := fn.Name()
		if recv := sig.Recv(); recv != nil {
			rn, _ := recvTypeAndPkg(recv.Type())
			if rn == "Kernel" {
				return "", false
			}
			name = rn + "." + name
		}
		return name, true
	}
	return "", false
}
