package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockOrder enforces the locking discipline of the concurrent packages and
// the repository-wide panic convention:
//
//   - Lock hierarchy: each concurrent package's mutexes form a strict order —
//     stemcache's Cache.closeMu before Cache.loadMu before Cache.tenantMu
//     before shard.mu before Cache.obsMu, the network server's Server.mu
//     before conn.mu before Server.leaseMu, the cluster tier's Ring.mu
//     before Node.mu, and the membership tier's Manager.mu before Agent.mu
//     (see lockRankFor). Acquiring against that
//     order (or acquiring the same lock twice) deadlocks, but only under a
//     schedule the race detector may never see; the analyzer rejects it
//     structurally.
//   - No re-entrant acquisition through calls: a function holding a mutex
//     must not call (transitively) into a function that acquires the same
//     mutex. sync.Mutex is not re-entrant, so this self-deadlocks at runtime.
//   - No defer-unlock inside a loop: the unlock would not run until function
//     return, so the second iteration self-deadlocks (or the critical
//     section silently widens to the whole call).
//   - Every panic must be documented: panics are reserved for internal
//     invariant violations, so each site (outside main packages and Must*
//     helpers) carries an `// invariant:` comment on its own or the
//     preceding line. Misuse of public APIs must return errors instead.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "enforce the per-package lock hierarchies (stemcache's closeMu→loadMu→tenantMu→shard.mu→obsMu, server's Server.mu→conn.mu→leaseMu, cluster's Ring.mu→Node.mu, membership's Manager.mu→Agent.mu), no re-entrant or loop-deferred locking, and `// invariant:` documentation on every panic",
	Run:  runLockOrder,
}

// lockKey identifies a mutex class by its owning named type and field name;
// package-level mutexes use an empty type and the variable name.
type lockKey struct {
	typ   string
	field string
}

func (k lockKey) String() string {
	if k.typ == "" {
		return k.field
	}
	return k.typ + "." + k.field
}

// stemcacheLockRank is the sanctioned acquisition order inside
// internal/stemcache: a lock may only be acquired while every held lock has
// a strictly smaller rank.
var stemcacheLockRank = map[lockKey]int{
	{typ: "Cache", field: "closeMu"}: 0,
	{typ: "Cache", field: "loadMu"}:  1,
	// tenantMu guards the arbitration epoch baselines. It ranks above the
	// shard locks so an arbitration epoch *may* inspect shards while holding
	// it, and below nothing a shard path ever needs — a shard operation must
	// never wait on an epoch.
	{typ: "Cache", field: "tenantMu"}: 2,
	{typ: "shard", field: "mu"}:       3,
	{typ: "Cache", field: "obsMu"}:    4,
}

// isStemcachePackage matches the real package and bound fixtures.
func isStemcachePackage(path string) bool {
	return path == "internal/stemcache" || strings.HasSuffix(path, "/internal/stemcache")
}

// serverLockRank is the sanctioned acquisition order inside internal/server:
// Server.mu (the connection registry and lifecycle state) before conn.mu (a
// single connection's drain/close flags) before Server.leaseMu (the
// read-through lease table, the innermost class — never held across a cache
// call or anything blocking). None may be held while calling into the
// cache, whose own hierarchy sits below all three.
var serverLockRank = map[lockKey]int{
	{typ: "Server", field: "mu"}:      0,
	{typ: "conn", field: "mu"}:        1,
	{typ: "Server", field: "leaseMu"}: 2,
}

// isServerPackage matches the real package and bound fixtures.
func isServerPackage(path string) bool {
	return path == "internal/server" || strings.HasSuffix(path, "/internal/server")
}

// clusterLockRank is the sanctioned acquisition order inside
// internal/cluster: Ring.mu (ownership table) before Node.mu (a node's
// lifecycle state, the innermost lock). The package observes nothing: the
// events of an ownership change belong to the membership manager that
// made it.
var clusterLockRank = map[lockKey]int{
	{typ: "Ring", field: "mu"}: 0,
	{typ: "Node", field: "mu"}: 1,
}

// isClusterPackage matches the real package and bound fixtures.
func isClusterPackage(path string) bool {
	return path == "internal/cluster" || strings.HasSuffix(path, "/internal/cluster")
}

// membershipLockRank is the sanctioned acquisition order inside
// internal/membership: Manager.mu (the authoritative view) before Agent.mu
// (a node's pushed view and peer table). Neither may be held across a
// network call; the cluster tier's own hierarchy sits below both.
var membershipLockRank = map[lockKey]int{
	{typ: "Manager", field: "mu"}: 0,
	{typ: "Agent", field: "mu"}:   1,
}

// isMembershipPackage matches the real package and bound fixtures.
func isMembershipPackage(path string) bool {
	return path == "internal/membership" || strings.HasSuffix(path, "/internal/membership")
}

// lockRankFor selects the package's sanctioned lock hierarchy; a nil map
// means the package has no ranked locks and only the universal checks
// (re-entrancy, defer-in-loop, panic documentation) apply. The order string
// names the hierarchy in findings.
func lockRankFor(path string) (map[lockKey]int, string) {
	switch {
	case isStemcachePackage(path):
		return stemcacheLockRank, "closeMu → loadMu → tenantMu → shard.mu → obsMu"
	case isServerPackage(path):
		return serverLockRank, "Server.mu → conn.mu → leaseMu"
	case isClusterPackage(path):
		return clusterLockRank, "Ring.mu → Node.mu"
	case isMembershipPackage(path):
		return membershipLockRank, "Manager.mu → Agent.mu"
	}
	return nil, ""
}

// lockEvent is one entry of a function's linearized lock trace.
type lockEvent struct {
	kind   int // 0 lock, 1 unlock, 2 deferred unlock, 3 call
	key    lockKey
	callee *types.Func
	pos    token.Pos
}

const (
	evLock = iota
	evUnlock
	evDeferUnlock
	evCall
)

type funcInfo struct {
	decl   *ast.FuncDecl
	obj    *types.Func
	events []lockEvent
	// acquires is the set of lock keys this function (transitively) takes.
	acquires map[lockKey]bool
}

func runLockOrder(pass *Pass) {
	pkg := pass.Pkg
	rank, order := lockRankFor(pkg.Path)
	checkLocks := rank != nil

	var funcs []*funcInfo
	byObj := map[*types.Func]*funcInfo{}

	for _, f := range pkg.Files {
		invariantLines := commentLines(pass.Fset, f, "invariant:")
		parents := parentMap(f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPanics(pass, f, fd, invariantLines)
			checkDeferInLoop(pass, fd, parents)
			if !checkLocks {
				continue
			}
			fi := &funcInfo{decl: fd, acquires: map[lockKey]bool{}}
			if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				fi.obj = obj
				byObj[obj] = fi
			}
			collectLockEvents(pkg, fd.Body, fi)
			funcs = append(funcs, fi)
		}
	}
	if !checkLocks {
		return
	}

	// Direct acquisitions, then transitive closure over same-package calls.
	for _, fi := range funcs {
		for _, ev := range fi.events {
			if ev.kind == evLock {
				fi.acquires[ev.key] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range funcs {
			for _, ev := range fi.events {
				if ev.kind != evCall {
					continue
				}
				callee := byObj[ev.callee]
				if callee == nil {
					continue
				}
				for k := range callee.acquires {
					if !fi.acquires[k] {
						fi.acquires[k] = true
						changed = true
					}
				}
			}
		}
	}

	for _, fi := range funcs {
		checkLockTrace(pass, fi, byObj, rank, order)
	}
}

// checkLockTrace replays a function's linearized lock events against the
// package's hierarchy: re-entrant acquisition (directly or through a call)
// and order-violating acquisition are reported.
func checkLockTrace(pass *Pass, fi *funcInfo, byObj map[*types.Func]*funcInfo, rank map[lockKey]int, order string) {
	held := map[lockKey]int{}
	maxHeldRank := func() (int, lockKey, bool) {
		best, bestKey, ok := -1, lockKey{}, false
		for k, n := range held {
			if n <= 0 {
				continue
			}
			if r, ranked := rank[k]; ranked && r > best {
				best, bestKey, ok = r, k, true
			}
		}
		return best, bestKey, ok
	}
	for _, ev := range fi.events {
		switch ev.kind {
		case evLock:
			if held[ev.key] > 0 {
				pass.Reportf(ev.pos, "re-entrant acquisition of %s: sync mutexes are not recursive, this self-deadlocks", ev.key)
			} else if r, ranked := rank[ev.key]; ranked {
				if maxRank, heldKey, any := maxHeldRank(); any && maxRank >= r {
					pass.Reportf(ev.pos, "acquiring %s while holding %s violates the lock order (%s)", ev.key, heldKey, order)
				}
			}
			held[ev.key]++
		case evUnlock:
			if held[ev.key] > 0 {
				held[ev.key]--
			}
		case evDeferUnlock:
			// Released only at return; the key stays held for the trace.
		case evCall:
			callee := byObj[ev.callee]
			if callee == nil {
				continue
			}
			for k := range callee.acquires {
				if held[k] > 0 {
					pass.Reportf(ev.pos, "call to %s may re-acquire %s, which is held here", ev.callee.Name(), k)
				} else if r, ranked := rank[k]; ranked {
					if maxRank, heldKey, any := maxHeldRank(); any && maxRank > r {
						pass.Reportf(ev.pos, "call to %s acquires %s against the lock order while %s is held", ev.callee.Name(), k, heldKey)
					}
				}
			}
		}
	}
}

// collectLockEvents linearizes body's lock/unlock/call events in source
// order, skipping nested function literals (they run on their own schedule).
func collectLockEvents(pkg *Package, body *ast.BlockStmt, fi *funcInfo) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			if key, op, ok := mutexOp(pkg.Info, n.Call); ok && isUnlockOp(op) {
				fi.events = append(fi.events, lockEvent{kind: evDeferUnlock, key: key, pos: n.Pos()})
				return false
			}
			return true
		case *ast.CallExpr:
			if key, op, ok := mutexOp(pkg.Info, n); ok {
				switch {
				case isLockOp(op):
					fi.events = append(fi.events, lockEvent{kind: evLock, key: key, pos: n.Pos()})
				case isUnlockOp(op):
					fi.events = append(fi.events, lockEvent{kind: evUnlock, key: key, pos: n.Pos()})
				}
				return true
			}
			if callee := calleeFunc(pkg, n); callee != nil {
				fi.events = append(fi.events, lockEvent{kind: evCall, callee: callee, pos: n.Pos()})
			}
		}
		return true
	})
}

func isLockOp(op string) bool {
	return op == "Lock" || op == "RLock"
}

func isUnlockOp(op string) bool {
	return op == "Unlock" || op == "RUnlock"
}

// mutexOp recognizes method calls on sync.Mutex/RWMutex values and returns
// the lock's identity and the method name. Local (function-scoped) mutexes
// have no stable identity across functions and are ignored.
func mutexOp(info *types.Info, call *ast.CallExpr) (lockKey, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockKey{}, "", false
	}
	op := sel.Sel.Name
	if !isLockOp(op) && !isUnlockOp(op) && op != "TryLock" && op != "TryRLock" {
		return lockKey{}, "", false
	}
	if mutexKind(typeOf(info, sel.X)) == "" {
		return lockKey{}, "", false
	}
	switch x := sel.X.(type) {
	case *ast.SelectorExpr:
		// someExpr.field.Lock(): identity is (owner type, field).
		if typ := exprTypeName(info, x.X); typ != "" {
			return lockKey{typ: typ, field: x.Sel.Name}, op, true
		}
	case *ast.Ident:
		obj := info.ObjectOf(x)
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			// Package-level mutex variable.
			return lockKey{field: v.Name()}, op, true
		}
	}
	return lockKey{}, "", false
}

// typeOf is Info.TypeOf without panicking on missing entries.
func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return types.Typ[types.Invalid]
}

// calleeFunc resolves a call to a function or method of the same package.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn := funcFor(pkg.Info, id)
	if fn == nil || fn.Pkg() != pkg.Types {
		return nil
	}
	return fn.Origin()
}

// checkDeferInLoop flags `defer x.Unlock()` lexically inside a for/range
// statement: the unlock runs at function return, not loop-iteration end, so
// iteration two deadlocks on a plain mutex.
func checkDeferInLoop(pass *Pass, fd *ast.FuncDecl, parents map[ast.Node]ast.Node) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		def, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		sel, ok := def.Call.Fun.(*ast.SelectorExpr)
		if !ok || !isUnlockOp(sel.Sel.Name) {
			return true
		}
		if mutexKind(typeOf(pass.Pkg.Info, sel.X)) == "" {
			return true
		}
		for p := parents[ast.Node(def)]; p != nil; p = parents[p] {
			switch p.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				pass.Reportf(def.Pos(), "defer %s.%s inside a loop releases only at function return; unlock explicitly per iteration",
					exprText(sel.X), sel.Sel.Name)
				return true
			case *ast.FuncDecl, *ast.FuncLit:
				return true
			}
		}
		return true
	})
}

// exprText renders a short lock expression for messages (best effort).
func exprText(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprText(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprText(x.X) + "[...]"
	case *ast.ParenExpr:
		return exprText(x.X)
	case *ast.StarExpr:
		return "*" + exprText(x.X)
	default:
		return "mutex"
	}
}

// checkPanics enforces the panic convention: outside main packages and Must*
// helpers, every panic carries an `// invariant:` comment on its own or the
// immediately preceding line.
func checkPanics(pass *Pass, f *ast.File, fd *ast.FuncDecl, invariantLines map[int]bool) {
	if f.Name.Name == "main" || strings.HasPrefix(fd.Name.Name, "Must") {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "panic" {
			return true
		}
		if _, isBuiltin := pass.Pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
			return true
		}
		line := pass.Fset.Position(call.Pos()).Line
		if invariantLines[line] || invariantLines[line-1] {
			return true
		}
		pass.Reportf(call.Pos(),
			"undocumented panic: panics are reserved for internal invariant violations — document with `// invariant: ...` on this or the preceding line, or return an error")
		return true
	})
}
