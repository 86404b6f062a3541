package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Hotpath enforces the zero-allocation discipline of the serving path.
// STEM's premise is a capacity mechanism cheap enough to sit on every
// access, so the per-operation loops — wire encode/decode, the server's
// read→handle→write loop, the client transport, the cache read path — must
// not allocate in steady state. The garbage they would produce is paid on
// every request, and a single `fmt.Errorf` or escaping literal regresses
// tail latency in a way unit tests never see.
//
// Each hot package declares a root table (hotTableFor): the functions where
// its steady-state loop enters. Every function call-reachable from a root
// within the same package is "hot" and is flagged for allocation-causing
// constructs:
//
//   - composite literals that escape (&T{...}) and slice/map literals
//   - make, new, and append onto a freshly allocated slice
//   - string ↔ []byte conversions (each copies)
//   - fmt.* and errors.New/errors.Join (format state + boxing + the error)
//   - passing a non-pointer value to an interface parameter (boxing)
//   - closures and go statements (closure + goroutine allocation)
//   - defer inside a loop (a defer record per iteration)
//   - ranging over a map (iterator state, randomized order)
//
// Failure paths are exempt automatically: branches guarded by `err != nil`
// (and the else of `err == nil`), branches that end by returning a non-nil
// error, and allocations inside `return ..., <error>` statements are cold —
// error construction is allowed to allocate because by then the request has
// already left the fast path. Slow operations that share code with the hot
// loop by design (stats snapshots, lease elections, sampled tracing) are
// stop-listed per package in the table's cold set. Anything else needs a
// `//lint:allow(hotpath) <why>` with a reason, and the claim is
// cross-checked dynamically by the AllocsPerRun gates,
// `go test -run TestHotPathZeroAllocs ./internal/wire ./internal/stemcache`
// (a non-race CI step).
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "flag allocation-causing constructs (escaping literals, make/new, string↔[]byte conversions, fmt/errors boxing, closures, go statements, defer-in-loop, map iteration) in functions call-reachable from the per-package hot-root tables",
	Run:  runHotpath,
}

// hotTable is one package's entry points and stop-list. Function names are
// "Func" for package functions and "Type.Method" for methods.
type hotTable struct {
	// roots are where the steady-state loop enters the package; hotness
	// propagates from them through same-package calls.
	roots []string
	// cold stops propagation: slow operations reachable from a root by
	// design (stats, lease election, error rendering) are neither flagged
	// nor walked through.
	cold map[string]bool
}

// wireHotTable covers the frame codec: the append-encode and reusing-decode
// entry points both the server and client sit on. The sampled demand
// prefix (cursor.demand), the sampled trace extensions, and the error
// constructor are cold by design.
var wireHotTable = &hotTable{
	roots: []string{
		"AppendRequest", "AppendResponse",
		"DecodeRequestInto", "DecodeResponseInto",
		"ReadRequestInto",
	},
	cold: map[string]bool{
		"cursor.demand":      true, // demand rides sampled responses and heartbeats, not every op
		"cursor.traceReq":    true, // sampled tracing extension, not per-op
		"cursor.traceResp":   true,
		"cursor.members":     true, // membership pushes ride lifecycle events, not requests
		"cursor.replicaSets": true,
		"appendMembership":   true,
		"frameErrf":          true, // error constructor: runs only on protocol violations
	},
}

// serverHotTable covers the per-connection serve loop and the request
// dispatcher. The lease/stats/teardown paths it dispatches into are cold:
// they run on misses, operator requests, or connection end, not per hit.
var serverHotTable = &hotTable{
	roots: []string{"conn.serve", "Server.handle"},
	cold: map[string]bool{
		"Server.handleLoad":       true, // miss path: lease election allocates by design
		"Server.statsJSON":        true, // operator stats snapshot
		"Server.demand":           true, // FlagDemand requests only: sampled, or a heartbeat
		"Server.handleMembership": true, // membership pushes ride lifecycle events
		"Server.repairGet":        true, // miss path of repair-marked slots only
		"conn.readFailed":         true, // connection error rendering
		"conn.finish":             true, // connection teardown
	},
}

// clientHotTable covers the transport core every operation funnels through.
// The public helpers above it build one small Request per call, which the
// caller's operands dominate; the table deliberately starts at do.
var clientHotTable = &hotTable{
	roots: []string{"Client.do"},
	cold:  map[string]bool{},
}

// stemcacheHotTable covers the cache read path: Get and everything the STEM
// mechanism does per access (shard probe, shadow consult, monitor update,
// the shard-local tally). The read side of the counters — summing the shards
// into Stats, the tenant view and the metrics registry — runs per STATS
// frame, scrape or arbitration epoch, never per request, and allocates its
// result slices by design.
var stemcacheHotTable = &hotTable{
	roots: []string{"Cache.Get"},
	cold: map[string]bool{
		"Cache.Stats":            true, // STATS frame / metrics scrape
		"Cache.registerMetrics":  true, // construction; its closure runs per scrape
		"Cache.TenantStats":      true, // STATS frame / arbitration epoch
		"Cache.ArbitrateTenants": true,
	},
}

// coreHotTable covers the STEM engine. Hotness does not cross packages, so
// stemcache's Cache.Get closure stops at the engine's door: the engine's
// per-access entry points are rooted here, next to the simulator's Access
// that calls the same ones.
var coreHotTable = &hotTable{
	roots: []string{
		"Cache.Access",
		"Engine.Tick", "Engine.GiverOf", "Engine.Hit", "Engine.Touch", "Engine.Miss",
		"Engine.Victim", "Engine.Evict", "Engine.Fill", "Engine.Remove",
	},
	cold: map[string]bool{},
}

// hotfixHotTable scopes the analyzer's test fixture. Cache.Put and
// oldStats name no function there, so each is reported once.
var hotfixHotTable = &hotTable{
	roots: []string{"Serve", "Cache.Get", "Cache.Put"},
	cold:  map[string]bool{"slowStats": true, "oldStats": true},
}

// hotTableFor selects the package's hot-root table; nil means the package
// has no declared hot path and the analyzer is silent. Suffix matching puts
// bound fixtures in scope the same way the lockorder rank tables do.
func hotTableFor(path string) *hotTable {
	switch {
	case path == "internal/wire" || strings.HasSuffix(path, "/internal/wire"):
		return wireHotTable
	case path == "internal/server" || strings.HasSuffix(path, "/internal/server"):
		return serverHotTable
	case path == "internal/client" || strings.HasSuffix(path, "/internal/client"):
		return clientHotTable
	case path == "internal/stemcache" || strings.HasSuffix(path, "/internal/stemcache"):
		return stemcacheHotTable
	case path == "internal/core" || strings.HasSuffix(path, "/internal/core"):
		return coreHotTable
	case path == "internal/hotfix" || strings.HasSuffix(path, "/internal/hotfix"):
		return hotfixHotTable
	}
	return nil
}

// hotFinding is one allocation site, withheld until reachability proves the
// containing function hot.
type hotFinding struct {
	pos token.Pos
	msg string
}

// hotFuncInfo is one function's call edges and candidate findings.
type hotFuncInfo struct {
	key      string
	obj      *types.Func
	callees  []*types.Func
	findings []hotFinding
}

func runHotpath(pass *Pass) {
	tbl := hotTableFor(pass.Pkg.Path)
	if tbl == nil {
		return
	}
	pkg := pass.Pkg

	var funcs []*hotFuncInfo
	byObj := map[*types.Func]*hotFuncInfo{}
	byKey := map[string]*hotFuncInfo{}
	declared := map[string]bool{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fi := &hotFuncInfo{key: funcKey(pkg.Info, fd)}
			declared[fi.key] = true
			if tbl.cold[fi.key] {
				continue
			}
			if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				fi.obj = obj
				byObj[obj] = fi
			}
			byKey[fi.key] = fi
			scanHotFunc(pkg, fd, fi)
			funcs = append(funcs, fi)
		}
	}

	reportStaleEntries(pass, tbl, declared)

	// Hotness = call-transitive reachability from the roots, within the
	// package. Cold-listed functions were dropped above, so propagation
	// stops at them for free.
	hot := map[*hotFuncInfo]bool{}
	var queue []*hotFuncInfo
	for _, root := range tbl.roots {
		if fi := byKey[root]; fi != nil && !hot[fi] {
			hot[fi] = true
			queue = append(queue, fi)
		}
	}
	for len(queue) > 0 {
		fi := queue[0]
		queue = queue[1:]
		for _, callee := range fi.callees {
			if ci := byObj[callee]; ci != nil && !hot[ci] {
				hot[ci] = true
				queue = append(queue, ci)
			}
		}
	}

	for _, fi := range funcs {
		if !hot[fi] {
			continue
		}
		for _, f := range fi.findings {
			pass.Reportf(f.pos, "%s (hot path: reachable from %s)", f.msg, strings.Join(tbl.roots, ", "))
		}
	}
}

// reportStaleEntries reports, once each, the table's roots and cold names
// that match no function of the package: a renamed or deleted function would
// otherwise drop out of the table's reach without a word. The finding sits
// on the package clause of the package's first file. A package that
// declares none of the names is a stand-in bound to the table's path suffix
// (another analyzer's fixture), not the package the table describes, and is
// left alone.
func reportStaleEntries(pass *Pass, tbl *hotTable, declared map[string]bool) {
	var roots, cold []string
	for _, root := range tbl.roots {
		if !declared[root] {
			roots = append(roots, root)
		}
	}
	for name := range tbl.cold {
		if !declared[name] {
			cold = append(cold, name)
		}
	}
	if len(roots)+len(cold) == len(tbl.roots)+len(tbl.cold) {
		return
	}
	sort.Strings(cold)
	at := pass.Pkg.Files[0].Package
	for _, root := range roots {
		pass.Reportf(at, "hot-table root %s names no function in this package", root)
	}
	for _, name := range cold {
		pass.Reportf(at, "hot-table cold entry %s names no function in this package", name)
	}
}

// funcKey names a declaration the way hot tables do: "Func" or
// "Type.Method" (receiver type through pointers).
func funcKey(info *types.Info, fd *ast.FuncDecl) string {
	name := fd.Name.Name
	obj, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return name
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return name
	}
	if _, recv := recvNamed(sig.Recv().Type()); recv != "" {
		return recv + "." + name
	}
	return name
}

// scanHotFunc collects fd's same-package call edges and allocation findings.
// Cold branches (error handling) and closure bodies are excluded from both:
// a call made only on the failure path does not make its callee hot.
func scanHotFunc(pkg *Package, fd *ast.FuncDecl, fi *hotFuncInfo) {
	parents := parentMap(fd)
	cold := coldBlocks(pkg.Info, fd.Body)

	// exempt reports whether n sits on a cold (failure) path or inside a
	// closure; the closure literal itself is still flagged at its own node.
	exempt := func(n ast.Node) bool {
		for p := parents[n]; p != nil; p = parents[p] {
			switch pn := p.(type) {
			case *ast.FuncLit:
				return true
			case *ast.BlockStmt:
				if cold[pn] {
					return true
				}
			case *ast.ReturnStmt:
				if returnsError(pkg.Info, pn) {
					return true
				}
			case *ast.AssignStmt:
				// `err = fmt.Errorf(...)` and friends: constructing a value
				// for an error-typed lvalue is failure-path work.
				if assignsError(pkg.Info, pn) {
					return true
				}
			case *ast.FuncDecl:
				return false
			}
		}
		return false
	}

	reported := map[ast.Node]bool{}
	report := func(n ast.Node, msg string) {
		if !exempt(n) && !reported[n] {
			reported[n] = true
			fi.findings = append(fi.findings, hotFinding{pos: n.Pos(), msg: msg})
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			report(n, "go statement launches a goroutine per call")
			return false
		case *ast.FuncLit:
			report(n, "closure allocates its capture environment")
			return false
		case *ast.DeferStmt:
			if deferInLoop(parents, n) {
				report(n, "defer inside a loop allocates a defer record per iteration")
			}
		case *ast.RangeStmt:
			if _, ok := typeOf(pkg.Info, n.X).Underlying().(*types.Map); ok {
				report(n, "map iteration allocates iterator state and randomizes order")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := n.X.(*ast.CompositeLit); ok {
					report(n, "composite literal escapes to the heap")
					reported[ast.Node(lit)] = true
				}
			}
		case *ast.CompositeLit:
			switch typeOf(pkg.Info, n).Underlying().(type) {
			case *types.Slice:
				report(n, "slice literal allocates its backing array")
			case *types.Map:
				report(n, "map literal allocates")
			}
		case *ast.CallExpr:
			scanHotCall(pkg, n, fi, report, exempt)
		}
		return true
	})
}

// scanHotCall classifies one call: allocating builtin, copying conversion,
// known-allocating stdlib call, interface boxing of arguments, or a
// same-package edge for the reachability closure.
func scanHotCall(pkg *Package, call *ast.CallExpr, fi *hotFuncInfo, report func(ast.Node, string), exempt func(ast.Node) bool) {
	info := pkg.Info

	// Conversions: T(x) where the callee position is a type.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst, src := typeOf(info, call), typeOf(info, call.Args[0])
		switch {
		case isStringType(dst) && isByteOrRuneSlice(src):
			report(call, "[]byte→string conversion copies the bytes")
		case isByteOrRuneSlice(dst) && isStringType(src):
			report(call, "string→[]byte conversion copies the bytes")
		}
		return
	}

	// Allocating builtins.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				report(call, "make allocates")
			case "new":
				report(call, "new allocates")
			case "append":
				if len(call.Args) > 0 && freshSlice(info, call.Args[0]) {
					report(call, "append onto a fresh slice allocates; append into a reused buffer instead")
				}
			}
			return
		}
	}

	// Known-allocating stdlib calls: every fmt entry point builds format
	// state and boxes operands; errors.New/Join allocate the error.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if callee := funcFor(info, sel.Sel); callee != nil {
			switch pkgPathOf(callee) {
			case "fmt":
				report(call, "fmt."+callee.Name()+" allocates and boxes its operands")
				return
			case "errors":
				if callee.Name() == "New" || callee.Name() == "Join" {
					report(call, "errors."+callee.Name()+" allocates")
					return
				}
			}
		}
	}

	// Interface boxing: a non-pointer concrete argument passed to an
	// interface parameter is copied to the heap at the call site.
	if sig, ok := typeOf(info, call.Fun).(*types.Signature); ok {
		for i, arg := range call.Args {
			param := paramType(sig, i)
			if param == nil || !types.IsInterface(param) {
				continue
			}
			at := typeOf(info, arg)
			if tv, ok := info.Types[arg]; ok && tv.IsNil() {
				continue
			}
			if types.IsInterface(at) || pointerShaped(at) {
				continue
			}
			report(arg, "passing "+at.String()+" to an interface parameter boxes it on the heap")
		}
	}

	// Same-package call edge for the reachability closure; edges from cold
	// branches or closures do not spread hotness.
	if !exempt(call) {
		if callee := calleeFunc(pkg, call); callee != nil {
			fi.callees = append(fi.callees, callee)
		}
	}
}

// coldBlocks marks failure-path blocks: the body of `if err != nil`, the
// else of `if err == nil`, and any if-body whose last statement returns a
// non-nil error.
func coldBlocks(info *types.Info, body *ast.BlockStmt) map[*ast.BlockStmt]bool {
	cold := map[*ast.BlockStmt]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		switch errNilCheck(info, ifs.Cond) {
		case token.NEQ:
			cold[ifs.Body] = true
		case token.EQL:
			if els, ok := ifs.Else.(*ast.BlockStmt); ok {
				cold[els] = true
			}
		}
		if n := len(ifs.Body.List); n > 0 {
			if ret, ok := ifs.Body.List[n-1].(*ast.ReturnStmt); ok && returnsError(info, ret) {
				cold[ifs.Body] = true
			}
		}
		return true
	})
	return cold
}

// errNilCheck recognizes `e != nil` / `e == nil` with e error-typed and
// returns the operator, or ILLEGAL.
func errNilCheck(info *types.Info, cond ast.Expr) token.Token {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || (be.Op != token.NEQ && be.Op != token.EQL) {
		return token.ILLEGAL
	}
	for _, pair := range [2][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
		errSide, nilSide := pair[0], pair[1]
		if tv, ok := info.Types[nilSide]; !ok || !tv.IsNil() {
			continue
		}
		if isErrorType(typeOf(info, errSide)) {
			return be.Op
		}
	}
	return token.ILLEGAL
}

// returnsError reports whether ret's final result is a non-nil error
// expression — the signature of a failure-path return.
func returnsError(info *types.Info, ret *ast.ReturnStmt) bool {
	if len(ret.Results) == 0 {
		return false
	}
	last := ret.Results[len(ret.Results)-1]
	if tv, ok := info.Types[last]; ok && tv.IsNil() {
		return false
	}
	return isErrorType(typeOf(info, last))
}

// assignsError reports whether every left-hand side of assign is
// error-typed (`err = fmt.Errorf(...)`): the statement is constructing a
// failure, not serving a hit. Mixed assignments like `v, err := f()` are
// NOT exempt — the call on the right runs on every iteration.
func assignsError(info *types.Info, assign *ast.AssignStmt) bool {
	for _, lhs := range assign.Lhs {
		if !isErrorType(typeOf(info, lhs)) {
			return false
		}
	}
	return len(assign.Lhs) > 0
}

// deferInLoop reports whether def sits lexically inside a for/range of the
// same function.
func deferInLoop(parents map[ast.Node]ast.Node, def *ast.DeferStmt) bool {
	for p := parents[ast.Node(def)]; p != nil; p = parents[p] {
		switch p.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		case *ast.FuncDecl, *ast.FuncLit:
			return false
		}
	}
	return false
}

// freshSlice reports whether e denotes a newly allocated slice (a literal,
// a make call, or nil) — appending onto one always allocates.
func freshSlice(info *types.Info, e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && id.Name == "make" {
				return true
			}
		}
	default:
		if tv, ok := info.Types[e]; ok && tv.IsNil() {
			return true
		}
	}
	return false
}

// paramType resolves the type of argument i against sig, flattening the
// variadic tail.
func paramType(sig *types.Signature, i int) types.Type {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		if sl, ok := sig.Params().At(n - 1).Type().(*types.Slice); ok {
			return sl.Elem()
		}
		return nil
	}
	if i >= n {
		return nil
	}
	return sig.Params().At(i).Type()
}

// pointerShaped reports whether t is represented as a single pointer word —
// boxing such a value into an interface stores the word directly and does
// not allocate.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// isErrorType reports whether t is exactly the error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// isStringType reports whether t's underlying type is string.
func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isByteOrRuneSlice reports whether t's underlying type is []byte or []rune.
func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
