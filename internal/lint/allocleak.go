package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Allocleak checks the gpusim.Allocator ownership discipline with a
// flow-sensitive dataflow over the per-function CFG: every successful
// Alloc/TryAlloc/Reserve must reach a matching Free on all paths — including
// early error returns — unless ownership demonstrably transfers out of the
// function (the block id is returned, stored, or handed to a callee that is
// not a pure borrower). Inside gpusim itself it also enforces the accounting
// funnel: account/unaccount may only be called from (*Allocator).alloc and
// (*Allocator).Free, so the usage/high-water invariants cannot be bypassed.
var Allocleak = &Analyzer{
	Name: "allocleak",
	Doc:  "require every successful Allocator acquisition to reach Free (or a documented ownership transfer) on all paths",
	Run:  runAllocleak,
}

const gpusimPath = "dynnoffload/internal/gpusim"

// acqSpec describes one Allocator acquisition method.
type acqSpec struct {
	idArg    int  // index of the block-id argument
	errGuard bool // success signalled by nil error (else by true bool)
}

var acquireMethods = map[string]acqSpec{
	"Alloc":    {idArg: 0, errGuard: false},
	"TryAlloc": {idArg: 0, errGuard: true},
	"Reserve":  {idArg: 1, errGuard: true},
}

func runAllocleak(pass *Pass) {
	if !importsGpusim(pass) {
		return
	}
	sums := buildAllocSummaries(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if pass.Path == gpusimPath || strings.HasPrefix(pass.Path, gpusimPath+"/") {
				checkAccountFunnel(pass, fd)
			}
			if hasAllocatorReceiver(pass.Info, fd) {
				continue // the Allocator's own methods are the implementation
			}
			analyzeAllocFunc(pass, fd, sums)
		}
	}
}

// importsGpusim reports whether the package under analysis is gpusim or
// imports it (the only packages where Allocator facts can originate).
func importsGpusim(pass *Pass) bool {
	if pkgPathHasPrefix(pass.Path, gpusimPath) {
		return true
	}
	for _, imp := range pass.Pkg.Imports() {
		if imp.Path() == gpusimPath {
			return true
		}
	}
	return false
}

// isAllocatorType reports whether t is gpusim.Allocator or a pointer to it.
func isAllocatorType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Allocator" && obj.Pkg() != nil && obj.Pkg().Path() == gpusimPath
}

// allocatorCall decomposes a call on an Allocator receiver into the receiver
// expression and method name; ok is false for anything else.
func allocatorCall(info *types.Info, call *ast.CallExpr) (recv ast.Expr, name string, ok bool) {
	sel, isSel := unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	if !isAllocatorType(info.TypeOf(sel.X)) {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

// hasAllocatorReceiver reports whether fd is a method on gpusim.Allocator.
func hasAllocatorReceiver(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	return isAllocatorType(info.TypeOf(fd.Recv.List[0].Type))
}

// checkAccountFunnel enforces that account/unaccount are reached only through
// (*Allocator).alloc and (*Allocator).Free.
func checkAccountFunnel(pass *Pass, fd *ast.FuncDecl) {
	allowed := hasAllocatorReceiver(pass.Info, fd) && (fd.Name.Name == "alloc" || fd.Name.Name == "Free" ||
		fd.Name.Name == "account" || fd.Name.Name == "unaccount")
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, name, ok := allocatorCall(pass.Info, call); ok && (name == "account" || name == "unaccount") && !allowed {
			pass.Report(call.Pos(), "%s bypasses the alloc/Free accounting funnel; route the placement through alloc or Free so usage and high-water stay balanced", name)
		}
		return true
	})
}

// --- interprocedural summaries -------------------------------------------

// paramEffect classifies what a same-package function does with a parameter
// that carries live allocator facts at a call site.
type paramEffect int

const (
	paramBorrows paramEffect = iota // read-only: facts stay live in the caller
	paramFrees                      // callee releases the blocks
	paramEscapes                    // callee stores/returns/forwards it: ownership transfer
)

// acquireSummary says a function acquires blocks on its allocator-typed
// parameter and transfers them to the caller through a result.
type acquireSummary struct {
	allocParam int    // which parameter is the allocator
	resultIdx  int    // which result carries the acquired holders
	idSuffix   string // selector path from a carrier element to the block id, e.g. ".id"
	desc       string // method used, for the report text
}

// allocSummaries indexes the same-package interprocedural facts.
type allocSummaries struct {
	acquires map[*types.Func]*acquireSummary
	effects  map[*types.Func][]paramEffect
	decls    map[*types.Func]*ast.FuncDecl
}

func buildAllocSummaries(pass *Pass) *allocSummaries {
	s := &allocSummaries{
		acquires: map[*types.Func]*acquireSummary{},
		effects:  map[*types.Func][]paramEffect{},
		decls:    map[*types.Func]*ast.FuncDecl{},
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			s.decls[fn] = fd
		}
	}
	for fn, fd := range s.decls {
		s.effects[fn] = paramEffects(pass.Info, fd, s)
		if sum := acquireTransfer(pass.Info, fd); sum != nil {
			s.acquires[fn] = sum
		}
	}
	// One refinement round so A's "forwards to B" resolves against B's
	// now-known effects (call graphs here are shallow: dispatch→selectBatch,
	// dispatch→serviceTime).
	for fn, fd := range s.decls {
		s.effects[fn] = paramEffects(pass.Info, fd, s)
	}
	return s
}

// paramEffects computes, per parameter, the strongest thing the function does
// with it from an ownership standpoint.
func paramEffects(info *types.Info, fd *ast.FuncDecl, sums *allocSummaries) []paramEffect {
	var params []*types.Var
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					params = append(params, v)
				}
			}
		}
	}
	effects := make([]paramEffect, len(params))
	idx := map[types.Object]int{}
	for i, p := range params {
		idx[p] = i
	}
	subst := rangeSubsts(info, fd.Body)
	// rootParam matches any expression rooted at a param (or an element of a
	// param slice): right for Free(req.id), where the id lives inside the
	// element. plainParam matches only the param value itself: passing r.ex
	// onward hands over a field, not the element's ownership.
	rootParam := func(e ast.Expr) (int, bool) {
		id := rootIdent(unparen(e))
		if id == nil {
			return 0, false
		}
		obj := objectOf(info, id)
		if o, ok := subst[obj]; ok {
			obj = o
		}
		i, ok := idx[obj]
		return i, ok
	}
	plainParam := func(e ast.Expr) (int, bool) {
		id, ok := unparen(e).(*ast.Ident)
		if !ok {
			return 0, false
		}
		obj := objectOf(info, id)
		if o, ok := subst[obj]; ok {
			obj = o
		}
		i, ok := idx[obj]
		return i, ok
	}
	mark := func(i int, e paramEffect) {
		if e > effects[i] {
			effects[i] = e
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			if _, name, ok := allocatorCall(info, v); ok {
				// The allocator receiver itself being a param is a borrow.
				if name == "Free" && len(v.Args) == 1 {
					if i, ok := rootParam(v.Args[0]); ok {
						mark(i, paramFrees)
					}
				}
				return true
			}
			callee := calleeFunc(info, v)
			for argIdx, arg := range v.Args {
				i, ok := plainParam(arg)
				if !ok {
					continue
				}
				if callee != nil {
					if effs, known := sums.effects[callee]; known && argIdx < len(effs) {
						mark(i, effs[argIdx])
						continue
					}
					if isPureBuiltinLike(callee) {
						continue
					}
				}
				if bi, ok := unparen(v.Fun).(*ast.Ident); ok && (bi.Name == "len" || bi.Name == "cap" || bi.Name == "append" || bi.Name == "copy") {
					continue
				}
				mark(i, paramEscapes)
			}
		case *ast.ReturnStmt:
			for _, res := range v.Results {
				if i, ok := plainParam(res); ok {
					mark(i, paramEscapes)
				}
			}
		case *ast.AssignStmt:
			// Storing a param into anything non-local transfers it.
			for ai, rhs := range v.Rhs {
				i, ok := plainParam(rhs)
				if !ok || ai >= len(v.Lhs) {
					continue
				}
				if isNonLocalStore(info, fd, v.Lhs[ai]) {
					mark(i, paramEscapes)
				}
			}
		}
		return true
	})
	return effects
}

// isPureBuiltinLike covers stdlib helpers that never take ownership.
func isPureBuiltinLike(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "sort", "fmt", "strings", "math":
		return true
	}
	return false
}

// acquireTransfer detects the selectBatch shape: the function acquires on an
// allocator parameter, appends the holder into a slice on the success path,
// and returns that slice — the caller inherits the release obligation.
func acquireTransfer(info *types.Info, fd *ast.FuncDecl) *acquireSummary {
	allocParams := map[types.Object]int{}
	i := 0
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				obj := info.Defs[name]
				if obj != nil && isAllocatorType(obj.Type()) {
					allocParams[obj] = i
				}
				i++
			}
		}
	}
	if len(allocParams) == 0 {
		return nil
	}
	// paramAcquisition matches an acquisition call on an allocator parameter.
	paramAcquisition := func(call *ast.CallExpr) (int, bool) {
		recv, name, ok := allocatorCall(info, call)
		if !ok {
			return 0, false
		}
		spec, isAcq := acquireMethods[name]
		if !isAcq || spec.idArg >= len(call.Args) {
			return 0, false
		}
		rid := rootIdent(recv)
		if rid == nil {
			return 0, false
		}
		i, isParam := allocParams[objectOf(info, rid)]
		return i, isParam
	}
	follows := followingStmts(fd.Body)
	var sum *acquireSummary
	// Only the if-statement form is summarized — the acquisition call sits in
	// the condition, or in the init that binds the condition's guard — and
	// only appends on the success path carry reserved blocks (rest/overflow
	// appends elsewhere don't): the then-branch when the condition holds on
	// success, otherwise the else-branch plus, when the failure branch leaves
	// the block (return, continue, break), the statements after the if.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok || sum != nil {
			return true
		}
		var acq *ast.CallExpr
		var pIdx int
		var guard types.Object
		if as, ok := ifStmt.Init.(*ast.AssignStmt); ok && len(as.Rhs) == 1 && len(as.Lhs) == 1 {
			if call, ok := unparen(as.Rhs[0]).(*ast.CallExpr); ok {
				if i, ok := paramAcquisition(call); ok {
					acq, pIdx = call, i
					if gid, ok := unparen(as.Lhs[0]).(*ast.Ident); ok {
						guard = objectOf(info, gid)
					}
				}
			}
		}
		if acq == nil {
			ast.Inspect(ifStmt.Cond, func(cn ast.Node) bool {
				call, ok := cn.(*ast.CallExpr)
				if !ok || acq != nil {
					return true
				}
				if i, ok := paramAcquisition(call); ok {
					acq, pIdx = call, i
				}
				return true
			})
		}
		if acq == nil {
			return true
		}
		name := unparen(acq.Fun).(*ast.SelectorExpr).Sel.Name
		spec := acquireMethods[name]
		idExpr := acq.Args[spec.idArg]
		hid := rootIdent(idExpr)
		if hid == nil {
			return true
		}
		holder := objectOf(info, hid)
		onThen, known := successOnThen(info, ifStmt.Cond, acq, guard)
		if !known {
			return true
		}
		var success []ast.Stmt
		if onThen {
			success = ifStmt.Body.List
		} else {
			if els, ok := ifStmt.Else.(*ast.BlockStmt); ok {
				success = append(success, els.List...)
			}
			if leavesBlock(ifStmt.Body) {
				success = append(success, follows[ifStmt]...)
			}
		}
		suffix := selectorSuffix(idExpr)
		carriers := appendCarriers(info, &ast.BlockStmt{List: success})
		for carrier, elems := range carriers {
			if !elems[holder] {
				continue
			}
			if ri, returned := returnedResultIndex(info, fd, carrier); returned {
				sum = &acquireSummary{allocParam: pIdx, resultIdx: ri, idSuffix: suffix, desc: name}
			}
		}
		return true
	})
	return sum
}

// successOnThen reports whether an if condition holds exactly on the success
// of acquisition acq (tested directly, or through guard, the variable the
// if's init bound its result to): true for `acq == nil`, `err == nil`, a
// bool acquisition or guard, or a conjunction containing one; false for
// their negations. known is false for any other condition.
func successOnThen(info *types.Info, cond ast.Expr, acq *ast.CallExpr, guard types.Object) (onThen, known bool) {
	isAcq := func(e ast.Expr) bool {
		if call, ok := unparen(e).(*ast.CallExpr); ok && call == acq {
			return true
		}
		id, ok := unparen(e).(*ast.Ident)
		return ok && guard != nil && objectOf(info, id) == guard
	}
	errGuard := acquireMethods[unparen(acq.Fun).(*ast.SelectorExpr).Sel.Name].errGuard
	switch c := unparen(cond).(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			onThen, known = successOnThen(info, c.X, acq, guard)
			return !onThen, known
		}
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND: // then: every conjunct holds
			if t, k := successOnThen(info, c.X, acq, guard); k && t {
				return true, true
			}
			if t, k := successOnThen(info, c.Y, acq, guard); k && t {
				return true, true
			}
		case token.EQL, token.NEQ:
			if !errGuard {
				return false, false
			}
			if (isAcq(c.X) && isNil(info, c.Y)) || (isAcq(c.Y) && isNil(info, c.X)) {
				return c.Op == token.EQL, true
			}
		}
	default:
		if !errGuard && isAcq(c) {
			return true, true
		}
	}
	return false, false
}

// leavesBlock reports whether a branch body ends by leaving its enclosing
// block: return, continue, break or goto.
func leavesBlock(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	switch body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	}
	return false
}

// followingStmts maps each if statement that sits directly in a statement
// list to the statements after it in that list.
func followingStmts(body *ast.BlockStmt) map[*ast.IfStmt][]ast.Stmt {
	out := map[*ast.IfStmt][]ast.Stmt{}
	record := func(list []ast.Stmt) {
		for i, st := range list {
			if ifStmt, ok := st.(*ast.IfStmt); ok {
				out[ifStmt] = list[i+1:]
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.BlockStmt:
			record(v.List)
		case *ast.CaseClause:
			record(v.Body)
		case *ast.CommClause:
			record(v.Body)
		}
		return true
	})
	return out
}

// selectorSuffix returns the selector path below the root identifier of e,
// e.g. ".id" for r.id, "" for a plain identifier.
func selectorSuffix(e ast.Expr) string {
	var parts []string
	for {
		switch v := unparen(e).(type) {
		case *ast.SelectorExpr:
			parts = append([]string{v.Sel.Name}, parts...)
			e = v.X
		case *ast.Ident:
			if len(parts) == 0 {
				return ""
			}
			return "." + strings.Join(parts, ".")
		default:
			return ""
		}
	}
}

// appendCarriers maps each slice variable to the set of element objects
// appended into it anywhere in the body (flow-insensitive; used only to
// recognize ownership transfer, so over-approximation is safe).
func appendCarriers(info *types.Info, body *ast.BlockStmt) map[types.Object]map[types.Object]bool {
	out := map[types.Object]map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			fid, ok := unparen(call.Fun).(*ast.Ident)
			if !ok || fid.Name != "append" || len(call.Args) < 2 {
				continue
			}
			lid := rootIdent(as.Lhs[i])
			if lid == nil {
				continue
			}
			carrier := objectOf(info, lid)
			if carrier == nil {
				continue
			}
			for _, arg := range call.Args[1:] {
				aid := rootIdent(unparen(arg))
				if aid == nil {
					continue
				}
				if elem := objectOf(info, aid); elem != nil {
					if out[carrier] == nil {
						out[carrier] = map[types.Object]bool{}
					}
					out[carrier][elem] = true
				}
			}
		}
		return true
	})
	return out
}

// returnedResultIndex reports whether obj is returned from fd and at which
// result position (covering both explicit returns and named results).
func returnedResultIndex(info *types.Info, fd *ast.FuncDecl, obj types.Object) (int, bool) {
	idx, found := -1, false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for i, res := range ret.Results {
			if id := rootIdent(unparen(res)); id != nil && objectOf(info, id) == obj {
				idx, found = i, true
			}
		}
		return true
	})
	if found {
		return idx, true
	}
	// Named result returned by a bare return.
	if fd.Type.Results != nil {
		i := 0
		for _, field := range fd.Type.Results.List {
			for _, name := range field.Names {
				if info.Defs[name] == obj {
					return i, true
				}
				i++
			}
			if len(field.Names) == 0 {
				i++
			}
		}
	}
	return 0, false
}

// rangeSubsts maps each range value/key variable to the root object of the
// expression being ranged over, so `r` in `for _, r := range batch` keys the
// same facts as elements of `batch`.
func rangeSubsts(info *types.Info, body *ast.BlockStmt) map[types.Object]types.Object {
	out := map[types.Object]types.Object{}
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		src := rootIdent(unparen(rs.X))
		if src == nil {
			return true
		}
		srcObj := objectOf(info, src)
		if srcObj == nil {
			return true
		}
		for _, e := range []ast.Expr{rs.Key, rs.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				if obj := objectOf(info, id); obj != nil {
					out[obj] = srcObj
				}
			}
		}
		return true
	})
	return out
}

// --- the per-function dataflow -------------------------------------------

// guardKind says how a fact's acquisition success is signalled.
type guardKind int

const (
	guardNone guardKind = iota // definitely acquired
	guardBool                  // acquired iff guard var is true
	guardErr                   // acquired iff guard var is nil
)

// allocFact is one outstanding release obligation.
type allocFact struct {
	key      string // allocKey + "|" + idKey: identity for merge and kill
	allocKey string
	idKey    string
	pos      token.Pos
	desc     string
	guard    types.Object // nil once definite
	gkind    guardKind
	holder   types.Object // root object of the id expression (escape kills)
	carrier  types.Object // carrier slice for summary-produced group facts
	fromsum  bool
}

// factSet is the dataflow state: outstanding facts keyed by identity.
type factSet map[string]allocFact

func (s factSet) clone() factSet {
	out := make(factSet, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func (s factSet) equal(o factSet) bool {
	if len(s) != len(o) {
		return false
	}
	for k, v := range s {
		ov, ok := o[k]
		if !ok || ov.guard != v.guard {
			return false
		}
	}
	return true
}

// allocAnalysis bundles the per-function analysis context.
type allocAnalysis struct {
	pass     *Pass
	fd       *ast.FuncDecl
	sums     *allocSummaries
	subst    map[types.Object]types.Object
	carriers map[types.Object]map[types.Object]bool
	keys     map[types.Object]string
	nextKey  int
	leaks    map[string]allocFact // reported once per fact identity
}

func analyzeAllocFunc(pass *Pass, fd *ast.FuncDecl, sums *allocSummaries) {
	a := &allocAnalysis{
		pass:     pass,
		fd:       fd,
		sums:     sums,
		subst:    rangeSubsts(pass.Info, fd.Body),
		carriers: appendCarriers(pass.Info, fd.Body),
		keys:     map[types.Object]string{},
		leaks:    map[string]allocFact{},
	}
	g := buildCFG(fd.Body)

	in := make([]factSet, len(g.blocks))
	out := make([]factSet, len(g.blocks))
	for i := range g.blocks {
		in[i], out[i] = factSet{}, factSet{}
	}
	// Worklist union-merge to fixpoint; facts only refine monotonically
	// (guarded → definite or dropped), so this terminates quickly.
	work := []int{g.entry.index}
	queued := map[int]bool{g.entry.index: true}
	for len(work) > 0 {
		bi := work[0]
		work = work[1:]
		queued[bi] = false
		blk := g.blocks[bi]
		state := in[bi].clone()
		for _, n := range blk.nodes {
			a.transfer(state, n)
		}
		if !state.equal(out[bi]) || len(out[bi]) == 0 {
			out[bi] = state
			for _, e := range blk.succs {
				next := a.refine(state, e)
				merged := in[e.to.index]
				changed := false
				for k, v := range next {
					// Union merge; a definite fact (guard resolved) wins over
					// a still-guarded one so a leak on any path survives.
					old, ok := merged[k]
					if !ok || (old.guard != nil && v.guard == nil) {
						merged[k] = v
						changed = true
					}
				}
				if changed && !queued[e.to.index] {
					queued[e.to.index] = true
					work = append(work, e.to.index)
				}
			}
		}
	}

	// Exits: replay defers, then whatever survives leaked on some path.
	for i, blk := range g.blocks {
		if !blk.exits {
			continue
		}
		state := out[i].clone()
		if blk.ret != nil {
			a.killReturned(state, blk.ret)
		}
		for _, d := range g.defers {
			a.applyCall(state, d, true)
		}
		for _, f := range state {
			if f.guard != nil {
				continue // success never established on this path
			}
			a.leaks[f.key] = f
		}
	}
	keys := make([]string, 0, len(a.leaks))
	for k := range a.leaks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		f := a.leaks[k]
		pass.Report(f.pos, "%s acquisition can leave the function without a matching Free (leak on at least one path); release it on every path or transfer ownership explicitly", f.desc)
	}
}

// objKey returns a stable short key for a types.Object.
func (a *allocAnalysis) objKey(obj types.Object) string {
	if k, ok := a.keys[obj]; ok {
		return k
	}
	a.nextKey++
	k := fmt.Sprintf("o%d", a.nextKey)
	a.keys[obj] = k
	return k
}

// exprKey canonicalizes an expression for fact matching, substituting range
// variables with elem(<source>) so the acquiring loop and the freeing loop
// agree on identity even with distinct loop variables.
func (a *allocAnalysis) exprKey(e ast.Expr) string {
	switch v := unparen(e).(type) {
	case *ast.Ident:
		obj := objectOf(a.pass.Info, v)
		if obj == nil {
			return "?" + v.Name
		}
		if src, ok := a.subst[obj]; ok {
			return "elem(" + a.objKey(src) + ")"
		}
		return a.objKey(obj)
	case *ast.SelectorExpr:
		return a.exprKey(v.X) + "." + v.Sel.Name
	case *ast.IndexExpr:
		return a.exprKey(v.X) + "[" + a.exprKey(v.Index) + "]"
	case *ast.StarExpr:
		return a.exprKey(v.X)
	case *ast.BasicLit:
		return v.Value
	default:
		return fmt.Sprintf("@%d", e.Pos()) // never matches anything else
	}
}

// transfer applies one CFG node to the state.
func (a *allocAnalysis) transfer(state factSet, n ast.Node) {
	switch v := n.(type) {
	case *ast.AssignStmt:
		a.assign(state, v)
	case *ast.ExprStmt:
		if call, ok := unparen(v.X).(*ast.CallExpr); ok {
			a.applyCall(state, call, false)
		}
	case *ast.DeferStmt:
		// Replayed at exits; not applied in-line.
	case *ast.GoStmt:
		a.applyCall(state, v.Call, false)
	case *ast.ReturnStmt:
		a.killReturned(state, v)
	case *condNode:
		a.applyNestedCalls(state, v.cond)
	case *ast.RangeStmt:
		a.rangeRelease(state, v)
	case *ast.IncDecStmt:
		// No ownership effect.
	default:
		if stmt, ok := n.(ast.Stmt); ok {
			ast.Inspect(stmt, func(nn ast.Node) bool {
				if call, ok := nn.(*ast.CallExpr); ok {
					a.applyCall(state, call, false)
					return false
				}
				return true
			})
		}
	}
}

// assign handles acquisitions bound to guard variables, summary calls, and
// escape-by-store kills.
func (a *allocAnalysis) assign(state factSet, as *ast.AssignStmt) {
	if len(as.Rhs) == 1 {
		if call, ok := unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			if recv, name, ok := allocatorCall(a.pass.Info, call); ok {
				if spec, isAcq := acquireMethods[name]; isAcq && spec.idArg < len(call.Args) {
					f := a.newFact(recv, call.Args[spec.idArg], name, call.Pos())
					if len(as.Lhs) == 1 {
						if gid, ok := unparen(as.Lhs[0]).(*ast.Ident); ok && gid.Name != "_" {
							f.guard = objectOf(a.pass.Info, gid)
							if spec.errGuard {
								f.gkind = guardErr
							} else {
								f.gkind = guardBool
							}
						}
					}
					state[f.key] = f
					return
				}
				if name == "Free" {
					a.applyCall(state, call, false)
					return
				}
			}
			if callee := calleeFunc(a.pass.Info, call); callee != nil {
				if sum, ok := a.sums.acquires[callee]; ok && sum.allocParam < len(call.Args) {
					a.addSummaryFact(state, call, sum, as.Lhs)
					a.applyCall(state, call, false)
					return
				}
			}
			a.applyCall(state, call, false)
		}
	}
	// Guard variable reassigned before the branch resolved: the fact can no
	// longer be refined — treat as definitely acquired (conservative).
	for _, lhs := range as.Lhs {
		lid, ok := unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		obj := objectOf(a.pass.Info, lid)
		for k, f := range state {
			if f.guard != nil && f.guard == obj && as.Tok != token.DEFINE {
				f.guard, f.gkind = nil, guardNone
				state[k] = f
			}
		}
	}
	// Escape by store: the holder/carrier value itself (a plain identifier —
	// storing one of its fields hands over the field, not the obligation)
	// written into a field, index, or non-local.
	for i, rhs := range as.Rhs {
		obj := plainIdentObj(a.pass.Info, rhs)
		if obj == nil || i >= len(as.Lhs) {
			continue
		}
		if isNonLocalStore(a.pass.Info, a.fd, as.Lhs[i]) {
			a.killByObject(state, obj)
		}
	}
	// Escape by append into a non-local slice: l.held = append(l.held, id)
	// hands the obligation to the structure that now holds the id.
	for i, rhs := range as.Rhs {
		call, ok := unparen(rhs).(*ast.CallExpr)
		if !ok || i >= len(as.Lhs) || len(call.Args) < 2 {
			continue
		}
		fid, ok := unparen(call.Fun).(*ast.Ident)
		if !ok || fid.Name != "append" {
			continue
		}
		if _, isBuiltin := objectOf(a.pass.Info, fid).(*types.Builtin); !isBuiltin {
			continue
		}
		if !isNonLocalStore(a.pass.Info, a.fd, as.Lhs[i]) {
			continue
		}
		for _, arg := range call.Args[1:] {
			if obj := plainIdentObj(a.pass.Info, arg); obj != nil {
				a.killByObject(state, obj)
			}
		}
	}
	// Escape via composite literal on the RHS (struct{field: holder}).
	for _, rhs := range as.Rhs {
		ast.Inspect(rhs, func(nn ast.Node) bool {
			cl, ok := nn.(*ast.CompositeLit)
			if !ok {
				return true
			}
			for _, el := range cl.Elts {
				e := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if obj := plainIdentObj(a.pass.Info, e); obj != nil {
					a.killByObject(state, obj)
				}
			}
			return true
		})
	}
}

// plainIdentObj resolves e to an object only when e is a bare identifier.
func plainIdentObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return objectOf(info, id)
}

// newFact builds a fact for a direct acquisition call. The holder is the raw
// root object of the id expression (a loop variable stays itself: escape
// kills compare against what appears in appends and stores).
func (a *allocAnalysis) newFact(recv, idExpr ast.Expr, method string, pos token.Pos) allocFact {
	allocKey := a.exprKey(recv)
	idKey := a.exprKey(idExpr)
	var holder types.Object
	if id := rootIdent(unparen(idExpr)); id != nil {
		holder = objectOf(a.pass.Info, id)
	}
	return allocFact{
		key:      allocKey + "|" + idKey,
		allocKey: allocKey,
		idKey:    idKey,
		pos:      pos,
		desc:     "Allocator." + method,
		holder:   holder,
	}
}

// addSummaryFact materializes the caller-side obligation of an
// acquire-transfer callee: the returned carrier's elements hold reserved
// blocks on the allocator argument.
func (a *allocAnalysis) addSummaryFact(state factSet, call *ast.CallExpr, sum *acquireSummary, lhs []ast.Expr) {
	allocKey := a.exprKey(call.Args[sum.allocParam])
	if sum.resultIdx >= len(lhs) {
		return
	}
	cid, ok := unparen(lhs[sum.resultIdx]).(*ast.Ident)
	if !ok || cid.Name == "_" {
		// Acquired blocks bound to nothing: unreleasable.
		f := allocFact{
			key: allocKey + "|discarded@" + fmt.Sprint(call.Pos()), allocKey: allocKey,
			idKey: "discarded", pos: call.Pos(), desc: "Allocator." + sum.desc + " (via " + calleeFunc(a.pass.Info, call).Name() + ")",
		}
		state[f.key] = f
		return
	}
	carrier := objectOf(a.pass.Info, cid)
	idKey := "elem(" + a.objKey(carrier) + ")" + sum.idSuffix
	f := allocFact{
		key:      allocKey + "|" + idKey,
		allocKey: allocKey,
		idKey:    idKey,
		pos:      call.Pos(),
		desc:     "Allocator." + sum.desc + " (via " + calleeFunc(a.pass.Info, call).Name() + ")",
		holder:   carrier,
		carrier:  carrier,
		fromsum:  true,
	}
	state[f.key] = f
}

// applyCall processes release and escape effects of one call.
func (a *allocAnalysis) applyCall(state factSet, call *ast.CallExpr, inDefer bool) {
	if recv, name, ok := allocatorCall(a.pass.Info, call); ok {
		if name == "Free" && len(call.Args) == 1 {
			allocKey := a.exprKey(recv)
			idKey := a.exprKey(call.Args[0])
			delete(state, allocKey+"|"+idKey)
			return
		}
		if _, isAcq := acquireMethods[name]; isAcq && !inDefer {
			// Bare acquisition with the result discarded.
			spec := acquireMethods[name]
			if spec.idArg < len(call.Args) {
				f := a.newFact(recv, call.Args[spec.idArg], name, call.Pos())
				state[f.key] = f
			}
			return
		}
		return
	}
	callee := calleeFunc(a.pass.Info, call)
	var effs []paramEffect
	known := false
	if callee != nil {
		effs, known = a.sums.effects[callee]
	}
	if fid, ok := unparen(call.Fun).(*ast.Ident); ok {
		switch fid.Name {
		case "len", "cap", "append", "copy", "delete", "print", "println":
			return
		}
	}
	for argIdx, arg := range call.Args {
		obj := plainIdentObj(a.pass.Info, arg)
		if obj == nil {
			continue
		}
		if src, ok := a.subst[obj]; ok {
			obj = src
		}
		eff := paramEscapes
		if known && argIdx < len(effs) {
			eff = effs[argIdx]
		} else if callee != nil && isPureBuiltinLike(callee) {
			eff = paramBorrows
		}
		if eff == paramBorrows {
			continue
		}
		a.killByObject(state, obj) // freed by callee or ownership transferred
	}
}

// rangeRelease recognizes the group-release idiom: `for _, r := range C {
// A.Free(r.id) }` releases everything C carries, including the zero-iteration
// case (empty carrier = empty group). Only unconditional top-level Free
// statements count — a Free behind an if inside the loop still leaves the
// group partially held.
func (a *allocAnalysis) rangeRelease(state factSet, rs *ast.RangeStmt) {
	if plainIdentObj(a.pass.Info, rs.X) == nil {
		return
	}
	for _, stmt := range rs.Body.List {
		es, ok := stmt.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := unparen(es.X).(*ast.CallExpr)
		if !ok {
			continue
		}
		recv, name, ok := allocatorCall(a.pass.Info, call)
		if !ok || name != "Free" || len(call.Args) != 1 {
			continue
		}
		// exprKey substitutes the loop variable with elem(C), matching the
		// carrier-borne fact's idKey exactly.
		delete(state, a.exprKey(recv)+"|"+a.exprKey(call.Args[0]))
	}
}

// applyNestedCalls lets non-acquisition calls inside a condition apply their
// effects (acquisitions in conditions are handled on the edges).
func (a *allocAnalysis) applyNestedCalls(state factSet, cond ast.Expr) {
	ast.Inspect(cond, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, name, ok := allocatorCall(a.pass.Info, call); ok {
			if _, isAcq := acquireMethods[name]; isAcq {
				return false // edge refinement owns these
			}
		}
		a.applyCall(state, call, false)
		return false
	})
}

// killByObject drops facts whose holder or carrier is obj, including holders
// reachable through a carrier obj appends into.
func (a *allocAnalysis) killByObject(state factSet, obj types.Object) {
	for k, f := range state {
		if f.holder == obj || f.carrier == obj {
			delete(state, k)
			continue
		}
		if elems, ok := a.carriers[obj]; ok && f.holder != nil && elems[f.holder] {
			delete(state, k)
		}
	}
}

// killReturned drops facts transferred to the caller through return values.
func (a *allocAnalysis) killReturned(state factSet, ret *ast.ReturnStmt) {
	for _, res := range ret.Results {
		if id := rootIdent(unparen(res)); id != nil {
			if obj := objectOf(a.pass.Info, id); obj != nil {
				a.killByObject(state, obj)
			}
		}
	}
	if len(ret.Results) == 0 && a.fd.Type.Results != nil {
		for _, field := range a.fd.Type.Results.List {
			for _, name := range field.Names {
				if obj := a.pass.Info.Defs[name]; obj != nil {
					a.killByObject(state, obj)
				}
			}
		}
	}
}

// refine applies a branch edge's condition to the state: guarded facts become
// definite or vanish, and acquisitions inside the condition materialize on
// the success edge.
func (a *allocAnalysis) refine(state factSet, e cfgEdge) factSet {
	out := state.clone()
	if e.cond == nil {
		return out
	}
	val := !e.negate
	for k, f := range out {
		if f.guard == nil {
			continue
		}
		switch truth := guardTruth(a.pass.Info, e.cond, val, f.guard, f.gkind); truth {
		case truthAcquired:
			f.guard, f.gkind = nil, guardNone
			out[k] = f
		case truthNotAcquired:
			delete(out, k)
		}
	}
	// Acquisitions embedded in the condition itself.
	a.condAcquisitions(out, e.cond, val)
	// A proven-empty carrier holds no acquisitions: the `if len(batch) == 0
	// { return err }` guard after a transferring call is leak-free.
	a.refineLen(out, e.cond, val)
	return out
}

// refineLen kills carrier-borne facts on edges where the carrier is provably
// empty.
func (a *allocAnalysis) refineLen(state factSet, cond ast.Expr, val bool) {
	switch v := unparen(cond).(type) {
	case *ast.UnaryExpr:
		if v.Op == token.NOT {
			a.refineLen(state, v.X, !val)
		}
	case *ast.BinaryExpr:
		switch v.Op {
		case token.LAND:
			if val {
				a.refineLen(state, v.X, true)
				a.refineLen(state, v.Y, true)
			}
		case token.LOR:
			if !val {
				a.refineLen(state, v.X, false)
				a.refineLen(state, v.Y, false)
			}
		default:
			obj, empty := emptyLenComparison(a.pass.Info, v, val)
			if obj == nil || !empty {
				return
			}
			for k, f := range state {
				if f.carrier == obj {
					delete(state, k)
				}
			}
		}
	}
}

// emptyLenComparison decodes `len(x) OP n` (either operand order) under the
// assumption the comparison evaluates to val, reporting whether it proves
// len(x) == 0.
func emptyLenComparison(info *types.Info, cmp *ast.BinaryExpr, val bool) (types.Object, bool) {
	lenCall := func(e ast.Expr) types.Object {
		call, ok := unparen(e).(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return nil
		}
		fid, ok := unparen(call.Fun).(*ast.Ident)
		if !ok || fid.Name != "len" {
			return nil
		}
		return plainIdentObj(info, call.Args[0])
	}
	intConst := func(e ast.Expr) (int64, bool) {
		tv := info.Types[unparen(e)]
		if tv.Value == nil {
			return 0, false
		}
		n, ok := constantInt64(tv)
		return n, ok
	}
	obj := lenCall(cmp.X)
	op := cmp.Op
	var n int64
	var ok bool
	if obj != nil {
		n, ok = intConst(cmp.Y)
	} else if obj = lenCall(cmp.Y); obj != nil {
		n, ok = intConst(cmp.X)
		op = flipCmp(op) // normalize to len(x) OP n
	}
	if obj == nil || !ok {
		return nil, false
	}
	// Under "len(x) OP n == val", is len(x) == 0 forced? (len is >= 0.)
	switch op {
	case token.EQL:
		return obj, val && n == 0
	case token.NEQ:
		return obj, !val && n == 0
	case token.LSS: // len < n
		return obj, val && n == 1
	case token.LEQ: // len <= n
		return obj, val && n == 0
	case token.GTR: // len > n
		return obj, !val && n == 0
	case token.GEQ: // len >= n
		return obj, !val && n == 1
	}
	return nil, false
}

func flipCmp(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GTR
	case token.LEQ:
		return token.GEQ
	case token.GTR:
		return token.LSS
	case token.GEQ:
		return token.LEQ
	}
	return op
}

// constantInt64 extracts an int64 from a constant type-and-value.
func constantInt64(tv types.TypeAndValue) (int64, bool) {
	if tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

type truthResult int

const (
	truthUnknown truthResult = iota
	truthAcquired
	truthNotAcquired
)

// guardTruth decides, under "cond evaluates to val", whether the guard var
// proves or disproves acquisition.
func guardTruth(info *types.Info, cond ast.Expr, val bool, guard types.Object, kind guardKind) truthResult {
	switch v := unparen(cond).(type) {
	case *ast.Ident:
		if kind == guardBool && objectOf(info, v) == guard {
			if val {
				return truthAcquired
			}
			return truthNotAcquired
		}
	case *ast.UnaryExpr:
		if v.Op == token.NOT {
			return guardTruth(info, v.X, !val, guard, kind)
		}
	case *ast.BinaryExpr:
		switch v.Op {
		case token.LAND:
			if val { // both conjuncts true
				if r := guardTruth(info, v.X, true, guard, kind); r != truthUnknown {
					return r
				}
				return guardTruth(info, v.Y, true, guard, kind)
			}
		case token.LOR:
			if !val { // both disjuncts false
				if r := guardTruth(info, v.X, false, guard, kind); r != truthUnknown {
					return r
				}
				return guardTruth(info, v.Y, false, guard, kind)
			}
		case token.EQL, token.NEQ:
			if kind != guardErr {
				return truthUnknown
			}
			var g ast.Expr
			var other ast.Expr
			if id, ok := unparen(v.X).(*ast.Ident); ok && objectOf(info, id) == guard {
				g, other = v.X, v.Y
			} else if id, ok := unparen(v.Y).(*ast.Ident); ok && objectOf(info, id) == guard {
				g, other = v.Y, v.X
			}
			if g == nil || !isNil(info, other) {
				return truthUnknown
			}
			isNilTrue := (v.Op == token.EQL) == val // guard == nil holds
			if isNilTrue {
				return truthAcquired
			}
			return truthNotAcquired
		}
	}
	return truthUnknown
}

// condAcquisitions adds definite facts for acquisition calls whose success is
// implied by the edge's condition value (e.g. the true edge of
// `ledger.Reserve(...) == nil && ...`).
func (a *allocAnalysis) condAcquisitions(state factSet, cond ast.Expr, val bool) {
	switch v := unparen(cond).(type) {
	case *ast.UnaryExpr:
		if v.Op == token.NOT {
			a.condAcquisitions(state, v.X, !val)
		}
	case *ast.BinaryExpr:
		switch v.Op {
		case token.LAND:
			if val {
				a.condAcquisitions(state, v.X, true)
				a.condAcquisitions(state, v.Y, true)
			}
		case token.LOR:
			if !val {
				a.condAcquisitions(state, v.X, false)
				a.condAcquisitions(state, v.Y, false)
			}
		case token.EQL, token.NEQ:
			call, other := a.callOperand(v.X, v.Y)
			if call == nil || !isNil(a.pass.Info, other) {
				return
			}
			recv, name, ok := allocatorCall(a.pass.Info, call)
			if !ok {
				return
			}
			spec, isAcq := acquireMethods[name]
			if !isAcq || !spec.errGuard || spec.idArg >= len(call.Args) {
				return
			}
			if (v.Op == token.EQL) == val { // err == nil on this edge
				f := a.newFact(recv, call.Args[spec.idArg], name, call.Pos())
				state[f.key] = f
			}
		}
	case *ast.CallExpr:
		recv, name, ok := allocatorCall(a.pass.Info, v)
		if !ok {
			return
		}
		spec, isAcq := acquireMethods[name]
		if !isAcq || spec.errGuard || spec.idArg >= len(v.Args) {
			return
		}
		if val { // bool-returning acquisition true on this edge
			f := a.newFact(recv, v.Args[spec.idArg], name, v.Pos())
			state[f.key] = f
		}
	}
}

// callOperand picks out (call, otherOperand) from a binary comparison.
func (a *allocAnalysis) callOperand(x, y ast.Expr) (*ast.CallExpr, ast.Expr) {
	if c, ok := unparen(x).(*ast.CallExpr); ok {
		return c, y
	}
	if c, ok := unparen(y).(*ast.CallExpr); ok {
		return c, x
	}
	return nil, nil
}

// isNonLocalStore reports whether the lvalue writes outside the function's
// locals (field, index, dereference, package-level var).
func isNonLocalStore(info *types.Info, fd *ast.FuncDecl, lhs ast.Expr) bool {
	switch v := unparen(lhs).(type) {
	case *ast.Ident:
		obj := objectOf(info, v)
		if obj == nil {
			return true
		}
		// Package-level variable?
		return obj.Parent() != nil && obj.Parent().Parent() == types.Universe
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		_ = v
		return true
	}
	return false
}
