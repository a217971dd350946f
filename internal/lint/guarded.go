package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Guarded is the field-granular lock-guard analyzer (DESIGN.md §4j): it
// proves every access of an //epi:guard-annotated struct field happens
// while the named lock is held — the exclusive lock for writes, a read
// lock sufficing for reads — following accesses through helpers with
// `(via helperA → helperB)` witnesses over the §4e lockset summaries. It
// also enforces the atomic/plain split whole-program (an //epi:guard
// atomic field is never accessed plainly, a lock-guarded field never via
// sync/atomic), checks //epi:immutable fields are only written before
// publication, verifies every //epi:guard path still resolves to a mutex
// that exists (annotation drift), and runs the coverage gate: every field
// of a shared struct in the protocol packages must carry exactly one
// annotation, so new state cannot silently join the replica unguarded.
var Guarded = &Analyzer{
	Name: "guarded",
	Doc:  "field accesses must hold the lock their //epi:guard annotation names; shared-struct fields must be annotated",
	Run:  runGuarded,
}

// gateSegments are the internal packages whose package-level structs fall
// under the annotation-coverage gate. Fixture packages opt in with a
// file-level //epi:coverage directive instead.
var gateSegments = map[string]bool{
	"store": true, "core": true, "cluster": true,
	"durable": true, "transport": true,
}

func gatePackage(path string) bool {
	const prefix = "repro/internal/"
	if !strings.HasPrefix(path, prefix) {
		return false
	}
	seg := strings.TrimPrefix(path, prefix)
	if i := strings.IndexByte(seg, '/'); i >= 0 {
		seg = seg[:i]
	}
	return gateSegments[seg]
}

// guardFinding is one pending diagnostic, bucketed by package so the
// per-package analyzer pass can report its share of the program-global
// analysis.
type guardFinding struct {
	pos token.Pos
	msg string
}

func runGuarded(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	pkg := pass.Prog.packageFor(pass.Pkg)
	if pkg == nil {
		return
	}
	for _, f := range pass.Prog.guardResults()[pkg] {
		pass.Reportf(f.pos, "%s", f.msg)
	}
}

// packageFor maps a types.Package back to the loaded Package it came from.
func (prog *Program) packageFor(tp *types.Package) *Package {
	for _, pkg := range prog.pkgs {
		if pkg.Types == tp {
			return pkg
		}
	}
	return nil
}

// guardNeed is one undischarged lock obligation of a function: an
// annotated-field access (or a call to an //epi:requires function) that
// the function's own body does not protect, expressed in the function's
// abstract root frame so callers can re-bind and either discharge it
// (they hold the lock) or inherit it with a longer witness path.
type guardNeed struct {
	desc     string // what needs the lock, for the message
	class    string // guard class required
	write    bool   // exclusive lock required
	root     int    // abstract owner slot (rootRecv / param+1 / rootOther)
	via      string // call path from the reporting function to the access
	readOnly bool   // the class was held, but only for read
	pos      token.Pos
}

func needKey(n guardNeed) string {
	return fmt.Sprintf("%s|%v|%d|%d", n.desc, n.write, n.root, n.pos)
}

// guardCall is a recorded call site: the callee's needs are re-bound here
// during the propagation fixpoint.
type guardCall struct {
	call      *ast.CallExpr
	calleeSym string
	held      []heldLock
}

// guardResults runs the whole guarded analysis once per Program.
func (prog *Program) guardResults() map[*Package][]guardFinding {
	if prog.guardRes != nil {
		return prog.guardRes
	}
	res := map[*Package][]guardFinding{}
	report := func(pkg *Package, pos token.Pos, format string, args ...any) {
		res[pkg] = append(res[pkg], guardFinding{pos, fmt.Sprintf(format, args...)})
	}
	tab := prog.annotations()
	lockSums := prog.summaries()
	prog.mutSummaries()

	for _, bd := range tab.badDirectives {
		report(bd.pkg, bd.pos, "%s", bd.msg)
	}
	prog.checkGuardResolution(tab, report)
	prog.checkCoverage(tab, report)

	// Per-function local analysis: undischarged accesses + call records.
	syms := make([]string, 0, len(prog.fns))
	for sym := range prog.fns {
		syms = append(syms, sym)
	}
	sort.Strings(syms)
	needs := map[string][]guardNeed{}
	calls := map[string][]guardCall{}
	freshSets := map[string]map[types.Object]bool{}
	for _, sym := range syms {
		fi := prog.fns[sym]
		fresh := freshLocalSet(prog.passes[fi.pkg], fi.decl.Body)
		freshSets[sym] = fresh
		n, c := prog.analyzeGuardFn(fi, tab, lockSums, fresh, report)
		needs[sym] = n
		calls[sym] = c
	}

	// Propagation fixpoint: a callee's undischarged needs become the
	// caller's unless the caller holds the re-bound guard at the call
	// site (or the bound owner is freshly constructed there). Exported
	// callees keep — and report — their own needs: they are the API
	// boundary.
	const maxRounds = 12
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, sym := range syms {
			fi := prog.fns[sym]
			if prog.fnIsInit(tab, fi) {
				continue
			}
			pass := prog.passes[fi.pkg]
			have := map[string]bool{}
			for _, n := range needs[sym] {
				have[needKey(n)] = true
			}
			for _, cr := range calls[sym] {
				callee := prog.fns[cr.calleeSym]
				if callee == nil || prog.fnIsRoot(cr.calleeSym) {
					continue
				}
				for _, n := range needs[cr.calleeSym] {
					boundObj := bindRoot(pass, cr.call, n.root)
					if boundObj != nil && freshSets[sym][boundObj] {
						continue
					}
					ok, ro := heldSatisfies(cr.held, n.class, n.write, boundObj, prog.rootSensitive(n.class, boundObj))
					if ok {
						continue
					}
					nn := guardNeed{
						desc: n.desc, class: n.class, write: n.write,
						root: fi.rootIndexOf(boundObj),
						via:  viaJoin(callee.shortName(), n.via),
						pos:  cr.call.Pos(), readOnly: ro,
					}
					if k := needKey(nn); !have[k] {
						have[k] = true
						needs[sym] = append(needs[sym], nn)
						changed = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}

	// Report the surviving needs of every root function: exported
	// functions, main/init, and functions nothing in the program calls.
	for _, sym := range syms {
		if !prog.fnIsRoot(sym) {
			continue
		}
		fi := prog.fns[sym]
		for _, n := range needs[sym] {
			msg := n.desc
			lockDesc := n.class
			if n.write {
				lockDesc += " (write)"
			}
			switch {
			case n.readOnly:
				msg += fmt.Sprintf(": guard %s is held for read only; writes need the exclusive lock", n.class)
			default:
				msg += fmt.Sprintf(": guard %s not held", lockDesc)
			}
			if n.via != "" {
				msg += " (via " + n.via + ")"
			}
			report(fi.pkg, n.pos, "%s", msg)
		}
	}

	prog.guardRes = res
	return res
}

// fnIsInit reports whether fn carries //epi:init: its writes install
// state before publication (constructors, option closures, durable
// recovery) and are exempt from guard/immutable/monotone write checks.
func (prog *Program) fnIsInit(tab *annoTable, fi *funcInfo) bool {
	fa := tab.funcs[symbolOf(fi.obj)]
	return fa != nil && fa.init
}

// fnIsRoot reports whether the function reports its own needs rather
// than propagating them: exported API, main/init, or called by nothing
// the program can see (callbacks registered by value, test hooks).
func (prog *Program) fnIsRoot(sym string) bool {
	fi := prog.fns[sym]
	if fi == nil {
		return false
	}
	name := fi.obj.Name()
	if fi.obj.Exported() || name == "main" || name == "init" {
		return true
	}
	return !prog.calledSymbols()[sym]
}

// calledSymbols is the set of function symbols with at least one
// statically resolved call site anywhere in the program.
func (prog *Program) calledSymbols() map[string]bool {
	if prog.calledSyms != nil {
		return prog.calledSyms
	}
	called := map[string]bool{}
	for _, pkg := range prog.pkgs {
		pass := prog.passes[pkg]
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn, isFn := calleeObject(pass, call).(*types.Func); isFn {
					called[symbolOf(fn)] = true
				}
				return true
			})
		}
	}
	prog.calledSyms = called
	return called
}

// checkGuardResolution verifies every //epi:guard lockpath still names a
// mutex that exists: the guard class must match a sync.Mutex/RWMutex
// field declared on some struct the program can see. Resolution is
// program-wide because guards can be BORROWED across packages —
// store.Item.selected is guarded by core.Replica's ctl, and the shard
// class "mu" lives on store.shard, not on Item itself. A guard that
// resolves nowhere is annotation drift: the lock was renamed or removed
// and the annotation lies.
func (prog *Program) checkGuardResolution(tab *annoTable, report func(*Package, token.Pos, string, ...any)) {
	// The three protocol classes are the analyzer's own lock vocabulary
	// (classifyLockCall recognizes them by name); they resolve even when
	// the declaring package is outside this run's load set — `epilint
	// ./internal/store/` must not flag the ctl borrowed from core.
	classes := map[string]bool{guardCtl: true, guardConf: true, guardShard: true}
	for _, perType := range prog.structMutexFields() {
		for class := range perType {
			classes[class] = true
		}
	}
	fsyms := make([]string, 0, len(tab.fields))
	for sym := range tab.fields {
		fsyms = append(fsyms, sym)
	}
	sort.Strings(fsyms)
	for _, sym := range fsyms {
		a := tab.fields[sym]
		if a.guard == "" || a.pkg == nil {
			continue
		}
		if !classes[a.guard] {
			report(a.pkg, a.pos, "//epi:guard %s on %s does not resolve: no mutex field of class %q declared anywhere in the program (annotation drift — was the lock renamed?)", a.guardPath, sym, a.guard)
		}
	}
}

// checkCoverage runs the annotation-coverage gate over the protocol
// packages (and any file carrying //epi:coverage): every field of a
// package-level struct must state its sharing discipline with exactly one
// of guard/atomic/immutable/notshared. Mutex fields and other sync
// primitives are self-describing and exempt.
func (prog *Program) checkCoverage(tab *annoTable, report func(*Package, token.Pos, string, ...any)) {
	for _, pkg := range prog.pkgs {
		gateAll := gatePackage(pkg.ImportPath)
		for _, f := range pkg.Files {
			if !gateAll && !fileOptsIntoGate(f) {
				continue
			}
			if strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					prog.gateStruct(pkg, tab, ts, report)
				}
			}
		}
	}
}

func fileOptsIntoGate(f *ast.File) bool {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if verb, _ := epiDirective(c); verb == "coverage" {
				return true
			}
		}
	}
	return false
}

func (prog *Program) gateStruct(pkg *Package, tab *annoTable, ts *ast.TypeSpec, report func(*Package, token.Pos, string, ...any)) {
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		return
	}
	obj := pkg.Info.Defs[ts.Name]
	if obj == nil {
		return
	}
	if _, exempt := tab.notSharedTypes[typeSymbol(obj)]; exempt {
		return
	}
	named, _ := obj.Type().(*types.Named)
	if named == nil {
		return
	}
	for _, field := range st.Fields.List {
		ft := pkg.Info.TypeOf(field.Type)
		if isSyncPrimitive(ft) {
			continue // self-describing: the mutex IS the synchronization
		}
		names := make([]string, 0, len(field.Names))
		for _, n := range field.Names {
			names = append(names, n.Name)
		}
		if len(field.Names) == 0 {
			if name := embeddedFieldName(field.Type); name != "" {
				names = append(names, name)
			}
		}
		for _, name := range names {
			a := tab.fields[fieldSymbol(named, name)]
			switch {
			case a == nil || a.coverageCount() == 0:
				report(pkg, field.Pos(), "field %s.%s of shared struct has no sharing annotation: add //epi:guard <lock>, //epi:guard atomic, //epi:immutable, or //epi:notshared <reason>", ts.Name.Name, name)
			case a.coverageCount() > 1:
				report(pkg, a.pos, "field %s.%s carries conflicting sharing annotations: guard, atomic, immutable and notshared are mutually exclusive", ts.Name.Name, name)
			}
		}
	}
}

// isSyncPrimitive exempts sync package types (and pointers to them) from
// the coverage gate: a Mutex, WaitGroup or Pool field is itself the
// synchronization, not data in need of one.
func isSyncPrimitive(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// fieldAccess is one observed access of an annotated field (or a call
// site owing a declared //epi:requires precondition — sel is nil then and
// owner carries the bound callee root). Keyed by AST node, not position:
// in r.a.b the outer and inner selectors share a Pos but are distinct
// accesses of distinct fields.
type fieldAccess struct {
	sym    string
	anno   *fieldAnno
	sel    *ast.SelectorExpr
	owner  types.Object
	write  bool
	viaMut string // witness when the write happens inside a mutating callee
	held   []heldLock
	pos    token.Pos
}

// analyzeGuardFn walks one function and returns its undischarged guard
// needs plus its call records; immutable/atomic-discipline violations are
// reported immediately (they do not depend on callers).
func (prog *Program) analyzeGuardFn(fi *funcInfo, tab *annoTable, lockSums map[string]*summary, fresh map[types.Object]bool, report func(*Package, token.Pos, string, ...any)) ([]guardNeed, []guardCall) {
	pass := prog.passes[fi.pkg]
	isInit := prog.fnIsInit(tab, fi)

	// Pre-scan: sync/atomic call arguments. Their &x.f operands are the
	// atomic discipline's sanctioned access form — excluded from the
	// plain-access walk, and checked here for the reverse mix (a
	// lock-guarded field fed to sync/atomic).
	atomicArgSels := map[*ast.SelectorExpr]bool{}
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isAtomicPkgCall(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			u, ok := unparen(arg).(*ast.UnaryExpr)
			if !ok || u.Op != token.AND {
				continue
			}
			sel, ok := unparen(u.X).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			atomicArgSels[sel] = true
			if sym, a := annotatedField(pass, sel, tab); a != nil && a.guard != "" {
				report(fi.pkg, sel.Pos(), "field %s is lock-guarded (//epi:guard %s) but accessed through sync/atomic: mixed discipline races against the plain accesses", sym, a.guardPath)
			}
		}
		return true
	})

	accesses := map[ast.Node]*fieldAccess{}
	recordSel := func(sel *ast.SelectorExpr, write bool, held []heldLock, viaMut string) {
		if atomicArgSels[sel] {
			return
		}
		sym, a := annotatedField(pass, sel, tab)
		if a == nil || a.notShared {
			return
		}
		acc := accesses[sel]
		if acc == nil {
			// Loops are walked twice; the first visit's (smaller) held set
			// is kept — conservative for the first iteration.
			acc = &fieldAccess{
				sym: sym, anno: a, sel: sel, pos: sel.Pos(),
				held: append([]heldLock(nil), held...),
			}
			accesses[sel] = acc
		}
		if write {
			acc.write = true
			if viaMut != "" {
				acc.viaMut = viaMut
			}
		}
	}

	var callRecs []guardCall
	w := &lockWalker{
		pass:                pass,
		trackOther:          true,
		litUnderCalleeLocks: true,
		initialHeld:         prog.requiresHeld(tab, fi),
	}
	w.resolve = prog.resolver(pass, lockSums)
	handleCall := func(call *ast.CallExpr, held []heldLock) {
		// The walker never descends into a call's Fun operand; the
		// receiver chain (r.logs in r.logs.TailAfter(...), including any
		// nested calls) is visited here instead.
		// A mutating call upgrades its receiver/argument field to a write —
		// but only for reference-VALUE fields (slices, maps, a vv.VV whose
		// backing array the callee scribbles on). Through a POINTER-typed
		// field (c.pool.Close()) the callee mutates the pointee, which has
		// its own discipline; the field itself is only read.
		fieldWriteThrough := func(e ast.Expr) bool {
			t := pass.TypeOf(e)
			if t == nil {
				return true
			}
			_, isPtr := t.Underlying().(*types.Pointer)
			return !isPtr
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			w.walkExpr(sel.X, &lockState{held: append([]heldLock(nil), held...)}, false)
			// Calling through a function-typed FIELD (r.onConflict(c)) reads
			// that field; annotatedField ignores method selections.
			recordSel(sel, false, held, "")
			if mutated, via := prog.callMutatesExpr(pass, call, sel.X); mutated && fieldWriteThrough(sel.X) {
				if rsel, isSel := unparen(sel.X).(*ast.SelectorExpr); isSel {
					recordSel(rsel, true, held, via)
				}
			}
		}
		// Arguments were walked (and recorded as reads); upgrade the ones
		// a callee summary mutates.
		for _, arg := range call.Args {
			stripped := stripAddr(unparen(arg))
			if asel, isSel := stripped.(*ast.SelectorExpr); isSel {
				if mutated, via := prog.callMutatesExpr(pass, call, stripped); mutated && fieldWriteThrough(stripped) {
					recordSel(asel, true, held, via)
				}
			}
		}
		callee := prog.lookup(pass, call)
		if callee == nil {
			return
		}
		calleeSym := symbolOf(callee.obj)
		callRecs = append(callRecs, guardCall{call: call, calleeSym: calleeSym, held: append([]heldLock(nil), held...)})
		// Declared //epi:requires preconditions are checked at every call
		// site immediately (they are contracts, not inferences).
		if fa := tab.funcs[calleeSym]; fa != nil && !isInit {
			for _, req := range fa.requires {
				slot := reqSlot(callee, req)
				boundObj := bindRoot(pass, call, slot)
				if boundObj != nil && fresh[boundObj] {
					continue
				}
				if ok, _ := heldSatisfies(held, req.class, !req.read, boundObj, prog.rootSensitive(req.class, boundObj)); !ok {
					// Reported through the needs machinery so unexported
					// callers propagate the obligation upward.
					desc := fmt.Sprintf("call to %s (//epi:requires %s)", callee.shortName(), req.class)
					if accesses[call] == nil {
						accesses[call] = &fieldAccess{
							sym: desc, owner: boundObj, write: !req.read, pos: call.Pos(),
							held: append([]heldLock(nil), held...),
							anno: &fieldAnno{guard: req.class, guardPath: req.class},
						}
					}
				}
			}
		}
	}
	w.onExpr = func(expr ast.Expr, held []heldLock) {
		switch e := expr.(type) {
		case *ast.SelectorExpr:
			recordSel(e, false, held, "")
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if sel, ok := unparen(e.X).(*ast.SelectorExpr); ok {
					// Taking the address hands out a mutable alias: treat
					// as a write unless it feeds sync/atomic.
					recordSel(sel, true, held, "")
				}
			}
		}
	}
	w.onAssign = func(stmt ast.Stmt, held []heldLock) {
		switch s := stmt.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if sel := baseSelector(lhs); sel != nil {
					recordSel(sel, true, held, "")
				}
			}
		case *ast.IncDecStmt:
			if sel := baseSelector(s.X); sel != nil {
				recordSel(sel, true, held, "")
			}
		}
	}
	w.onSummaryCall = func(call *ast.CallExpr, bs *boundSummary, held []heldLock) {
		handleCall(call, held)
	}
	w.onCall = func(call *ast.CallExpr, held []heldLock) {
		handleCall(call, held)
	}
	w.walkFunc(fi.decl.Body)

	// Classify the recorded accesses.
	var needs []guardNeed
	ordered := make([]*fieldAccess, 0, len(accesses))
	for _, acc := range accesses {
		ordered = append(ordered, acc)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].pos != ordered[j].pos {
			return ordered[i].pos < ordered[j].pos
		}
		return ordered[i].sym < ordered[j].sym
	})
	for _, acc := range ordered {
		if isInit {
			continue
		}
		ownerRoot := acc.owner
		if acc.sel != nil {
			ownerRoot = rootObjOf(pass, acc.sel.X)
			if ownerRoot != nil && fresh[ownerRoot] {
				continue // unpublished object: no other goroutine can see it
			}
		}
		a := acc.anno
		switch {
		case acc.sel != nil && a.immutable:
			if acc.write {
				report(fi.pkg, acc.pos, "write to //epi:immutable field %s outside its constructor: immutable fields are set before publication only (mark the function //epi:init <reason> if this is construction)", acc.sym)
			}
		case acc.sel != nil && a.atomic:
			// A basic-typed atomic field must never be touched plainly; an
			// atomic-container field (atomic.Uint64, a struct of them) is
			// selected plainly on the way to its methods, and only a direct
			// reassignment of the container itself races.
			if _, isBasic := pass.TypeOf(acc.sel).Underlying().(*types.Basic); isBasic {
				report(fi.pkg, acc.pos, "field %s is //epi:guard atomic but accessed plainly: every access must go through sync/atomic", acc.sym)
			} else if acc.write {
				report(fi.pkg, acc.pos, "atomic value field %s reassigned plainly: replacing an atomic container races against its users", acc.sym)
			}
		case a.guard != "":
			ok, ro := heldSatisfies(acc.held, a.guard, acc.write, ownerRoot, prog.rootSensitive(a.guard, ownerRoot))
			if ok {
				continue
			}
			desc := acc.sym
			if acc.sel != nil {
				verb := "read of"
				if acc.write {
					verb = "write to"
				}
				desc = fmt.Sprintf("%s field %s (//epi:guard %s)", verb, acc.sym, a.guardPath)
			}
			needs = append(needs, guardNeed{
				desc: desc, class: a.guard, write: acc.write,
				root: fi.rootIndexOf(ownerRoot), via: acc.viaMut,
				pos: acc.pos, readOnly: ro,
			})
		}
	}
	return needs, callRecs
}

// requiresHeld seeds the walker's entry lock state from the function's
// declared //epi:requires preconditions.
func (prog *Program) requiresHeld(tab *annoTable, fi *funcInfo) []heldLock {
	fa := tab.funcs[symbolOf(fi.obj)]
	if fa == nil {
		return nil
	}
	var held []heldLock
	for _, req := range fa.requires {
		h := heldLock{write: !req.read, idx: -1, pos: req.pos}
		switch req.class {
		case guardCtl:
			h.kind = lockCtl
		case guardConf:
			h.kind = lockConf
		case guardShard:
			h.kind = lockShardAll // broadest shard-class hold
		default:
			h.kind = lockOther
			h.key = req.class
		}
		h.root = reqRootObj(fi, req)
		held = append(held, h)
	}
	return held
}

// reqRootObj resolves a requires path's first element to the function's
// receiver or the named parameter ("" and the receiver's own name both
// mean the receiver).
func reqRootObj(fi *funcInfo, req reqAnno) types.Object {
	if req.root == "" {
		return fi.recvObj
	}
	if fi.recvObj != nil && fi.recvObj.Name() == req.root {
		return fi.recvObj
	}
	for _, p := range fi.paramObjs {
		if p != nil && p.Name() == req.root {
			return p
		}
	}
	return nil
}

// reqSlot abstracts the requires root into the callee's slot namespace
// for re-binding at a call site.
func reqSlot(fi *funcInfo, req reqAnno) int {
	return fi.rootIndexOf(reqRootObj(fi, req))
}

// heldSatisfies reports whether some held lock discharges a (class,
// write, owner) obligation. readHeld reports the near miss: the class was
// held, but only as a read lock when the exclusive lock was needed.
//
// rootSensitive controls the owner-identity comparison. When the object
// rooting the access is of a type that itself declares the guard mutex
// (r.dbvv under r's own ctl), the held lock must belong to that same
// object — this keeps "my ctl" and a peer replica's ctl distinct. When
// the guard is BORROWED — the field lives on a struct that does not
// declare the lock (store.Item.selected under core.Replica's ctl, shard
// items under a lock held via a *shard pointer) — no owner comparison is
// possible and the class alone vouches; see prog.rootSensitive.
func heldSatisfies(held []heldLock, class string, needWrite bool, root types.Object, rootSensitive bool) (ok, readHeld bool) {
	for _, h := range held {
		if !guardClassMatches(h, class) {
			continue
		}
		if rootSensitive && root != nil && h.root != nil && h.root != root {
			continue
		}
		if needWrite && !h.write {
			readHeld = true
			continue
		}
		return true, false
	}
	return false, readHeld
}

// structMutexFields indexes, per named struct type ("pkgpath.Type"), the
// guard classes of the mutex fields it declares.
func (prog *Program) structMutexFields() map[string]map[string]bool {
	if prog.structMu != nil {
		return prog.structMu
	}
	idx := map[string]map[string]bool{}
	for _, pkg := range prog.pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					obj := pkg.Info.Defs[ts.Name]
					if obj == nil {
						continue
					}
					key := typeSymbol(obj)
					for _, field := range st.Fields.List {
						if !isSyncMutex(pkg.Info.TypeOf(field.Type)) {
							continue
						}
						if idx[key] == nil {
							idx[key] = map[string]bool{}
						}
						for _, name := range field.Names {
							idx[key][normalizeGuardClass(name.Name)] = true
						}
						if len(field.Names) == 0 {
							idx[key][normalizeGuardClass(embeddedFieldName(field.Type))] = true
						}
					}
				}
			}
		}
	}
	prog.structMu = idx
	return idx
}

// rootSensitive decides whether the owner-identity check applies: only
// when the rooting object's type declares the guard class itself. The
// shard class is always insensitive — an Item cannot name the Store that
// owns its shard.
func (prog *Program) rootSensitive(class string, root types.Object) bool {
	if class == guardShard || root == nil {
		return false
	}
	t := root.Type()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return true
	}
	return prog.structMutexFields()[typeSymbol(named.Obj())][class]
}

func guardClassMatches(h heldLock, class string) bool {
	switch class {
	case guardCtl:
		return h.kind == lockCtl
	case guardConf:
		return h.kind == lockConf
	case guardShard:
		return h.kind == lockShard || h.kind == lockShardAll || (h.kind == lockOther && h.key == guardShard)
	default:
		return h.kind == lockOther && h.key == class
	}
}

// annotatedField resolves a selector to its annotated field, or nil. The
// owner is the struct that DECLARES the field (promoted fields resolve to
// the embedded struct), keyed program-wide like function symbols.
func annotatedField(pass *Pass, sel *ast.SelectorExpr, tab *annoTable) (string, *fieldAnno) {
	selection := pass.Info.Selections[sel]
	if selection == nil || selection.Kind() != types.FieldVal {
		return "", nil
	}
	t := selection.Recv()
	index := selection.Index()
	for i, fieldIdx := range index {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return "", nil
		}
		if fieldIdx >= st.NumFields() {
			return "", nil
		}
		f := st.Field(fieldIdx)
		if i == len(index)-1 {
			named, ok := t.(*types.Named)
			if !ok {
				return "", nil
			}
			sym := fieldSymbol(named, f.Name())
			if a := tab.fields[sym]; a != nil {
				return sym, a
			}
			if _, exempt := tab.notSharedTypes[typeSymbol(named.Obj())]; exempt {
				return "", nil
			}
			return sym, nil
		}
		t = f.Type()
	}
	return "", nil
}

// baseSelector unwraps an lvalue to the selector being stored through:
// x.f in x.f, x.f[k], *x.f, x.f[i].g is (x.f[i]).g — the deepest field
// selector governs the write.
func baseSelector(expr ast.Expr) *ast.SelectorExpr {
	for {
		switch e := expr.(type) {
		case *ast.SelectorExpr:
			return e
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// isAtomicPkgCall reports whether the call is a sync/atomic package
// function (atomic.AddUint64, atomic.LoadPointer, ...).
func isAtomicPkgCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkgName, ok := pass.Info.Uses[id].(*types.PkgName)
	return ok && pkgName.Imported().Path() == "sync/atomic"
}

// freshLocalSet collects the locals bound to freshly allocated values
// (composite literals, &composite, new(T)): until the function returns
// or stores them somewhere shared, no other goroutine can reach them, so
// their fields need no lock yet. The approximation is lexical —
// publication inside the same body (a store to a global, a goroutine
// capture) does not revoke freshness; constructors in this codebase
// publish by returning.
func freshLocalSet(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	if body == nil {
		return fresh
	}
	markFresh := func(id *ast.Ident, rhs ast.Expr) {
		if id == nil || id.Name == "_" {
			return
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			return
		}
		switch e := unparen(rhs).(type) {
		case *ast.CompositeLit:
			fresh[obj] = true
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if _, isLit := unparen(e.X).(*ast.CompositeLit); isLit {
					fresh[obj] = true
				}
			}
		case *ast.CallExpr:
			if fn, isIdent := e.Fun.(*ast.Ident); isIdent && fn.Name == "new" {
				fresh[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok != token.DEFINE || len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, lhs := range s.Lhs {
				id, _ := lhs.(*ast.Ident)
				markFresh(id, s.Rhs[i])
			}
		case *ast.ValueSpec:
			if len(s.Values) == len(s.Names) {
				for i, id := range s.Names {
					markFresh(id, s.Values[i])
				}
			} else if len(s.Values) == 0 && s.Type != nil {
				// var x T: zero value, unpublished.
				if _, isStruct := pass.Info.TypeOf(s.Type).Underlying().(*types.Struct); isStruct {
					for _, id := range s.Names {
						if obj := pass.Info.Defs[id]; obj != nil {
							fresh[obj] = true
						}
					}
				}
			}
		}
		return true
	})
	return fresh
}
