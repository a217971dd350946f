package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// wirecheck: protocol-surface exhaustiveness. The wire protocol is at
// ~10 kinds and still growing (reconciliation and Byzantine-resilience
// work will add more); every kind that ships must carry four legs, and
// forgetting one is a silent interoperability or coverage hole that no
// test trips until a peer does. The analyzer discovers every package-
// level `Kind*` constant in the package that declares `AppendRequest`
// and verifies, for each:
//
//   - request kinds (declared with the named `Kind` type):
//     (1) an encoder leg — something constructs a request with it
//     (`Kind: KindX` or `.Kind = KindX`);
//     (2) a dispatch leg — a case clause or ==/!= comparison routes it
//     outside the codec functions;
//     (3) a fuzz leg — a `Fuzz*` driver references it (test files are
//     parsed on the side, since the loader builds non-test packages);
//     (4) codec/size symmetry — a kind-gated arm in any of
//     AppendRequest / DecodeRequest / RequestWireSize must appear in
//     all three, so encoding, decoding, and accounting never drift;
//
//   - frame kinds (untyped constants — the session framing):
//     a writer (`WriteFrame(…, KindX, …)`), a reader arm, a fuzz leg,
//     and the `Append<X>`/`Decode<X>` codec pair;
//
//   - retired request kinds (a `//epi:retired <reason>` line in the
//     constant's doc comment): the number stays reserved so old encodings
//     keep decoding, but nothing may ship it any more — no encoder leg, no
//     dispatch leg, no kind-gated codec arm — while a fuzz leg is still
//     required, since the decoders still meet it on the wire.
//
// A missing leg is reported at the constant's declaration, naming the
// kind and the absent leg; so is a leg a retired kind must not have.

// WireCheck is the protocol-surface exhaustiveness analyzer.
var WireCheck = &Analyzer{
	Name: "wirecheck",
	Doc: "every wire.Kind* constant carries its full protocol surface: encoder, " +
		"dispatch arm, Fuzz* driver membership, and AppendRequest/DecodeRequest/" +
		"RequestWireSize symmetry (writer/reader/codec-pair legs for untyped " +
		"session frame kinds)",
	Run: runWireCheck,
}

type wireKind struct {
	name    string
	typed   bool // carries the named Kind type → request kind
	retired bool // doc comment carries //epi:retired
	reason  string
	pos     token.Pos
}

// wireKindUses accumulates every way one kind constant is referenced
// across the whole program.
type wireKindUses struct {
	encode    bool
	dispatch  bool
	written   bool
	fuzz      bool
	codecArms map[string]bool // membership in the codec trio's bodies
}

var codecTrio = [...]string{"AppendRequest", "DecodeRequest", "RequestWireSize"}

func runWireCheck(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	// The protocol home is the package that declares AppendRequest; every
	// other package (transport's aliased constants included) is scanned
	// for uses but declares no surface of its own.
	if _, ok := pass.Pkg.Scope().Lookup("AppendRequest").(*types.Func); !ok {
		return
	}
	kinds := discoverWireKinds(pass.Pkg)
	if len(kinds) == 0 {
		return
	}
	markRetiredKinds(pass.Files, kinds)
	names := map[string]bool{}
	for _, k := range kinds {
		names[k.name] = true
	}

	uses := scanWireKindUses(pass.Prog, names)
	for name, ok := range testFuzzRefs(kindsDir(pass), names) {
		if ok {
			uses[name].fuzz = true
		}
	}

	for _, k := range kinds {
		u := uses[k.name]
		if k.retired {
			checkRetiredKind(pass, k, u)
			continue
		}
		if k.typed {
			if !u.encode {
				pass.Reportf(k.pos, "wire kind %s has no encoder leg: nothing constructs a request with Kind: %s", k.name, k.name)
			}
			if !u.dispatch {
				pass.Reportf(k.pos, "wire kind %s has no dispatch leg: no case or comparison routes it outside the codec", k.name)
			}
			if !u.fuzz {
				pass.Reportf(k.pos, "wire kind %s is not exercised by any Fuzz* driver", k.name)
			}
			if n := len(u.codecArms); n > 0 && n < len(codecTrio) {
				var present, missing []string
				for _, fn := range codecTrio {
					if u.codecArms[fn] {
						present = append(present, fn)
					} else {
						missing = append(missing, fn)
					}
				}
				pass.Reportf(k.pos, "wire kind %s: kind-gated codec arms out of sync: present in %s, missing from %s",
					k.name, strings.Join(present, "/"), strings.Join(missing, "/"))
			}
			continue
		}
		if !u.written {
			pass.Reportf(k.pos, "frame kind %s is never written: no WriteFrame call sends it", k.name)
		}
		if !u.dispatch {
			pass.Reportf(k.pos, "frame kind %s has no reader arm: no case or comparison consumes it", k.name)
		}
		if !u.fuzz {
			pass.Reportf(k.pos, "frame kind %s is not exercised by any Fuzz* driver", k.name)
		}
		suffix := strings.TrimPrefix(k.name, "Kind")
		var missing []string
		for _, half := range []string{"Append" + suffix, "Decode" + suffix} {
			if _, ok := pass.Pkg.Scope().Lookup(half).(*types.Func); !ok {
				missing = append(missing, half)
			}
		}
		if len(missing) > 0 {
			pass.Reportf(k.pos, "frame kind %s has no codec pair: missing %s", k.name, strings.Join(missing, "/"))
		}
	}
}

// checkRetiredKind reports every leg a retired kind still has, and a
// missing reason or fuzz leg.
func checkRetiredKind(pass *Pass, k wireKind, u *wireKindUses) {
	if !k.typed {
		pass.Reportf(k.pos, "retired wire kind %s is not a request kind: only Kind-typed constants can be retired", k.name)
		return
	}
	if k.reason == "" {
		pass.Reportf(k.pos, "//epi:retired needs a reason: say why %s keeps its number", k.name)
	}
	if u.encode {
		pass.Reportf(k.pos, "retired wire kind %s is still encoded: something constructs a request with Kind: %s", k.name, k.name)
	}
	if u.dispatch {
		pass.Reportf(k.pos, "retired wire kind %s is still dispatched: a case or comparison routes it outside the codec", k.name)
	}
	if len(u.codecArms) > 0 {
		pass.Reportf(k.pos, "retired wire kind %s still has kind-gated codec arms", k.name)
	}
	if !u.fuzz {
		pass.Reportf(k.pos, "wire kind %s is not exercised by any Fuzz* driver", k.name)
	}
}

// markRetiredKinds flags the kinds whose declaration's doc comment carries
// an //epi:retired directive, recording its reason.
func markRetiredKinds(files []*ast.File, kinds []wireKind) {
	byName := map[string]*wireKind{}
	for i := range kinds {
		byName[kinds[i].name] = &kinds[i]
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || vs.Doc == nil {
					continue
				}
				for _, c := range vs.Doc.List {
					for _, d := range epiDirectives(c) {
						if d.verb != "retired" {
							continue
						}
						for _, nm := range vs.Names {
							if k := byName[nm.Name]; k != nil {
								k.retired, k.reason = true, d.rest
							}
						}
					}
				}
			}
		}
	}
}

func discoverWireKinds(pkg *types.Package) []wireKind {
	scope := pkg.Scope()
	var kinds []wireKind
	for _, nm := range scope.Names() {
		if !strings.HasPrefix(nm, "Kind") || nm == "Kind" {
			continue
		}
		c, ok := scope.Lookup(nm).(*types.Const)
		if !ok {
			continue
		}
		typed := false
		if named, ok := c.Type().(*types.Named); ok && named.Obj().Name() == "Kind" {
			typed = true
		}
		kinds = append(kinds, wireKind{name: nm, typed: typed, pos: c.Pos()})
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i].pos < kinds[j].pos })
	return kinds
}

func kindsDir(pass *Pass) string {
	for _, pkg := range pass.Prog.pkgs {
		if pkg.Types == pass.Pkg {
			return pkg.Dir
		}
	}
	return ""
}

// kindRefName returns the Kind* constant an expression names, or "".
// Matching is by name, not object identity: transport re-declares the
// constants as aliases (`KindPropagation = wire.KindPropagation`) and
// typed/untyped kinds share raw values, so names are the one namespace
// the whole protocol agrees on.
func kindRefName(e ast.Expr, names map[string]bool) string {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		if names[e.Name] {
			return e.Name
		}
	case *ast.SelectorExpr:
		if names[e.Sel.Name] {
			return e.Sel.Name
		}
	}
	return ""
}

// scanWireKindUses classifies every reference to a kind constant across
// all loaded packages. Only function bodies are scanned, so the alias
// re-declarations in transport's const block never count as uses.
func scanWireKindUses(prog *Program, names map[string]bool) map[string]*wireKindUses {
	uses := map[string]*wireKindUses{}
	for nm := range names {
		uses[nm] = &wireKindUses{codecArms: map[string]bool{}}
	}
	codec := map[string]bool{}
	for _, fn := range codecTrio {
		codec[fn] = true
	}

	for _, pkg := range prog.pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fname := fd.Name.Name
				isFuzz := strings.HasPrefix(fname, "Fuzz")
				dispatchUse := func(nm string) {
					if isFuzz {
						return
					}
					if codec[fname] {
						uses[nm].codecArms[fname] = true
						return
					}
					if strings.HasPrefix(fname, "Append") || strings.HasPrefix(fname, "Decode") || strings.HasSuffix(fname, "WireSize") {
						return
					}
					uses[nm].dispatch = true
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						if isFuzz && names[n.Name] {
							uses[n.Name].fuzz = true
						}
					case *ast.KeyValueExpr:
						if key, ok := n.Key.(*ast.Ident); ok && key.Name == "Kind" {
							if nm := kindRefName(n.Value, names); nm != "" {
								uses[nm].encode = true
							}
						}
					case *ast.AssignStmt:
						for i, l := range n.Lhs {
							sel, ok := l.(*ast.SelectorExpr)
							if !ok || sel.Sel.Name != "Kind" || i >= len(n.Rhs) {
								continue
							}
							if nm := kindRefName(n.Rhs[i], names); nm != "" {
								uses[nm].encode = true
							}
						}
					case *ast.CaseClause:
						for _, e := range n.List {
							if nm := kindRefName(e, names); nm != "" {
								dispatchUse(nm)
							}
						}
					case *ast.BinaryExpr:
						if n.Op == token.EQL || n.Op == token.NEQ {
							for _, e := range []ast.Expr{n.X, n.Y} {
								if nm := kindRefName(e, names); nm != "" {
									dispatchUse(nm)
								}
							}
						}
					case *ast.CallExpr:
						var callee string
						switch fun := unparen(n.Fun).(type) {
						case *ast.Ident:
							callee = fun.Name
						case *ast.SelectorExpr:
							callee = fun.Sel.Name
						}
						if strings.Contains(callee, "WriteFrame") {
							for _, a := range n.Args {
								if nm := kindRefName(a, names); nm != "" {
									uses[nm].written = true
								}
							}
						}
					}
					return true
				})
			}
		}
	}

	return uses
}

// testFuzzRefs parses the protocol package's _test.go files (which the
// offline loader does not build) and records which kind names appear
// inside Fuzz* functions.
func testFuzzRefs(dir string, names map[string]bool) map[string]bool {
	refs := map[string]bool{}
	if dir == "" {
		return refs
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return refs
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !strings.HasPrefix(fd.Name.Name, "Fuzz") {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && names[id.Name] {
					refs[id.Name] = true
				}
				return true
			})
		}
	}
	return refs
}
