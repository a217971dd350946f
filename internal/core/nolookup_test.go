package core

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// typeCheckCore parses and type-checks core's non-test files.
func typeCheckCore(t *testing.T) (*token.FileSet, []*ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("repro/internal/core", fset, files, info); err != nil {
		t.Fatal(err)
	}
	return fset, files, info
}

// TestNoKeyLookupOnTheLog holds core to the Fig. 1 structure: a record is
// reached from its item's P_j(x) pointer and an item from its record, so
// core's non-test code never asks a log component for a key (Lookup, the
// keyed Add), the source side of a session (BuildPropagation,
// PlanPropagation, StartChunkSession, ChunkSession.Next and their helpers)
// never looks an item up in the store, and the apply makes one store
// lookup per payload item and none per tail record, which points at its
// payload by position.
func TestNoKeyLookupOnTheLog(t *testing.T) {
	fset, files, info := typeCheckCore(t)
	// method names the called method "pkg.Type.Method", "" for anything else.
	method := func(call *ast.CallExpr) string {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return ""
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok {
			return ""
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return ""
		}
		rt := recv.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		named, ok := rt.(*types.Named)
		if !ok {
			return ""
		}
		return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + fn.Name()
	}
	storeLookups := map[string]bool{"store.Store.Get": true, "store.Store.Ensure": true, "store.Store.EnsureLean": true}
	sourceSide := map[string]bool{
		"BuildPropagation": true, "PlanPropagation": true, "StartChunkSession": true,
		"Next": true, "statusLocked": true, "payloadLocked": true, "reach": true,
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			lookups := 0
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch m := method(call); {
				case m == "logvec.Component.Lookup" || m == "logvec.Component.Add":
					t.Errorf("%s: %s calls %s: a log record is reached from its item", fset.Position(call.Pos()), fn.Name.Name, m)
				case storeLookups[m]:
					lookups++
					if sourceSide[fn.Name.Name] {
						t.Errorf("%s: %s calls %s: a record names its item", fset.Position(call.Pos()), fn.Name.Name, m)
					}
				}
				return true
			})
			if fn.Name.Name == "applySessionLocked" && lookups != 1 {
				t.Errorf("applySessionLocked makes %d store lookups, want 1: one per payload item, which its tail records reach by position", lookups)
			}
		}
	}
}

// TestNoSortInReconciliation holds reconciliation to its unsorted design:
// the summary is a slab in arrival order, a sketch or estimator is one
// pass over it, and a listing is checked key by key through the digest
// index, so reconcile.go and summary.go never call into package sort or
// the slices package's sorts and binary searches.
func TestNoSortInReconciliation(t *testing.T) {
	fset, files, info := typeCheckCore(t)
	for _, f := range files {
		if name := filepath.Base(fset.Position(f.Pos()).Filename); name != "reconcile.go" && name != "summary.go" {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				callee, ok := info.Uses[sel.Sel].(*types.Func)
				if !ok || callee.Pkg() == nil {
					return true
				}
				switch name := callee.Name(); callee.Pkg().Path() {
				case "sort":
					t.Errorf("%s: %s calls sort.%s", fset.Position(sel.Pos()), fn.Name.Name, name)
				case "slices":
					if strings.HasPrefix(name, "Sort") || strings.HasPrefix(name, "BinarySearch") {
						t.Errorf("%s: %s calls slices.%s", fset.Position(sel.Pos()), fn.Name.Name, name)
					}
				}
				return true
			})
		}
	}
}
