package core

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoKeyLookupOnTheLog holds core to the Fig. 1 structure: a record is
// reached from its item's P_j(x) pointer and an item from its record, so
// core's non-test code never asks a log component for a key (Lookup, the
// keyed Add), the source side of a session (BuildPropagation,
// PlanPropagation, StartChunkSession, ChunkSession.Next and its helpers)
// never looks an item up in the store, and the apply makes one store
// lookup per payload item and one per tail record.
func TestNoKeyLookupOnTheLog(t *testing.T) {
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
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, p, src, 0)
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
		"Next": true, "statusLocked": true, "payloadLocked": true,
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
			if fn.Name.Name == "applySessionLocked" && lookups != 2 {
				t.Errorf("applySessionLocked makes %d store lookups, want 2: one per payload item, one per tail record", lookups)
			}
		}
	}
}
