package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// sessionDecisions names each decision of an update-propagation session
// and how to find it in a function body. Each must be written in exactly
// one non-test function (the session driver in internal/core and its
// LocalPeer), so the in-process harnesses and a cluster node run the same
// code.
var sessionDecisions = map[string]func(body *ast.BlockStmt) bool{
	// divert a pull whose DBVV predates the pruned watermark
	"NeedsReconcile call": func(body *ast.BlockStmt) bool { return calls(body, "NeedsReconcile") },
	// plan a payload against the inline cap
	"PlanPropagation call": func(body *ast.BlockStmt) bool { return calls(body, "PlanPropagation") },
	// the bounded second-round re-probe of a delta-mode commit
	"NeedFull re-probe loop": func(body *ast.BlockStmt) bool {
		found := false
		ast.Inspect(body, func(n ast.Node) bool {
			if loop, ok := n.(*ast.ForStmt); ok && calls(loop.Body, "NeedFull") {
				found = true
			}
			if loop, ok := n.(*ast.RangeStmt); ok && calls(loop.Body, "NeedFull") {
				found = true
			}
			return !found
		})
		return found
	},
	// the reconciliation's batched fetch of its difference
	"ReconcileFetchBatch slicing": func(body *ast.BlockStmt) bool { return names(body, "ReconcileFetchBatch") },
}

// sessionNonDecisions names what no non-test function may write: a session
// takes one path whatever its sink stores, so nothing branches on the
// concrete type of a Sink.
var sessionNonDecisions = map[string]func(body *ast.BlockStmt) bool{
	"type assertion or type switch naming memSink": func(body *ast.BlockStmt) bool {
		found := false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeAssertExpr:
				found = found || n.Type != nil && names(n.Type, "memSink")
			case *ast.TypeSwitchStmt:
				for _, clause := range n.Body.List {
					for _, typ := range clause.(*ast.CaseClause).List {
						found = found || names(typ, "memSink")
					}
				}
			}
			return !found
		})
		return found
	},
}

// calls reports whether n calls a function or method named name.
func calls(n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			switch fn := call.Fun.(type) {
			case *ast.Ident:
				found = found || fn.Name == name
			case *ast.SelectorExpr:
				found = found || fn.Sel.Name == name
			}
		}
		return !found
	})
	return found
}

// names reports whether n refers to an identifier called name.
func names(n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// TestSessionDecisionsWrittenOnce fails when a session decision gains a
// second non-test home, or a branch on a sink's type gains any: every
// pull, in process or over TCP, goes through core.Pull over a Peer. The
// bench/ module and tests are outside the rule.
func TestSessionDecisionsWrittenOnce(t *testing.T) {
	homes := map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != "." && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name := filepath.ToSlash(filepath.Dir(p)) + "." + fn.Name.Name
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					name = filepath.ToSlash(filepath.Dir(p)) + "." + id.Name + "." + fn.Name.Name
				}
			}
			for decision, in := range sessionDecisions {
				if in(fn.Body) {
					homes[decision] = append(homes[decision], name)
				}
			}
			for branch, in := range sessionNonDecisions {
				if in(fn.Body) {
					homes[branch] = append(homes[branch], name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for decision := range sessionDecisions {
		fns := homes[decision]
		sort.Strings(fns)
		if len(fns) != 1 {
			t.Errorf("%s lives in %d non-test functions %v, want 1", decision, len(fns), fns)
		}
	}
	for branch := range sessionNonDecisions {
		if fns := homes[branch]; len(fns) > 0 {
			sort.Strings(fns)
			t.Errorf("%s in non-test functions %v, want none", branch, fns)
		}
	}
}
