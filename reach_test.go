package repro_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unreachedAllowed names the internal packages that may stay unreached by
// any cmd/ program or outside test, one reason each. Delete an entry when
// its package gets wired in or deleted; the test fails on a stale entry.
var unreachedAllowed = map[string]string{
	"internal/history": "the §2.1 oracle; M(1) wires it in",
	"internal/session": "only examples/sessions; P(2)",
}

// forbiddenImports pins layering the package graph must keep: durable
// replicas are pull sinks, so the durable layer must not drive a pull.
var forbiddenImports = map[string]string{
	"internal/durable": "internal/transport",
}

// TestPackagesReached fails when an internal package is reached neither
// from a cmd/ program nor from a test outside the package: code nothing
// runs. Reach follows non-test imports transitively. Imports are parsed
// with go/parser; the bench/ module, examples and testdata are not roots.
func TestPackagesReached(t *testing.T) {
	imports := map[string][]string{} // package dir -> non-test imports
	hasCode := map[string]bool{}     // package dirs with a non-test file
	var roots []string
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
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		dir := path.Dir(filepath.ToSlash(p))
		isTest := strings.HasSuffix(p, "_test.go")
		hasCode[dir] = hasCode[dir] || !isTest
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			dep, ok := strings.CutPrefix(ip, "repro/")
			if !ok || dep == dir {
				continue
			}
			if isTest || strings.HasPrefix(dir, "cmd/") {
				roots = append(roots, dep)
			}
			if !isTest {
				imports[dir] = append(imports[dir], dep)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	reached := map[string]bool{}
	for len(roots) > 0 {
		p := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if !reached[p] {
			reached[p] = true
			roots = append(roots, imports[p]...)
		}
	}
	var pkgs []string
	for dir, code := range hasCode {
		if code && strings.HasPrefix(dir, "internal/") {
			pkgs = append(pkgs, dir)
		}
	}
	sort.Strings(pkgs)
	for _, dir := range pkgs {
		_, allowed := unreachedAllowed[dir]
		switch {
		case !reached[dir] && !allowed:
			t.Errorf("%s is reached by no cmd/ program and no outside test: delete it, or allowlist it with a reason", dir)
		case reached[dir] && allowed:
			t.Errorf("%s is reached now: drop its unreachedAllowed entry", dir)
		}
		if dep, ok := forbiddenImports[dir]; ok && slices.Contains(imports[dir], dep) {
			t.Errorf("%s imports %s", dir, dep)
		}
	}
}
