package repro_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// gobAllowed names the one non-test file still permitted to import
// encoding/gob: the snapshot encoder. The wire protocol and the WAL have
// their own varint codecs, so gob must not creep back into either.
const gobAllowed = "internal/core/persist.go"

// TestGobConfinedToSnapshot fails if any non-test Go file other than the
// snapshot encoder imports encoding/gob. The bench/ module and testdata/
// fixtures are skipped: neither is part of the program.
func TestGobConfinedToSnapshot(t *testing.T) {
	fset := token.NewFileSet()
	var offenders []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "encoding/gob" && filepath.ToSlash(path) != gobAllowed {
				offenders = append(offenders, filepath.ToSlash(path))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range offenders {
		t.Errorf("%s imports encoding/gob; only %s may", path, gobAllowed)
	}
}
