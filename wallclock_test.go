package noftl

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestEngineReadsNoWallClock keeps the wall clock out of the engine: no
// non-test file under internal/ may refer to a function of package time
// that reads the host clock or waits on it.  Everything the engine orders
// or times runs on virtual time; only the two sites that report wall-clock
// figures next to the virtual ones are allowed.
func TestEngineReadsNoWallClock(t *testing.T) {
	allowed := map[string]bool{
		"internal/obs/obs.go":     true, // the Wall stamp on trace events
		"internal/tpcc/driver.go": true, // Result.WallTime and WallTPS
	}
	banned := map[string]bool{
		"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true,
		"AfterFunc": true, "NewTimer": true, "NewTicker": true, "Tick": true,
	}
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		path = filepath.ToSlash(path)
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		if allowed[path] {
			return nil
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p != "time" {
				continue
			}
			name := "time"
			if imp.Name != nil {
				name = imp.Name.Name
			}
			if name == "." {
				t.Errorf("%s: dot-imports package time", fset.Position(imp.Pos()))
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == name && banned[sel.Sel.Name] {
					t.Errorf("%s: time.%s uses the wall clock", fset.Position(sel.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no engine source files found under internal/")
	}
}
