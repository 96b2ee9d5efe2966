package segdb

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	pathpkg "path"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneGoroutinePerCall guards the module's concurrency model: every
// query and every bulk build runs on the goroutine that called it. It
// parses every non-test Go file outside benchmark/ and fails on any go
// statement except the two that own whole independent units of work —
// the router's per-shard fan-out and the HTTP server's serve loop.
func TestOneGoroutinePerCall(t *testing.T) {
	allowed := map[string]bool{
		"internal/router/router.go:eachShard": false,
		"api/server.go:Server.Run":            false,
	}
	fset := token.NewFileSet()
	eachSource(t, fset, func(path string, f *ast.File) {
		for _, decl := range f.Decls {
			site := path + ":" + declName(decl)
			ast.Inspect(decl, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if _, ok := allowed[site]; ok {
					allowed[site] = true
				} else {
					t.Errorf("%s: go statement in %s; library calls run on their caller's goroutine", fset.Position(g.Pos()), site)
				}
				return true
			})
		}
	})
	for site, found := range allowed {
		if !found {
			t.Errorf("allowed go statement %s not found; update the allow list", site)
		}
	}
}

// TestOneLedger guards the single comparison ledger: segment and node
// comparisons are charged to the operation's obs.Op and nowhere else. An
// index package that imports sync/atomic is growing a shared counter
// beside the op, and an Op with atomic counters is paying for sharing
// that no operation does; either fails here.
func TestOneLedger(t *testing.T) {
	indexes := map[string]bool{
		"internal/rsearch": true, "internal/rstar": true, "internal/rplus": true,
		"internal/pmr": true, "internal/grid": true,
	}
	found := 0
	eachSource(t, token.NewFileSet(), func(path string, f *ast.File) {
		if !indexes[pathpkg.Dir(path)] && path != "internal/obs/obs.go" {
			return
		}
		found++
		for _, imp := range f.Imports {
			if imp.Path.Value == `"sync/atomic"` {
				t.Errorf("%s imports sync/atomic; charge comparisons to the operation's obs.Op", path)
			}
		}
	})
	if found == 0 {
		t.Fatal("no index or obs source found; update the package list")
	}
}

// eachSource parses every non-test Go file of the module outside
// benchmark/ and testdata directories and hands it to fn with its
// slash-separated path.
func eachSource(t *testing.T, fset *token.FileSet, fn func(path string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "benchmark") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		fn(path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// declName names a top-level declaration: Func, Type.Method, or "" for
// a var, const, type or import block.
func declName(decl ast.Decl) string {
	fn, ok := decl.(*ast.FuncDecl)
	if !ok {
		return ""
	}
	if fn.Recv == nil {
		return fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}
