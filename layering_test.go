package repro

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

// TestOnlyHarnessesImportFault: the simulated system learns of a fault
// only through what the injector's fabric filter does to its messages,
// never by reading the injector's state. So among the production files
// under internal/, only the harnesses that drive faults — chaos,
// experiments and faulttest — may import internal/fault.
func TestOnlyHarnessesImportFault(t *testing.T) {
	harness := map[string]bool{"internal/chaos": true, "internal/experiments": true, "internal/faulttest": true}
	importers := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "repro/internal/fault" {
				importers[filepath.ToSlash(filepath.Dir(path))] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir := range importers {
		if !harness[dir] {
			t.Errorf("%s imports internal/fault; only chaos, experiments and faulttest may", dir)
		}
	}
	if !importers["internal/faulttest"] {
		t.Error("internal/faulttest does not import internal/fault: the scan is not seeing imports")
	}
}

// TestOnlyTheTransportTransmits: reliable.Transport.Post is the one path
// a VM's bytes take between, or within, its slices, so no production file
// outside the fabric itself (internal/topo) and the transport
// (internal/reliable) calls a Transmit method: a layer that charged the
// fabric on its own would bypass the transport's loopback, fault-free
// and acknowledged cases.
func TestOnlyTheTransportTransmits(t *testing.T) {
	allowed := map[string]bool{"internal/topo": true, "internal/reliable": true}
	callers := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		dir := filepath.ToSlash(filepath.Dir(path))
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Transmit" {
					callers[dir] = true
					if !allowed[dir] {
						t.Errorf("%s calls Transmit; only internal/topo and internal/reliable may", fset.Position(call.Pos()))
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !callers["internal/reliable"] {
		t.Error("internal/reliable does not call Transmit: the scan is not seeing calls")
	}
}
