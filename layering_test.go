package repro

import (
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
