package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// recorder is a testing.TB that keeps Check's error messages instead of
// failing the test that drives it.
type recorder struct {
	testing.TB
	errs []string
}

func (r *recorder) Helper()      {}
func (r *recorder) Name() string { return "TestX" }
func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func check(t *testing.T, path, got string) []string {
	t.Helper()
	r := &recorder{TB: t}
	Check(r, path, []byte(got))
	return r.errs
}

func TestMismatchNamesFileAndFirstLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "table.txt")
	if err := os.WriteFile(path, []byte("a\nb\nc\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if errs := check(t, path, "a\nb\nc\n"); len(errs) != 0 {
		t.Fatalf("equal output reported %v", errs)
	}
	for _, tc := range []struct {
		got, line, show string
	}{
		{"a\nB\nc\n", "line 2", `"B\n"`},
		{"a\nb\n", "line 3", "<end of file>"},
		{"a\nb\nc\nd\n", "line 4", `"d\n"`},
	} {
		errs := check(t, path, tc.got)
		if len(errs) != 1 {
			t.Fatalf("got %q: %d errors, want 1", tc.got, len(errs))
		}
		for _, want := range []string{path, tc.line, tc.show, "-update"} {
			if !strings.Contains(errs[0], want) {
				t.Errorf("got %q: message lacks %q:\n%s", tc.got, want, errs[0])
			}
		}
	}
}

func TestMissingGoldenSaysHowToCreateIt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "none.json")
	errs := check(t, path, "{}\n")
	if len(errs) != 1 {
		t.Fatalf("%d errors, want 1", len(errs))
	}
	for _, want := range []string{path, "go test -run 'TestX' -update", "create"} {
		if !strings.Contains(errs[0], want) {
			t.Errorf("message lacks %q:\n%s", want, errs[0])
		}
	}
}

func TestUpdateRewritesThenPasses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "out.txt")
	*update = true
	errs := check(t, path, "new\n")
	*update = false
	if len(errs) != 0 {
		t.Fatalf("-update reported %v", errs)
	}
	if errs := check(t, path, "new\n"); len(errs) != 0 {
		t.Fatalf("Check after -update reported %v", errs)
	}
	if errs := check(t, path, "old\n"); len(errs) != 1 {
		t.Fatalf("changed output after -update: %d errors, want 1", len(errs))
	}
}
