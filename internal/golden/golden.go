// Package golden compares test output with checked-in files under a
// package's testdata directory. Every table, event log, report and
// trace the repository prints is a pure function of its seed, so a
// golden file pins the bytes across commits: an intended output change
// shows up as a reviewed testdata diff, and an unintended one fails
// `go test`.
//
// Rewrite the goldens of the packages that have them with `make golden`
// (`go test -update` over exactly those packages).
package golden

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with this run's output")

// Check compares got byte for byte with the file at path and reports the
// first line that differs. Under -update it first rewrites the file
// (creating its directory), so the comparison passes.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Errorf("golden %s: %v (run `go test -run '%s' -update` to create it)", path, err, t.Name())
		return
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.SplitAfter(got, []byte("\n")), bytes.SplitAfter(want, []byte("\n"))
	i := 0
	for i < len(gl) && i < len(wl) && bytes.Equal(gl[i], wl[i]) {
		i++
	}
	t.Errorf("output differs from golden %s at line %d (%d vs %d bytes)\n got: %q\nwant: %q\n"+
		"rerun with -update if the change is intended, and review the testdata diff",
		path, i+1, len(got), len(want), line(gl, i), line(wl, i))
}

// line returns lines[i], or a marker once the file has ended (SplitAfter
// leaves an empty last element after a final newline).
func line(lines [][]byte, i int) string {
	if i >= len(lines) || len(lines[i]) == 0 {
		return "<end of file>"
	}
	return string(lines[i])
}
