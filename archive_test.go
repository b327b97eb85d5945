package repro

import (
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestArchiveListsEveryExperiment: experiments_output.txt is the verbatim
// stdout of `fragbench -fig all -scale 0.1 -seed 42`, the measured side
// of EXPERIMENTS.md's comparison with the paper. Its [name] headers must
// be experiments.Names(), in order, so an experiment added, renamed or
// removed without regenerating the archive fails here. It checks the
// names only; the tables are not rerun.
func TestArchiveListsEveryExperiment(t *testing.T) {
	data, err := os.ReadFile("experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "["); ok && strings.HasSuffix(name, "]") {
			got = append(got, strings.TrimSuffix(name, "]"))
		}
	}
	if want := experiments.Names(); !slices.Equal(got, want) {
		t.Errorf("experiments_output.txt has sections %v, want experiments.Names() %v; regenerate it with `go run ./cmd/fragbench -fig all -scale 0.1 -seed 42 > experiments_output.txt`", got, want)
	}
}
