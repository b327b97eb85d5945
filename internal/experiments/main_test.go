package experiments

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package when its tests leave goroutines behind: Run
// must close every environment an experiment builds.
func TestMain(m *testing.M) { leakcheck.Main(m) }
