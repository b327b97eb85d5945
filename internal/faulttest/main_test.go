package faulttest

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package when its tests leave goroutines behind:
// every test closes the world its run returns.
func TestMain(m *testing.M) { leakcheck.Main(m) }
