package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chaos"
)

// TestReplayRoundTrip drives the CLI's replay path end to end: a search
// with a seeded bug exports an artifact, and runReplay re-executes it
// byte-identically.
func TestReplayRoundTrip(t *testing.T) {
	cfg := chaos.Config{Episodes: 2, Seed: 2, Workloads: []string{chaos.WorkloadVM}, Hooks: chaos.Hooks{NoDedup: true}, ShrinkBudget: 20}
	rep := chaos.Search(cfg)
	if len(rep.Findings) == 0 {
		t.Fatal("seeded-bug search found nothing")
	}
	path := filepath.Join(t.TempDir(), "repro.json")
	art := rep.Findings[0].Artifact(cfg.Seed, cfg.Hooks)
	if err := os.WriteFile(path, art.JSON(), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := runReplay(path); code != 0 {
		t.Fatalf("runReplay = %d, want 0", code)
	}
}

// TestReplayRejectsGarbage: a malformed artifact fails cleanly.
func TestReplayRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := runReplay(path); code == 0 {
		t.Fatal("malformed artifact replayed successfully")
	}
	if code := runReplay(filepath.Join(t.TempDir(), "missing.json")); code == 0 {
		t.Fatal("missing artifact replayed successfully")
	}
}

// TestCheckFlags: the defaults pass, and every value that used to panic
// the search or turn each episode into a spurious finding is rejected
// before the search starts.
func TestCheckFlags(t *testing.T) {
	if err := checkFlags(64, 12, 0.02); err != nil {
		t.Fatalf("default flags rejected: %v", err)
	}
	for _, tc := range []struct {
		name      string
		episodes  int
		maxEvents int
		scale     float64
	}{
		{"-episodes -3", -3, 12, 0.02},
		{"-episodes 0", 0, 12, 0.02},
		{"-max-events -2", 64, -2, 0.02},
		{"-max-events 0", 64, 0, 0.02},
		{"-scale -1", 64, 12, -1},
		{"-scale 0", 64, 12, 0},
		{"-scale NaN", 64, 12, math.NaN()},
		{"-scale Inf", 64, 12, math.Inf(1)},
	} {
		if err := checkFlags(tc.episodes, tc.maxEvents, tc.scale); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}
