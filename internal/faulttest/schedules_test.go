package faulttest_test

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/chaos"
	"repro/internal/fault"
	"repro/internal/faulttest"
	"repro/internal/golden"
	"repro/internal/sim"
)

// These tests draw their fault schedules from the chaos grammar's
// vm-recovery productions, the generator the chaos search explores,
// under the harness's safety constraints: node 0 never crashes,
// partitions always heal, and each lender crashes at most once.

// vmEpisodes returns the first eight vm-recovery episodes of a root seed.
func vmEpisodes(seed int64) []chaos.Episode {
	return chaos.Generate(chaos.Config{Seed: seed, Episodes: 8, Workloads: []string{chaos.WorkloadVM}})
}

// runEpisode runs one episode on the harness's default flat fabric with
// checkpoint-restart recovery, under the chaos search's 250ms watchdog,
// so a wedged run fails as a stall instead of hanging the test.
func runEpisode(ep chaos.Episode) *faulttest.Result {
	return faulttest.Run(faulttest.Scenario{
		Seed:       ep.Seed,
		Scale:      ep.Scale,
		Schedule:   ep.Schedule,
		Checkpoint: true,
		Watchdog:   250 * sim.Millisecond,
	})
}

// TestMessageFaultSchedules: drop, delay and duplicate storms, healed
// partitions and CPU, disk and link degradations, with no crash, must
// never wedge the stack, break coherence or change the pattern, even
// when a storm gets a live lender declared dead.
func TestMessageFaultSchedules(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			for _, ep := range vmEpisodes(seed) {
				if ep.Schedule.Count(fault.CrashNode) > 0 {
					continue
				}
				res := runEpisode(ep)
				if !res.Ok() || !res.PatternChecked {
					t.Errorf("%s failed under schedule:\n%s\nresult:\n%s", ep, ep.Schedule.String(), res.Metrics())
				}
				res.Close()
			}
		})
	}
}

// TestRandomCrashSchedules: the full fault mix with one or two lender
// crashes, with checkpointing. Every crashed lender must be declared
// dead, and every run must recover to byte-identical memory.
func TestRandomCrashSchedules(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			for _, ep := range vmEpisodes(seed) {
				if ep.Schedule.Count(fault.CrashNode) == 0 {
					continue
				}
				res := runEpisode(ep)
				if !res.Ok() {
					t.Errorf("%s failed under schedule:\n%s\nresult:\n%s", ep, ep.Schedule.String(), res.Metrics())
				}
				for _, e := range ep.Schedule.Events {
					if e.Kind == fault.CrashNode && !slices.Contains(res.DeadAt, e.Node) {
						t.Errorf("%s: crash of node %d never declared (dead=%v)", ep, e.Node, res.DeadAt)
					}
				}
				res.Close()
			}
		})
	}
}

// TestSchedulesDrawEveryFaultKind: the episodes the two tests above run
// for root seed 1 cover every node, message and degradation fault a VM
// schedule may carry.
func TestSchedulesDrawEveryFaultKind(t *testing.T) {
	drawn := map[fault.Kind]bool{}
	for _, ep := range vmEpisodes(1) {
		for _, e := range ep.Schedule.Events {
			drawn[e.Kind] = true
		}
	}
	for _, k := range []fault.Kind{
		fault.CrashNode, fault.Partition, fault.HealPartition,
		fault.DropMessages, fault.DelayMessages, fault.DupMessages,
		fault.DegradeCPU, fault.HealCPU, fault.DegradeDisk, fault.HealDisk,
		fault.DegradeLink, fault.HealLink,
	} {
		if !drawn[k] {
			t.Errorf("no seed-1 episode draws %v", k)
		}
	}
}

// TestDeterministicUnderFaults pins the metrics rendering of root seed
// 1's episode 5 (a crash, a drop storm, duplicates, two healed
// partitions, CPU and spine degradations, with checkpoint restart) to
// testdata/vm_seed1_ep5_metrics.txt.
func TestDeterministicUnderFaults(t *testing.T) {
	ep := vmEpisodes(1)[5]
	res := runEpisode(ep)
	defer res.Close()
	golden.Check(t, filepath.Join("testdata", "vm_seed1_ep5_metrics.txt"), []byte(res.Metrics()))
}
