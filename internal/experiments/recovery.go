package experiments

import (
	"repro/internal/fault"
	"repro/internal/faulttest"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func init() { register("recovery", Recovery) }

// Recovery measures FragVisor's failure path end to end: a lender slice
// fail-stops mid-workload and the VM restarts on the survivors from a
// distributed checkpoint (§6.4). For growing guest datasets it reports
// the checkpoint cost, the heartbeat detection latency (two missed 2 ms
// probes), the checkpoint-restore time, and the total crash-to-recovered
// time. Expected shape: detection is constant (the second probe tick
// after the crash, 1–2 heartbeat intervals later);
// restore — and with it total recovery — scales linearly with dataset
// size, governed by the checkpoint node's 500 MB/s SSD, mirroring the
// checkpoint study of §7.1 in reverse.
func Recovery(o Options) *metrics.Table {
	t := metrics.NewTable("Recovery: lender crash, checkpoint restart on survivors",
		"dataset_mb", "ckpt_mb", "ckpt_time", "detect", "restore", "recover")
	crashAt := 5 * sim.Millisecond
	for _, mb := range []int64{128, 512, 2048} {
		var sched fault.Schedule
		sched.Add(fault.Event{At: crashAt, Kind: fault.CrashNode, Node: 2})
		res := faulttest.Run(faulttest.Scenario{
			Seed:         o.Seed,
			Schedule:     sched,
			Checkpoint:   true,
			DatasetBytes: int64(float64(mb<<20) * o.Scale),
		})
		res.Close()
		if !res.Ok() || len(res.Recovered) != 1 {
			panic("experiments: recovery scenario failed:\n" + res.Metrics())
		}
		t.AddRow(
			float64(mb)*o.Scale,
			float64(res.CheckpointBytes)/float64(1<<20),
			res.CheckpointTime,
			res.Detected[0]-crashAt,
			res.Restores[0],
			res.Recovered[0]-crashAt)
	}
	t.AddNote("detection is 1-2 heartbeat intervals (the second missed probe); restore scales with dataset size at the checkpoint node's SSD bandwidth")
	return t
}
