// Package repro is a from-scratch Go reproduction of "Aggregate VM: Why
// Reduce or Evict VM's Resources When You Can Borrow Them From Other
// Nodes?" (EuroSys '23): the FragVisor resource-borrowing distributed
// hypervisor, its GiantVM and overcommitment baselines, the paper's
// workloads, and a benchmark per evaluation figure.
//
// The public API lives in package repro/fragvisor; the benchmarks in this
// package (bench_test.go) regenerate each figure. Every experiment can
// also run under the causal tracer (internal/trace, fragbench -trace),
// which attributes end-to-end time to compute / DSM wait / network /
// queueing and exports Chrome trace-event files. See README.md,
// DESIGN.md, and EXPERIMENTS.md.
package repro
