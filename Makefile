# Development targets for the FragVisor reproduction. `make check` is the
# pre-commit gate: formatting, vet, build, the full test suite under the
# race detector, the environment-lifecycle tests repeated under it, a
# one-iteration pass over every Go benchmark, and the vet and tests of
# the nested perfbench module. Every determinism check is
# a Go test, so `go test ./...` is the single determinism gate: each
# figure table, fleet event log, fault-run metrics, chaos report, trace
# and CLI/example stdout is compared with a checked-in golden under its
# package's testdata, and parallel sweeps and chaos searches must match
# sequential ones. `make golden` rewrites the goldens after an intended
# output change; review the testdata diff before committing it. Unit
# costs are `go test -bench`; end-to-end timing is perfbench (see
# "Performance tracking" in the README).

GO ?= go

.PHONY: check fmt vet build test race leak-race bench-smoke perfbench golden

check: fmt vet build race leak-race bench-smoke perfbench
	@echo "check: all gates passed"

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt: files need formatting:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# leak-race repeats the sim.Env.Close tests and a parallel chaos search
# and sweep ten times under the race detector: the pool's workers close
# their episodes' environments concurrently, and the chaos package's
# TestMain fails the run if any goroutine outlives them.
leak-race:
	$(GO) test -race -count=10 -run 'Close|WorkersAreReused|Goexit' ./internal/sim ./internal/trace
	$(GO) test -race -count=10 -run 'TestSearchDeterministicAcrossParallelism|TestRepeatedParallelSweepIdentical' ./internal/chaos ./internal/sweep

bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# golden runs -update over exactly the packages whose tests import
# internal/golden: only their test binaries define the flag, so a bare
# `go test ./... -update` fails.
golden:
	$(GO) test $(sort $(dir $(shell grep -rl --include='*_test.go' '"repro/internal/golden"' .))) -update

# perfbench is a nested module, so ./... above never reaches it.
perfbench:
	cd perfbench && $(GO) vet . && $(GO) test .
