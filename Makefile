# Development targets for the FragVisor reproduction. `make check` is the
# pre-commit gate: formatting, vet, build, the full test suite under the
# race detector, a one-iteration benchmark smoke pass, and a one-pass perf
# snapshot. Every determinism check (parallel sweeps and chaos searches
# byte-identical to sequential, traced runs, replayed artifacts) is a Go
# test, so `go test ./...` is the single determinism gate.

GO ?= go

.PHONY: check check-race fmt vet build test race bench-smoke bench-json perf-smoke

check: fmt vet build race bench-smoke perf-smoke
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

# Uncached full-suite race pass; the dedicated CI race job runs this.
check-race:
	$(GO) test -race -count=1 ./...

bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Full perf snapshot: microbenchmarks at BENCHTIME each, the figure
# suite, a >10^6-event fleet soak with a steady-state heap assertion, and
# a parallel-sweep scaling benchmark. Regenerates BENCH_pr10.json; see
# "Performance tracking" in the README.
BENCHTIME ?= 1s
BENCHOUT ?= BENCH_pr10.json
bench-json:
	$(GO) run ./cmd/fragperf -benchtime $(BENCHTIME) -out $(BENCHOUT)

# One-pass fragperf smoke with a shrunken soak: the CI perf gate. Still
# fails if the soak heap is not steady.
perf-smoke:
	$(GO) run ./cmd/fragperf -quick -out /tmp/fragperf-smoke.json
