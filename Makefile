# Development targets for the FragVisor reproduction. `make check` is the
# pre-commit gate: formatting, vet, build, the full test suite under the
# race detector, a one-iteration pass over every Go benchmark, and the
# vet and tests of the nested perfbench module. Every determinism check
# (parallel sweeps and chaos searches byte-identical to sequential, traced
# runs, replayed artifacts) is a Go test, so `go test ./...` is the single
# determinism gate. Unit costs are `go test -bench`; end-to-end timing is
# perfbench (see "Performance tracking" in the README).

GO ?= go

.PHONY: check fmt vet build test race bench-smoke perfbench

check: fmt vet build race bench-smoke perfbench
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

bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# perfbench is a nested module, so ./... above never reaches it.
perfbench:
	cd perfbench && $(GO) vet . && $(GO) test .
