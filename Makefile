# Tier-1 gate for this repository: everything `make check` runs must stay
# green. CI and contributors use the same entry points.

GO ?= go

.PHONY: check vet build test race test-all bench bench-check fuzz-wire lint

## check: the documented tier-1 + race gate (vet, build, race on the
## concurrent packages, the full test suite, then the static-analysis
## gate).
check: vet build race test-all lint

## vet: the toolchain's standard passes. unusedwrite is not among them —
## it lives in golang.org/x/tools, which the hermetic build cannot
## download — so the unusedwrite coverage comes from epilint's
## reimplementation in `make lint` instead.
vet:
	$(GO) vet ./...

## lint: build and run epilint — the protocol analyzers (lockorder and
## ctlheld interprocedural via lockset summaries, vvalias, atomiccounter,
## poolsafe buffer-ownership tracking, wirecheck protocol-surface
## exhaustiveness, guarded field-granular lock-guard verification with
## its annotation-coverage gate, monocheck monotone protocol state) plus
## the lite standard passes — over the whole repository, with the
## hotalloc escape/inlining/annotation-drift gate on //epi:hotpath
## functions and the sharing-annotation escape ratchet against
## internal/lint/annotations.baseline. See DESIGN.md §4d/§4e/§4i/§4j.
lint:
	$(GO) run ./cmd/epilint -hotpath -annotations ./...

build:
	$(GO) build ./...

## race: the concurrency-heavy packages (protocol core with the sharded
## data plane, simulator, TCP transport pool, live cluster,
## durable log) under the race detector.
race:
	$(GO) test -race ./internal/core/... ./internal/sim/... ./internal/transport/... ./internal/cluster/... ./internal/durable/...

test-all:
	$(GO) test ./...

## bench: smoke run of the experiment benchmarks — the parallel read /
## propagation benchmark (E16), the propagation builders, and the pooled
## transport round trip (E15). 100 iterations each: checks they run, not
## their timing.
bench:
	$(GO) test -run=NONE -bench='BenchmarkParallelReadUpdate|BenchmarkBuildPropagation|BenchmarkApplyPropagation' -benchtime=100x ./internal/core
	$(GO) test -run=NONE -bench=BenchmarkTransportRoundTrip -benchtime=100x -benchmem ./internal/transport

## bench-check: vet and test the live-cluster benchmark under bench/. It
## is its own Go module, so `go test ./...` at the root never reaches it.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

## fuzz-wire: short fuzz pass over the wire codec decoders. The session
## and reconcile targets start from the committed seed corpora under
## internal/wire/testdata/fuzz/; new crashers land beside them and CI
## uploads them as artifacts.
fuzz-wire:
	$(GO) test -run=NONE -fuzz=FuzzDecodeVV -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzDecodeRequest -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzDecodeResponse -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzDecodePropagation -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzSessionFrames -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzDecodeReconcileFrames -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzDecodeWALRecord -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzRecovery -fuzztime=10s ./internal/wal
