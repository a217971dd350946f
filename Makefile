# Tier-1 gate for this repository: everything `make check` runs must stay
# green. CI and contributors use the same entry points.

GO ?= go

.PHONY: check vet build test race test-all bench bench-check fuzz-wire lint

## check: the documented tier-1 + race gate (vet, build, race on the
## concurrent packages, the full test suite, the static-analysis gate,
## then the benchmark module, which compiles against the system's
## internal APIs, so that an API change breaks it here and not only in
## CI's separate step).
check: vet build race test-all lint bench-check

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
## propagation benchmark (E16), the propagation builders, the pooled
## transport round trip (E15), the reconciliation session with its
## maintained summary (E19), the in-process streamed catch-up into a
## volatile and into a durable recipient, one durable checkpoint after
## 1 024 updates at N = 20 000 and 200 000, and the per-update cost up to
## N = 100 000. 100 iterations each (10 for the reconciliation, whose
## largest row holds 200 000 items, and 3 for each catch-up, 20 000
## rewrites each): checks they run, not their timing.
bench:
	$(GO) test -run=NONE -bench='BenchmarkParallelReadUpdate|BenchmarkBuildPropagation|BenchmarkApplyPropagation' -benchtime=100x ./internal/core
	$(GO) test -run=NONE -bench=BenchmarkReconcileSession -benchtime=10x ./internal/core
	$(GO) test -run=NONE -bench=BenchmarkStreamCatchUp -benchtime=3x ./internal/core
	$(GO) test -run=NONE -bench=BenchmarkDurableStreamCatchUp -benchtime=3x ./internal/durable
	$(GO) test -run=NONE -bench=BenchmarkCheckpoint -benchtime=3x ./internal/durable
	$(GO) test -run=NONE -bench='BenchmarkUpdate$$' -benchtime=100x .
	$(GO) test -run=NONE -bench=BenchmarkTransportRoundTrip -benchtime=100x -benchmem ./internal/transport

## bench-check: vet and test the live-cluster benchmark under bench/. It
## is its own Go module, so `go test ./...` at the root never reaches it.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

## fuzz-wire: short fuzz pass over the wire codec decoders (the
## checkpoint file decoder among them), and over
## ServeReconcile fed decoded stamped and sketched ranges. The session and
## reconcile targets start from the committed seed corpora under
## internal/wire/testdata/fuzz/; new crashers land beside them and CI
## uploads them as artifacts.
fuzz-wire:
	$(GO) test -run=NONE -fuzz=FuzzDecodeVV -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzDecodeRequest -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzDecodeResponse -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzDecodePropagation -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzSessionFrames -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzDecodeReconcileFrames -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzServeReconcile -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzDecodeWALRecord -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzDecodeCheckpoint -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzRecovery -fuzztime=10s ./internal/wal
