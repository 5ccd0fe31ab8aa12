# Development targets. CI (.github/workflows/ci.yml) runs `make check`.

GO ?= go

.PHONY: check fmt vet build test test-short race examples bench bench-test manetbench golden golden-update scale scale-update alloc alloc-update serve-smoke trace-smoke fuzz lint lint-external reprolint clean

check: fmt vet build test

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; \
	fi

# bench/ is its own module, outside ./...: vetting it here keeps
# `make check` compiling manetbench against this module's API.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# Run every program under examples/: `go build ./...` only compiles them.
# Fails on the first example that exits non-zero.
examples:
	@for d in examples/*/; do d=$${d%/}; \
		echo "go run ./$$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# manetbench (bench/README.md) is its own module, outside ./...:
# `make bench-test` runs its tests, `make manetbench` runs every workload
# once and appends the host-stamped results to $(OUT). To judge a change,
# collect runs of both commits into two files and run
# `bash bench/run.sh compare parent.jsonl change.jsonl`.
OUT ?= manetbench.jsonl

bench-test:
	cd bench && $(GO) test ./...

manetbench:
	bash bench/run.sh -workload all -out $(OUT)

# Golden regression corpus: every scenario preset's metrics digest is
# pinned under testdata/golden/ (see golden_test.go), and the paper's
# figures and extension sweeps under testdata/paper/ (the paper_test.go
# files of cmd/trustlab and cmd/idsbench). `make golden` verifies, `make
# golden-update` re-records after an intentional change.
golden:
	$(GO) test -run TestGoldenCorpus -count=1 .
	$(GO) test -run 'TestPaper' -count=1 ./cmd/trustlab ./cmd/idsbench

golden-update:
	$(GO) test -run TestGoldenCorpus -update-golden -count=1 .
	$(GO) test -count=1 ./cmd/trustlab ./cmd/idsbench -run 'TestPaper' -update-golden

# Large-N golden matrix: the scale presets (200/500 nodes) under both
# radio.medium settings — the grid and its one-cell case, the same medium
# code with a different cell side — at workers 1 and 8 (see
# golden_scale_test.go).
# Minutes of simulation — CI runs it in the separate `scale` job, never
# in the main test job.
scale:
	REPRO_SCALE=1 $(GO) test -run TestGoldenScale -count=1 -timeout 40m .

scale-update:
	REPRO_SCALE=1 $(GO) test -run TestGoldenScale -update-golden -count=1 -timeout 40m .

# Allocation-regression tier (DESIGN.md §10): AllocsPerRun ceilings on
# the hot functions plus whole-preset budgets gated ±10% against
# testdata/alloc_budget.json. `make alloc-update` re-records the budget
# after an intentional change.
alloc:
	$(GO) test -run 'TestAlloc' -count=1 ./...

alloc-update:
	$(GO) test -run 'TestAllocBudget' -update-alloc-budget -count=1 .

# Campaign-service smoke (scripts/serve_smoke.sh): boot cmd/manetd,
# submit the baseline preset over HTTP, assert the digest against the
# golden corpus and the /metrics counters, then SIGTERM and require a
# clean drain. CI runs it as the serve-smoke job.
serve-smoke:
	./scripts/serve_smoke.sh

# Run-trace plane smoke (scripts/trace_smoke.sh): trace a preset twice
# with the same seed and require `reprotrace diff` to find zero
# divergences, reseed and require a reported first divergence, then
# require `reprotrace stats` to parse the trace. CI runs it as the
# trace-smoke job.
trace-smoke:
	./scripts/trace_smoke.sh

# Short local fuzz pass over the codecs, the proof verifier, the partial
# reseal of a rewrite, the ctrl envelope scratch decode and verification memo,
# OLSR's packet handling and duplicate set, the radio medium against its
# brute-force oracle, and the event kernel and signature matcher against
# their references (CI runs the same budget per target).
fuzz:
	$(GO) test -fuzz='^FuzzDecodePacket$$' -fuzztime=30s ./internal/wire
	$(GO) test -fuzz='^FuzzParseLine$$' -fuzztime=30s ./internal/auditlog
	$(GO) test -fuzz='^FuzzRecordRoundTrip$$' -fuzztime=30s ./internal/auditlog
	$(GO) test -fuzz='^FuzzVerifyInclusion$$' -fuzztime=30s ./internal/auditlog
	$(GO) test -fuzz='^FuzzVerifyConsistency$$' -fuzztime=30s ./internal/auditlog
	$(GO) test -fuzz='^FuzzTreeProofs$$' -fuzztime=30s ./internal/auditlog
	$(GO) test -fuzz='^FuzzRewrite$$' -fuzztime=30s ./internal/auditlog
	$(GO) test -fuzz='^FuzzTypedFields$$' -fuzztime=30s ./internal/auditlog
	$(GO) test -fuzz='^FuzzCtrlDecode$$' -fuzztime=30s ./internal/core
	$(GO) test -fuzz='^FuzzCtrlScratchDecode$$' -fuzztime=30s ./internal/core
	$(GO) test -fuzz='^FuzzConsistencyMemo$$' -fuzztime=30s ./internal/core
	$(GO) test -fuzz='^FuzzEventRoundTrip$$' -fuzztime=30s ./internal/trace
	$(GO) test -fuzz='^FuzzHandlePacket$$' -fuzztime=30s ./internal/olsr
	$(GO) test -fuzz='^FuzzDupSet$$' -fuzztime=30s ./internal/olsr
	$(GO) test -fuzz='^FuzzMedium$$' -fuzztime=30s ./internal/radio
	$(GO) test -fuzz='^FuzzKernel$$' -fuzztime=30s ./internal/sim
	$(GO) test -fuzz='^FuzzMatcher$$' -fuzztime=30s ./internal/signature

# reprolint: the in-repo determinism & hot-path analyzer suite
# (DESIGN.md §12) — detwalltime, detmapiter, detseed, allocann. Builds
# from this module with the standard library only, so it runs offline;
# exits non-zero with file:line findings grouped by analyzer.
reprolint:
	$(GO) run ./cmd/reprolint ./...

# Static analysis: reprolint first (ours, offline, enforces the
# determinism discipline), then staticcheck (correctness + style) and
# govulncheck (known-vulnerability reachability). The latter two
# resolve through `go run`, so no separately installed binary is
# needed — just network access to the module proxy on first use. CI
# runs the same sequence in the lint job.
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4

lint: reprolint lint-external

lint-external:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

clean:
	$(GO) clean ./...
