# Tier-1 gate plus the simulation-testing harness.
#
#   make ci           - vet, race-enabled tests, chaos sweep, smokes, experiments.
#                       `race` runs every Go test once (under -race, except
#                       ./benchmark's: see the target), every fuzz target's
#                       seeds and committed corpus included; no other target
#                       re-runs a subset of them (one gate per behaviour)
#   make test         - plain test run (what the seed gate runs)
#   make sweep        - 20-seed invariant chaos sweep at 8x compression (jadectl sweep)
#   make trace-smoke  - export a managed-run trace and validate its schema
#   make golden       - re-run the pinned run matrix against testdata/golden_digests.json
#                       (cross-commit determinism; `go test -run TestGoldenDigests -update .`
#                       accepts an intended behaviour change), then the matrix, the
#                       five-tier runs and the quick experiment report as 386 binaries,
#                       which must reproduce the same files; a shortcut, not in
#                       ci: `race` runs the tests on the host architecture
#   make bench        - the repository benchmark (go run ./benchmark), the only
#                       performance entry point
#   make obs-smoke    - scrape a live run's admin endpoint and validate the exposition,
#                       which must equal the last line of metrics.jsonl, whose every
#                       line must validate, and the snapshot files named from its time
#   make netsim-smoke - run the partition scenario from examples/netfault.json
#                       end to end (invariant-checked; nonzero exit on violation)
#   make experiments  - every experiment at full length (go run ./cmd/jadectl
#                       experiment), figure CSVs into a temp dir; each
#                       self-checks, so a failed claim exits nonzero, and the
#                       report must equal testdata/experiments.golden
#                       (`go test -run TestExperimentReportsGolden -update .`
#                       rewrites it and the quick report's golden)
#   make api-check    - diff the facade's exported surface against testdata/api_surface.txt;
#                       a shortcut, not in ci: `race` runs the test

GO ?= go
# A target that writes files makes its own temporary directory in its
# recipe and removes it on exit, pass or fail; no other target makes one.

.PHONY: all build test vet race sweep trace-smoke golden bench obs-smoke netsim-smoke experiments api-check ci

all: build

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# vet's last step lists the packages whose float arithmetic must not be
# contracted into fused multiply-adds, which arm64 emits and amd64 never
# does: their results reach the digests. A product that must stay rounded
# is written float64(x*y). The step fails on any fused instruction in
# their arm64 assembly and prints its line.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	@asm=$$(GOARCH=arm64 $(GO) build -gcflags=-S . ./internal/sim ./internal/netsim ./internal/obs ./internal/obs/alert ./internal/obs/attrib ./internal/metrics ./internal/cluster ./internal/selector ./internal/fluid ./internal/rubis 2>&1) || { echo "$$asm"; exit 1; }; \
	fused=$$(echo "$$asm" | grep -E '\s(FMADD|FMSUB|FNMADD|FNMSUB)[DS]?\s'); \
	if [ -n "$$fused" ]; then echo "fused multiply-add in the arm64 build:"; echo "$$fused"; exit 1; fi

# ./benchmark's tests run without the detector: TestDecodeRuntimeProfile
# checks that its own spin loop owns most of a CPU profile's samples, and
# under -race the race runtime's frames take them (70-130 of 300 ms, 3
# failures in 4 runs). The package starts no goroutine of its own.
race:
	$(GO) test -race $$($(GO) list ./... | grep -v '^jade/benchmark$$')
	$(GO) test ./benchmark

sweep:
	$(GO) run ./cmd/jadectl sweep -seeds 20 -speedup 8

trace-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && set -x && \
	$(GO) run ./cmd/jadectl scenario -clients 300 -duration 300 -managed -trace.chrome $$tmp/jade-trace.json && \
	$(GO) run ./cmd/jadectl trace-validate $$tmp/jade-trace.json

# GOARCH=386 binaries run on an amd64 host as they are: the second
# architecture the goldens are checked on (goldenArchs in golden_test.go).
golden:
	$(GO) test -run TestGoldenDigests .
	GOARCH=386 $(GO) test -run 'TestGoldenDigests|TestFiveTierGoldenDigests|TestExperimentReportsGolden' .

bench:
	$(GO) run ./benchmark

obs-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && set -x && \
	$(GO) run ./cmd/jadectl scenario -clients 200 -duration 300 -managed -metrics.http 127.0.0.1:0 -metrics.dir $$tmp/obs -metrics.scrape-check

netsim-smoke:
	$(GO) run ./cmd/jadectl scenario -config examples/netfault.json

experiments:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && set -x && \
	$(GO) run ./cmd/jadectl experiment -csv $$tmp/csv > $$tmp/experiments.txt && \
	diff -u testdata/experiments.golden $$tmp/experiments.txt

api-check:
	$(GO) test -run TestAPISurface .

ci: vet race sweep trace-smoke obs-smoke netsim-smoke experiments
