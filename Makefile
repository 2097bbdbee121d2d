# Tier-1 gate plus the simulation-testing harness.
#
#   make ci           - vet, race-enabled tests, chaos sweep, smokes, api check.
#                       `race` runs every Go test once (under -race, except
#                       ./benchmark's: see the target), every fuzz target's
#                       seeds and committed corpus included; no other target
#                       re-runs a subset of them (one gate per behaviour)
#   make test         - plain test run (what the seed gate runs)
#   make sweep        - 20-seed invariant chaos sweep at 8x compression
#   make trace-smoke  - export a managed-run trace and validate its schema
#   make golden       - re-run the pinned run matrix against testdata/golden_digests.json
#                       (cross-commit determinism; `go test -run TestGoldenDigests -update .`
#                       accepts an intended behaviour change)
#   make bench        - the repository benchmark (go run ./benchmark), the only
#                       performance entry point
#   make obs-smoke    - scrape a live run's admin endpoint and validate the exposition
#   make netsim-smoke - run the partition scenario from examples/netfault.json
#                       end to end (invariant-checked; nonzero exit on violation)
#   make experiments  - every jadebench experiment at full length (go run
#                       ./cmd/jadebench at its defaults); each self-checks,
#                       so a failed claim exits nonzero
#   make api-check    - diff the facade's exported surface against testdata/api_surface.txt

GO ?= go
TMP_DIR := $(shell mktemp -d 2>/dev/null || echo /tmp)
TRACE_TMP := $(TMP_DIR)/jade-trace.json

.PHONY: all build test vet race sweep trace-smoke golden bench obs-smoke netsim-smoke experiments api-check ci

all: build

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

# ./benchmark's tests run without the detector: TestDecodeRuntimeProfile
# checks that its own spin loop owns most of a CPU profile's samples, and
# under -race the race runtime's frames take them (70-130 of 300 ms, 3
# failures in 4 runs). The package starts no goroutine of its own.
race:
	$(GO) test -race $$($(GO) list ./... | grep -v '^jade/benchmark$$')
	$(GO) test ./benchmark

sweep:
	$(GO) run ./cmd/jadebench -sweep 20 -speedup 8

trace-smoke:
	$(GO) run ./cmd/jadectl scenario -clients 300 -duration 300 -managed -trace.chrome $(TRACE_TMP)
	$(GO) run ./cmd/jadectl trace-validate $(TRACE_TMP)
	rm -f $(TRACE_TMP)

golden:
	$(GO) test -run TestGoldenDigests .

bench:
	$(GO) run ./benchmark

obs-smoke:
	$(GO) run ./cmd/jadectl scenario -clients 200 -duration 300 -managed -metrics.http 127.0.0.1:0 -metrics.scrape-check

netsim-smoke:
	$(GO) run ./cmd/jadectl scenario -config examples/netfault.json

experiments:
	$(GO) run ./cmd/jadebench

api-check:
	$(GO) test -run TestAPISurface .

ci: vet race sweep trace-smoke golden obs-smoke netsim-smoke experiments api-check
