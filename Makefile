# CRONUS reproduction — stdlib-only Go; everything runs offline.

GO ?= go

.PHONY: all build fmt-check fma-check test vet race cover fuzz bench bench-build chaos smoke doc-lint ci examples tools figures attack loc clean

all: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt -l prints the files it would rewrite; any name is a failure.
fmt-check:
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l:"; gofmt -l .; exit 1; }

test:
	$(GO) test ./... -count=1

# Every non-test function under internal/ runs under the test suite or leaves
# the tree. The suite runs once with coverage over internal/..., the functions
# that read 0.0% are printed, and any outside the allowlist fails: Error and
# String methods, which exist for fmt, and internal/prof, which only the CLIs'
# -cpuprofile/-memprofile flags reach. An empty-bodied function always reads
# 0.0%, called or not (it has no statement to count) — how three no-op HAL
# methods once showed up although the restart hook called them — so the gate
# refuses a new no-op method too. Two are allowlisted by name: sim's
# Parallelize and Sequentialize, the no-op entry points bench/layers.go still
# calls; they leave with internal/sim/compat.go when the benchmark drops
# sim.sharded_event_host_ns and sim.parallel_speedup (ROADMAP item 2).
cover:
	@p="$$(mktemp)"; trap 'rm -f "$$p"' EXIT; \
	$(GO) test -count=1 -coverpkg=./internal/... -coverprofile="$$p" ./... || exit 1; \
	funcs="$$($(GO) tool cover -func="$$p")" || exit 1; \
	echo "$$funcs" | tail -n 1; \
	zero="$$(echo "$$funcs" | awk '$$NF == "0.0%"')"; \
	echo "functions never run: $$(echo "$$zero" | grep -c .)"; echo "$$zero"; \
	bad="$$(echo "$$zero" | awk '$$2 != "Error" && $$2 != "String" && $$1 !~ /^cronus\/internal\/prof\// && \
		!($$1 ~ /^cronus\/internal\/sim\/compat\.go:/ && ($$2 == "Parallelize" || $$2 == "Sequentialize"))')"; \
	test -z "$$bad" || { echo "never run and not allowlisted:"; echo "$$bad"; exit 1; }

# The trace/metrics hooks are lock-free on the hot paths; prove it under the
# race detector (the sim kernel's handshake provides the happens-before edges).
# `make ci` runs the subset where goroutines meet: serve, srpc, spm and hw (which
# hold no lock: one goroutine runs a kernel at a time, and this is the check
# that nothing reaches them from a second one), sim, trace and otrace (a
# collector and its flight recorder belong to the one kernel they are attached
# to and hold no lock either: the detector is the check that no collector is
# handed to two goroutines), and
# experiments (a figure's cells on concurrent kernels) with the core and gpu
# packages every cell boots — plus dnn, rodinia and tvm, whose kernels compute
# through gpu's float32 views of device memory: -race turns on checkptr, which
# validates the alignment and bounds of every unsafe conversion behind them —
# and mos/driver, whose hostile-count tests bound allocations in a build the
# detector instruments.
race:
	$(GO) test -race ./... -count=1

# The repository benchmark (BENCHMARK.json): five workloads, each an untraced
# run for the end-to-end metrics and a traced run for the per-layer ones. A
# change's end-to-end medians are appended to BENCH_history.jsonl, which
# cronus-doclint checks. The Benchmark* functions under internal/ remain
# `go test -bench` entry points for profiling one layer.
bench:
	bash bench/run.sh

# Native fuzzing of the decoders that face bytes another party wrote: the wire
# codec (mECall arguments, replies, sealed payloads), the sRPC record header
# the executor validates before trusting a length, the NPU program decoder
# (vtaRun payloads and NPU enclave images), the EDL parser whose table a
# sealed call's name is resolved against, the manifest parser whose memory
# cap the mEnclave manager enforces, and the remote-attestation verifier,
# which must accept exactly the report the platform signed and refuse every
# mutation of it with a typed sentinel — plus three that face no peer:
# FuzzPSEngineRekey decodes bytes into a GPU-sharing schedule and holds the
# re-keying engine to the key sequence of one that resumes every job;
# FuzzEventQueue holds the kernel's two-tier event queue to a sort;
# FuzzTicketResume holds the attestation ticket cache to a map-based model
# (TTL, LRU capacity, epochs, revocation); FuzzMatmul holds every matmul
# variant, through the register tiles, their Inf/NaN-in-B fallback and the row
# path, to the textbook loop bit for bit; FuzzIsolation reads the SPM's
# Alloc/Share/Unshare/Fail/recover/Access schedule on persistent views from
# bytes and checks the isolation invariants I1–I5 after every step — plus
# FuzzNormalOS, whose bytes pick what a malicious normal OS does with each SMC
# of a fixed session (drop, replay, flip, reroute, forge), each step ending in
# its honest result or a typed refusal. One short leg per target —
# `go test -fuzz` takes a single target and a single package — on top of the
# checked-in seed corpora under testdata/fuzz and the f.Add seeds, which every
# plain `go test` run already replays. FuzzNormalOS runs 60 s, not FUZZTIME:
# each of its inputs boots a platform and runs a session (~600 execs/s), so
# 10 s explores too little of its strategy space. FuzzIsolation runs 60 s too:
# each input boots an SPM and walks up to 400 rounds of its state machine.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecoder$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzRecordHeader$$' -fuzztime $(FUZZTIME) ./internal/srpc
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeInsns$$' -fuzztime $(FUZZTIME) ./internal/mos/driver
	$(GO) test -run '^$$' -fuzz '^FuzzEDL$$' -fuzztime $(FUZZTIME) ./internal/enclave
	$(GO) test -run '^$$' -fuzz '^FuzzManifest$$' -fuzztime $(FUZZTIME) ./internal/enclave
	$(GO) test -run '^$$' -fuzz '^FuzzVerifyReport$$' -fuzztime $(FUZZTIME) ./internal/attest
	$(GO) test -run '^$$' -fuzz '^FuzzPSEngineRekey$$' -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzEventQueue$$' -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzTicketResume$$' -fuzztime $(FUZZTIME) ./internal/attest
	$(GO) test -run '^$$' -fuzz '^FuzzMatmul$$' -fuzztime $(FUZZTIME) ./internal/gpu
	$(GO) test -run '^$$' -fuzz '^FuzzNormalOS$$' -fuzztime 60s ./internal/normal
	$(GO) test -run '^$$' -fuzz '^FuzzIsolation$$' -fuzztime 60s ./internal/spm

# No fused multiply-add under internal/: the Go spec lets a compiler fuse x*y + z
# into one rounding unless the product is converted explicitly (float32(x*y),
# float64(x*y)), and arm64's compiler does where amd64's (GOAMD64=v1) cannot,
# so an unconverted product would give arm64 other virtual times and kernel
# bits. The arm64 compiler's listing of every package of this module must name
# no FMADD/FMSUB/FNMADD/FNMSUB; the build cache replays the listing, so a warm
# run takes seconds.
fma-check:
	@out="$$(GOARCH=arm64 $(GO) build -gcflags='cronus/...=-S' ./... 2>&1)" || { echo "$$out" | tail -n 20; exit 1; }; \
	fused="$$(echo "$$out" | grep -E '\bFN?M(ADD|SUB)[DS]\b')"; \
	test -z "$$fused" || { echo "fused multiply-add in the arm64 build:"; echo "$$fused"; exit 1; }

# Documentation bar: package docs plus doc comments on every exported
# identifier of the API-bearing packages (serve, srpc, spm, mos, chaos), and
# the documents: DESIGN.md §4 against experiments.Catalog, every cited
# DESIGN.md section or EXPERIMENTS.md heading, and BENCH_history.jsonl.
doc-lint:
	$(GO) run ./cmd/cronus-doclint

# Short deterministic chaos soak, all through the one harness (-nodes is the
# topology): 3 seeds over the single-platform fault kinds, plus a
# targeted supervision soak (persistent-hang wedges caught by the heartbeat
# watchdog, crash loops ending in quarantine), plus a 2-node cluster soak
# (node crashes, net-partitions, slow links over the fabric), plus an
# attestation soak (ticket storms and stale-measurement revocations against
# the admission gate), plus a migration soak (planned migrations interrupted
# mid-checkpoint, forced autoscaler oscillations, drain races), every report
# replay-verified byte-for-byte. The full soak is `go run ./cmd/cronus-chaos`.
chaos:
	$(GO) run ./cmd/cronus-chaos -seeds 3 -verify
	$(GO) run ./cmd/cronus-chaos -seeds 2 -kinds persistent-hang,crash-loop -faults 2 -verify
	$(GO) run ./cmd/cronus-chaos -nodes 2 -partitions 4 -tenants 4 -seeds 3 -verify
	$(GO) run ./cmd/cronus-chaos -nodes 2 -partitions 4 -tenants 4 -kinds attest-storm,stale-measurement -seeds 3 -verify
	$(GO) run ./cmd/cronus-chaos -nodes 2 -partitions 4 -tenants 4 -kinds migrate-interrupt,scale-storm,drain-race -seeds 3 -verify

# cmd/ has no tests: run cronus-serve end to end on the three pool shapes —
# executed plane, flow-model plane, two-node pool through a node crash — plus
# README's supervised failover (the one CLI path through Config.Supervise),
# README's SLO-coupled admission (the one CLI path through Config.SLO) and one
# traced run. The CLI audits conservation itself and exits non-zero on an
# accounting violation.
smoke:
	$(GO) run ./cmd/cronus-serve > /dev/null
	$(GO) run ./cmd/cronus-serve -supervise -fail-at-ms 11 > /dev/null
	$(GO) run ./cmd/cronus-serve -slo-target-us 400 -slo-admission > /dev/null
	$(GO) run ./cmd/cronus-serve -shards 2 > /dev/null
	$(GO) run ./cmd/cronus-serve -nodes 2 -partitions 4 -shards 4 -node-crash-ms 11 > /dev/null
	t="$$(mktemp)"; $(GO) run ./cmd/cronus-serve -trace "$$t" > /dev/null; rc=$$?; rm -f "$$t"; exit $$rc

# bench/ is its own module (cronus/bench, replace cronus => ../), so the root
# ./... patterns never see it: vet and test it here so an API change it uses
# cannot break the repository benchmark unseen.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The one CI list — .github/workflows/ci.yml runs exactly `make ci`: the
# format check, build, vet (once more for arm64, which type-checks the Go
# files no amd64 build compiles: the portable matmul leaves of
# internal/gpu/rowterms_other.go), the arm64 fused-multiply-add check, the full
# test suite under the coverage gate (the
# causal-tracing guards and the cronus-attack defences included), the suite
# once more on a 32-bit int (GOARCH=386: a bounds check that sums two
# peer-supplied lengths wraps there first, and the fuzz seed corpora must end
# in typed errors at both widths), the race detector over the concurrency-heavy
# packages, a short fuzz leg per target, the documentation bar, the benchmark
# module, the CLI smoke runs, the seven examples (nothing else executes them)
# and the replay-verified chaos soaks.
ci:
	$(MAKE) fmt-check
	$(GO) build ./...
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	$(MAKE) fma-check
	$(MAKE) cover
	GOARCH=386 $(GO) test -count=1 ./...
	$(GO) test -race -count=1 ./internal/serve ./internal/srpc ./internal/spm ./internal/hw ./internal/sim \
		./internal/trace ./internal/otrace ./internal/experiments ./internal/core ./internal/gpu \
		./internal/dnn ./internal/workload/rodinia ./internal/tvm ./internal/mos/driver
	$(MAKE) fuzz
	$(GO) run ./cmd/cronus-doclint
	$(MAKE) bench-build
	$(MAKE) smoke
	$(MAKE) examples
	$(MAKE) chaos

# Pretty-printed tables for all experiments.
figures:
	$(GO) run ./cmd/cronus-bench

attack:
	$(GO) run ./cmd/cronus-attack

loc:
	$(GO) run ./cmd/cronus-loc

tools:
	$(GO) build -o bin/ ./cmd/...

examples:
	@for e in quickstart dnn-training npu-inference fault-recovery spatial-sharing secure-data hetero-pipeline; do \
		echo "== examples/$$e =="; \
		$(GO) run ./examples/$$e || exit 1; \
		echo; \
	done

clean:
	rm -rf bin
