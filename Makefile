# CI entry points. `make ci` is what a pipeline should run; the race
# target matters since the parallel experiment runner introduced real
# concurrency (worker pools executing independent simulations).

GO ?= go

.PHONY: build cross-build test loc sim-digest layerbench-test fuzz-smoke race vet bench bench-json bench-check overhead-guard chaos chaos-ci migration-chaos cluster-smoke ci

build:
	$(GO) build ./...

# internal/aesctr's kernel is assembly on amd64 and a crypto/aes loop
# everywhere else; CI hosts are amd64, so build every package and vet aesctr
# (tests included) for a target that takes the other path. Needs no network:
# the module has no dependencies.
cross-build:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/aesctr

test:
	$(GO) test ./...

# Non-test Go lines per package under internal/ and cmd/, plus the total:
# ROADMAP counts net non-test LOC going down as a success metric, so a PR
# can quote its before/after from here.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' | xargs wc -l | awk ' \
	  $$2 != "total" { pkg = $$2; sub(/\/[^\/]*$$/, "", pkg); n[pkg] += $$1; all += $$1 } \
	  END { for (p in n) printf("%7d %s\n", n[p], p) | "sort -k2"; close("sort -k2"); printf("%7d total\n", all) }'

# One sha256 per simulation artefact — the figure JSON and stdout table,
# each per-figure telemetry snapshot, the Chrome trace, the chaos JSON and
# report — so a refactor that claims "simulation output byte-identical" can
# print both sides and diff them. The tools run from inside the output
# directory because they echo the paths they wrote. Under a minute on a
# 2-core host. Not part of `make ci` and there is no committed golden: the
# digests are quoted in the PR that needs them.
sim-digest:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; mkdir $$d/out; \
	$(GO) build -o $$d/fsencr-bench ./cmd/fsencr-bench; \
	$(GO) build -o $$d/fsencr-chaos ./cmd/fsencr-chaos; \
	cd $$d/out; \
	../fsencr-bench -ops 2000 -json figures.json -metrics-dir metrics -trace-out trace.json > figures.txt; \
	../fsencr-chaos -seed 1 -faults 300 -json chaos.json > chaos.txt; \
	find . -type f | sort | xargs sha256sum

# bench/ is a Go module of its own (the layered service benchmark), so
# `go test ./...` above does not see it: its smoke test, manifest check and
# the controller's pinned known-issue test run here.
layerbench-test:
	$(GO) test -C bench ./...

# Ten seconds of native fuzzing per target over the untrusted decoders: the
# payload frame codec, the server's request loop fed arbitrary connection
# bytes, the client's response parse fed arbitrary server bytes, the
# /v1/write handler fed arbitrary frames (seeded from the malice campaign's
# malformed ones) through both transports, and the controller's image import
# fed exports corrupted one field at a time, the admission-log reader fed
# arbitrary bytes (seeded with a log of every record kind) — plus one
# differential target: aesctr's pad entry points (so the assembly kernel on
# amd64) against a one-block-at-a-time crypto/aes generator. FuzzFramedWrite
# drives a live server whose goroutines make coverage vary between runs of one
# input, and FuzzLogRecords' corpus holds a near-megabyte write, so for both
# the engine's minimiser (a minute per new input by default) is cut short.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSplitFrame$$' -fuzztime 10s ./internal/fsproto
	$(GO) test -run '^$$' -fuzz '^FuzzRequestHead$$' -fuzztime 10s ./internal/fsproto
	$(GO) test -run '^$$' -fuzz '^FuzzLogRecords$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/fsproto
	$(GO) test -run '^$$' -fuzz '^FuzzExchangeResponse$$' -fuzztime 10s ./internal/fsclient
	$(GO) test -run '^$$' -fuzz '^FuzzFramedWrite$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzImportImage$$' -fuzztime 10s ./internal/memctrl
	$(GO) test -run '^$$' -fuzz '^FuzzOTPLines$$' -fuzztime 10s ./internal/aesctr

race:
	$(GO) test -race ./...

# Full chaos campaign: >= 1000 seeded faults injected across the encrypted
# datapath (counter blocks, data lines, torn writes, OTT region, audit
# log, counter wrap, crash-at-every-persist-point), 100% detection
# required; exits nonzero on any undetected corruption. Deterministic:
# rerunning the same seed reproduces the campaign byte-for-byte.
chaos:
	$(GO) run ./cmd/fsencr-chaos -seed 1 -faults 1000

# Bounded chaos campaign for the CI gate (same kinds, smaller budget).
chaos-ci:
	$(GO) run ./cmd/fsencr-chaos -seed 1 -faults 150

# Cluster fault campaign: kill the migration source or target at every
# persist point of a live shard migration; every crash point must either
# complete or roll back cleanly — one live owner, no lost acknowledged
# data, no split-brain epoch.
migration-chaos:
	$(GO) run ./cmd/fsencr-chaos -campaign node-crash-during-migration

# Cluster-smoke: the in-process 3-node fabric — concurrent cluster-routed
# load across a live shard migration (zero lost or duplicated ops, stale
# owners forward or 421), a >= 10k-op admission log replayed onto two
# replicas with zero divergence, and a replica failover after the owner
# dies with every acknowledged write intact. The migration-crash campaign
# rides along.
cluster-smoke:
	$(GO) test -run 'TestJoinPlacesFirstNode|TestMigrationUnderLoad|TestReplicationAndFailover|TestReplicaTenKOps' -count 1 -v ./internal/cluster
	$(GO) test -run 'TestMigrationCrashCampaign' -count 1 -v ./internal/chaos

vet:
	$(GO) vet ./...

# Hot-path microbenchmarks (datapath + Merkle write-back + crypto engine +
# kvstore + the server read path and the product client over loopback), one
# iteration batch each — enough for before/after comparisons of the
# fast-path.
bench:
	$(GO) test -run '^$$' -bench 'ReadLine|WriteLine|ReadPage|WritePage' ./internal/memctrl
	$(GO) test -run '^$$' -bench 'MerkleUpdate|MerkleFlush' ./internal/merkle
	$(GO) test -run '^$$' -bench . ./internal/aesctr
	$(GO) test -run '^$$' -bench 'Put|Get' ./internal/kvstore
	$(GO) test -run '^$$' -bench 'ServerReadPath|ServerParallelRead|ClientRead4K|ClientKVGet' ./internal/server

# Machine-readable perf baseline: the same hot-path benchmarks, folded
# into BENCH_baseline.json as {"pkg.Benchmark": {iterations, ns_per_op}}
# so later PRs can diff ns/op against this commit.
bench-json:
	@{ \
	  $(GO) test -run '^$$' -bench 'ReadLine|WriteLine|ReadPage|WritePage' ./internal/memctrl ; \
	  $(GO) test -run '^$$' -bench 'MerkleUpdate|MerkleFlush' ./internal/merkle ; \
	  $(GO) test -run '^$$' -bench . ./internal/aesctr ; \
	  $(GO) test -run '^$$' -bench 'Put|Get' ./internal/kvstore ; \
	  $(GO) test -run '^$$' -bench 'ServerReadPath|ServerParallelRead|ClientRead4K|ClientKVGet' ./internal/server ; \
	} | awk ' \
	  /^pkg:/ { pkg = $$2 } \
	  /^Benchmark/ { \
	    name = $$1; sub(/-[0-9]+$$/, "", name); \
	    if (!first) first = 1; else printf(",\n"); \
	    printf("  \"%s.%s\": {\"iterations\": %s, \"ns_per_op\": %s}", pkg, name, $$2, $$3); \
	  } \
	  END { print "" } \
	' | { echo '{'; cat; echo '}'; } > BENCH_baseline.json
	@cat BENCH_baseline.json

# Bench-regression gate: rerun the hot-path benchmarks (3 repeats each;
# the comparator keeps the fastest, discarding scheduler noise) and fail
# if any ns/op regressed more than 15% against the committed baseline, or
# if a baseline benchmark disappeared.
bench-check:
	@{ \
	  $(GO) test -run '^$$' -bench 'ReadLine|WriteLine|ReadPage|WritePage' -count 3 ./internal/memctrl ; \
	  $(GO) test -run '^$$' -bench 'MerkleUpdate|MerkleFlush' -count 3 ./internal/merkle ; \
	  $(GO) test -run '^$$' -bench . -count 3 ./internal/aesctr ; \
	  $(GO) test -run '^$$' -bench 'Put|Get' -count 3 ./internal/kvstore ; \
	  $(GO) test -run '^$$' -bench 'ServerReadPath|ServerParallelRead|ClientRead4K|ClientKVGet' -count 3 ./internal/server ; \
	} | $(GO) run ./cmd/fsencr-bench -check BENCH_baseline.json -tolerance 0.15

# Telemetry-overhead gate: with no registry attached (the no-op recorder)
# a telemetry hook must stay one predictable branch (<= 0.5 ns) and a
# ReadLine/WriteLine must reach no more hooks than pinned — the two factors
# of what a line op pays for detached telemetry, neither of which moves
# when the datapath itself gets faster. TestWriteLineGapGuard rides along:
# it pins the WriteLine/ReadLine ns/op ratio so eager per-write Merkle
# propagation cannot silently return. TestPageGapGuard pins the batched page
# path at no worse than half the host cost of 64 WriteLine calls, so the
# one-fetch/one-key-schedule batching cannot silently degenerate back to
# per-line work. TestWritePageGapGuard pins WritePage at no more than 2.8x
# ReadPage (median of 5 each), so write-path bookkeeping cannot grow back
# past a page read's worth. TestAuditOverheadGuard pins the audit plane's
# disabled cost: with auditing off, the page datapath's detached Append hooks must
# stay under 3% of ReadPage/WritePage. TestTraceOverheadGuard pins the
# request-trace plane the same way: with no trace active (scope nil or
# idle), a page op's worth of Active() gates must stay under 3% of
# ReadPage/WritePage. See internal/memctrl/overhead_guard_test.go.
# TestReadScalingGuard is the concurrent-read gate: on >= 4-core hosts,
# 8 readers on one shard must sustain >= 2x single-reader throughput
# through the snapshot fast-path (skipped on smaller hosts).
overhead-guard:
	FSENCR_OVERHEAD_GUARD=1 $(GO) test -run 'TestTelemetryOverheadGuard|TestWriteLineGapGuard|TestPageGapGuard|TestWritePageGapGuard|TestAuditOverheadGuard|TestTraceOverheadGuard' -v ./internal/memctrl
	FSENCR_OVERHEAD_GUARD=1 $(GO) test -run 'TestReadScalingGuard' -v ./internal/server

# `test` and `race` already run every test of every package, so there are no
# per-plane `-run` shortcuts to chain here: to check one plane, name its test
# (`go test -run TestFsencrdSmoke ./internal/server`). cluster-smoke stays as
# the one named subset because it spans two packages.
ci: build cross-build vet test race layerbench-test fuzz-smoke chaos-ci migration-chaos overhead-guard bench-check
