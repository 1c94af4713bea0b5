# Developer entry points; `make check` is what CI should run.

GO ?= go

.PHONY: all build vet test race bench-smoke fuzz-smoke benchmark benchmark-smoke dist-example search-example parallel-example spatio-example serve-smoke obs-smoke part-smoke cluster-smoke check clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-smoke compiles and runs, for a single iteration, the
# micro-benchmarks that `go run ./benchmark` has no rung for — it catches
# benchmarks broken by refactors without paying for a measurement run.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkMinDFSCode|BenchmarkTIDKernels|BenchmarkDecompMine|BenchmarkIncPartMiner' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkInitial|BenchmarkExtensions' -benchtime 1x ./internal/extend/

# fuzz-smoke runs every fuzzer for 5 s past its checked-in seed corpus
# (testdata/fuzz/): the gSpan text reader and the three codec decoders —
# database, pattern set, snapshot. `go test` alone replays the seeds.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadDatabase$$' -fuzztime 5s ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeDatabase$$' -fuzztime 5s ./internal/codec
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSet$$' -fuzztime 5s ./internal/codec
	$(GO) test -run '^$$' -fuzz '^FuzzLoadSnapshot$$' -fuzztime 5s ./internal/core

# benchmark runs the repository's end-to-end benchmark (benchmark/README.md):
# four workloads, seven metrics each, about 24 s per workload, on an
# otherwise idle machine. benchmark-smoke drives every workload's code
# path on a tiny database with an in-process server and measures nothing;
# it only has to exit 0.
benchmark:
	$(GO) run ./benchmark

benchmark-smoke:
	$(GO) run ./benchmark -smoke -seconds 2

# dist-example mines through three in-process workers dialed by address
# (partminer.DialWorkers) and exits non-zero unless the result equals a
# local run: the only driver of the static-membership fleet outside
# internal/cluster's tests.
dist-example:
	$(GO) run ./examples/distributed

# search-example mines a database, indexes the result
# (partminer.NewSearchIndex) and exits non-zero unless every containment
# answer equals a full scan: the only driver of the search facade.
search-example:
	$(GO) run ./examples/search

# parallel-example mines one database serially and with Options.Parallel
# at K = 1, 2, 4 and 6, folds a 10 % update at each K, and exits non-zero
# if parallel mode or K changes the result or a fold differs from a
# from-scratch mine: the only end-to-end driver of parallel unit mining.
parallel-example:
	$(GO) run ./examples/parallel

# spatio-example folds five chained 25 % update rounds at K = 4 and exits
# non-zero unless every round equals a from-scratch mine: the only
# end-to-end driver of chained folds.
spatio-example:
	$(GO) run ./examples/spatiotemporal

# serve-smoke boots partserved on an ephemeral port, exercises every HTTP
# endpoint with curl, and checks the answers (see scripts/serve_smoke.sh).
serve-smoke:
	./scripts/serve_smoke.sh

# obs-smoke boots partserved with the observability surface enabled and
# asserts the /metrics exposition, the slow-op journal, the pprof
# listener, and partminer's -trace span tree (see scripts/obs_smoke.sh).
obs-smoke:
	./scripts/obs_smoke.sh

# part-smoke runs every registered partition strategy end to end through
# the partminer CLI on a hub-heavy database, asserts the quality metrics
# in -statsjson, checks all strategies agree on the pattern set, and
# boots partserved under a non-default strategy to assert the quality
# block in /v1/stats and the partition gauges in /metrics
# (see scripts/part_smoke.sh).
part-smoke:
	./scripts/part_smoke.sh

# cluster-smoke boots partserved in coordinator mode with three
# partworker processes, checks /v1/cluster and the replica read path,
# SIGKILLs the worker owning unit-0, folds an add_graph update through
# the degraded fleet, and asserts the pattern set stays byte-identical
# to a single-node server (see scripts/cluster_smoke.sh).
cluster-smoke:
	./scripts/cluster_smoke.sh

# check runs the tests twice: without -race too, because the allocation
# gates (TestMineAllocs, TestFoldAllocs with its 10 % and one-graph fold
# arms, TestMinCodeAllocs, TestAdHocFindAllocs, TestReadAllocs) skip under
# the race detector.
check: build vet test race bench-smoke fuzz-smoke benchmark-smoke dist-example search-example parallel-example spatio-example serve-smoke obs-smoke part-smoke cluster-smoke

clean:
	$(GO) clean ./...
