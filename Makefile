# Convenience targets; everything is plain `go` underneath (stdlib only).

GO ?= go

.PHONY: all build vet test race cover bench bench-json bench-fleet-json pprof tables fuzz examples serve route loadtest loadtest-json clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem .

# Machine-readable benchmark snapshot for the current PR: E1-E6 cycle
# tables plus the wall-clock rows, including the incremental re-solve
# curve (k weight edits through Session.Update + warm Resolve vs the same
# edits replayed as full Reload + cold Solve, k in {1, 4, 16, 64}) and
# the warm incremental all-pairs curve (Update + ResolveSweep over all 64
# destinations vs Reload + cold SolveSweep, same k values).
bench-json:
	$(GO) run ./cmd/benchtab -json > BENCH_PR10.json

# Fleet scaling benchmark behind the consistent-hash router: for each
# fleet size boot that many in-process ppaserved backends behind an
# in-process pparouter and run a cache-miss row (backend scaling) and a
# Zipf row (front-door cache). -backend-delay emulates fixed per-batch
# device occupancy so the scaling curve is measurable on small hosts.
bench-fleet-json:
	$(GO) run ./cmd/ppaload -fleet 1,2,4 -gen connected -n 32 -seed 1 \
		-graphs 32 -c 32 -requests 8 -dests 1 -backend-delay 16ms -json > BENCH_PR7.json

# CPU profile of the simulator's hot path (repeated n=64 session solves);
# inspect with `go tool pprof solve.pprof`.
pprof:
	$(GO) test -run=NONE -bench=BenchmarkSolveWallClock/n=64/session$$ -benchtime=2s -cpuprofile=solve.pprof .

# Run the solver service on :8080 (see README "Serving").
serve:
	$(GO) run ./cmd/ppaserved

# Run the fleet router on :8080 (see README "Scaling out"); point
# BACKENDS at comma-separated ppaserved URLs.
route:
	$(GO) run ./cmd/pparouter -backends $(BACKENDS)

# Closed-loop load test against an in-process server; every response is
# verified against Bellman-Ford. Point at a live server with
#   go run ./cmd/ppaload -url http://localhost:8080 ...
loadtest:
	$(GO) run ./cmd/ppaload -selfserve -gen connected -n 64 -seed 7 -c 32 -requests 10

# Machine-readable serving throughput snapshot.
loadtest-json:
	$(GO) run ./cmd/ppaload -selfserve -gen connected -n 64 -seed 7 -c 32 -requests 10 -json > BENCH_PR2.json

# Regenerate every experiment table (E1-E8); see EXPERIMENTS.md.
tables:
	$(GO) run ./cmd/benchtab

# Refresh the golden snapshot after an intentional cost-model change.
golden:
	$(GO) run ./cmd/benchtab > internal/bench/testdata/benchtab.golden

fuzz:
	$(GO) test -fuzz=FuzzCompile -fuzztime=30s ./internal/ppclang/
	$(GO) test -fuzz=FuzzDiffExec -fuzztime=30s ./internal/ppclang/
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/graph/
	$(GO) test -fuzz=FuzzUpdateResolve -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzResolveSweep -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzWireDecode -fuzztime=30s ./internal/serve/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/robotnav
	$(GO) run ./examples/netroute
	$(GO) run ./examples/ppcpaper
	$(GO) run ./examples/imagedt
	$(GO) run ./examples/virtualized

clean:
	$(GO) clean ./...
