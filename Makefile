# Developer entry points. Everything is plain `go` underneath.

GO ?= go

.PHONY: all build test vet race bench bench-json bench-block bench-delta bench-decode bench-bound verify experiments trace serve loadgen cover fuzz clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The parallel routing-space search under the race detector.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Persist the search/evaluator perf numbers as a JSON artifact.
bench-json:
	$(GO) run ./cmd/closbench -o BENCH_search.json

# The block-evaluator smoke pair: C_5 per-state baseline vs the SoA
# block path, failing below the CI speedup bar.
bench-block:
	$(GO) run ./cmd/closbench -only-block -min-block-speedup 1.5

# The incremental-evaluator smoke pair: full per-event recompute vs the
# delta-aware water filling on the 64-event C_5 trace, failing below
# the CI speedup bar.
bench-delta:
	$(GO) run ./cmd/closbench -only-delta -min-delta-speedup 2

# The decode smoke pair: codec.Decode's strict scanner vs its
# json.Unmarshal fallback on an evaluate-cold-shaped C_8 body, failing
# below the CI speedup bar.
bench-decode:
	$(GO) run ./cmd/closbench -only-decode -min-decode-speedup 3

# The lex bound smoke pair: the pruned search's sorted trunk-relaxation
# bound on the shared int64 kernel vs its big.Rat oracle on
# search-lex-shaped states, failing below the CI speedup bar.
bench-bound:
	$(GO) run ./cmd/closbench -only-bound -min-bound-speedup 4

# Re-measure every theorem bound; non-zero exit on any violation.
verify:
	$(GO) run ./cmd/closverify -v

# Regenerate every figure/bound of the paper as tables.
experiments:
	$(GO) run ./cmd/closlab -all

# Run every experiment with full observability: live metrics on stderr
# and a structured JSONL journal in trace.jsonl (see internal/obs).
trace:
	$(GO) run ./cmd/closlab -all -metrics -trace trace.jsonl > /dev/null
	@wc -l < trace.jsonl | xargs -I{} echo "trace.jsonl: {} events"

# Run the scenario-evaluation daemon (see cmd/closnetd and the README
# "Serving" section). Ctrl-C drains in-flight requests before exit.
serve:
	$(GO) run ./cmd/closnetd -addr localhost:8427 -metrics

# The serving benchmark: replay the C_4 corpus against an in-process
# daemon, warm cache then cold path.
loadgen:
	$(GO) run ./cmd/closnetd loadgen -duration 5s
	$(GO) run ./cmd/closnetd loadgen -duration 5s -cold

cover:
	$(GO) test -cover ./...

# Short fuzz pass over the allocator, the edge colorer, the simplex and
# the scenario decoder (including its scanner-vs-stdlib differential).
# The decoder targets are seeded with a 15 kB body; a short minimize
# time keeps shrinking a new input from eating the fuzz budget.
fuzz:
	$(GO) test -fuzz=FuzzWaterfill -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzEdgeColor -fuzztime=10s ./internal/coloring/
	$(GO) test -fuzz=FuzzSimplex -fuzztime=10s ./internal/lp/
	$(GO) test -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=10s -fuzzminimizetime=2s ./internal/codec/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeMatchesStdlib$$' -fuzztime=10s -fuzzminimizetime=2s ./internal/codec/

clean:
	$(GO) clean ./...
	rm -rf internal/*/testdata/fuzz
