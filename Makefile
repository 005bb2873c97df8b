# Repo checks. `make check` is the full CI gate; the individual targets
# exist so a failing stage can be rerun alone.
#
#   make fmt    gofmt -s diff check (fails listing unformatted files)
#   make vet    go vet
#   make lint   ringlint, the repo-specific static analyzers (hotpath,
#               derivedstate, forksafe, truncation, viewsafe, guardedby,
#               golife, refpair, syncio, ctxflow) over the whole module,
#               with per-analyzer wall times
#   make lint-only ONLY=<a,b>  a subset of the analyzers (iterating on
#               one analyzer or an annotation pass)
#   make build  compile everything
#   make test   full test suite, shuffled (includes the fuzz seed corpora)
#   make test-debug  internal packages with the ringdebug assertion tag
#               (rank/select inverses, wavelet range sanity, leap ordering)
#   make race   race-detector lane over the full module (~4m on a
#               single-CPU container; rerun alone when iterating)
#   make bench  the parallel-LTJ sweep benchmark, one iteration
#   make bench-smoke      compile-and-run every benchmark once (catches
#                         bit-rotted benchmarks without paying full runs)
#   make bench-substrate  the rank/select substrate microbenchmarks
#                         (bits, bitvector, wavelet, ring Leap/Bind);
#                         benchstat-friendly: set BENCH_COUNT>=10 to compare
#   make bench-serve      the ringserve load-generator sweep (GOMAXPROCS
#                         1/4 x 1/4/16 clients x cache on/off, plus the
#                         shared-scan 2-core hot-set mix), writing
#                         BENCH_serve.json
#   make bench-batch      batched-vs-scalar leapfrog on the adversarial
#                         run workloads (dense runs, sparse tails,
#                         selective joins), re-recording the committed
#                         BENCH_batch_leap.json
#   make bench-batch-smoke  the same sweep writing to a temp file, so
#                         `make check` runs it without touching the
#                         committed record
#   make bench-mmap-load  cold-start load comparison, decode vs mmap
#                         (wall + peak RSS, fresh process per run),
#                         writing BENCH_mmap_load.json
#   make serve-smoke      end-to-end ringserve smoke: build, index, serve,
#                         query, overload shedding, SIGTERM drain
#   make persist-smoke    end-to-end live-update smoke: insert over HTTP,
#                         SIGKILL, recover from the WAL, drain with a
#                         final checkpoint, inspect with ringstats
#   make mmap-smoke       end-to-end zero-copy smoke: ringstats layout,
#                         decode-vs-mmap differential serving across a
#                         restart, live mode with view-loaded checkpoints
#   make repl-smoke       end-to-end replication smoke: leader + follower,
#                         lag to zero, read-your-writes via X-Ring-Min-Seq,
#                         leader kill, promote, clean drain
#   make race-batch  batched lane (wavelet/ring/ltj) under -race with the
#               ringdebug assertions enabled
#   make wcobench-smoke  the benchmark's own short test (its own module,
#               outside `go test ./...`): all three workloads with every
#               oracle check on, against the working tree's engine (~12s)
#   make check  fmt + vet + lint + build + test + test-debug + race +
#               race-batch + bench-smoke + bench-batch-smoke + serve-smoke +
#               persist-smoke + mmap-smoke + repl-smoke + wcobench-smoke

GO ?= go
BENCH_COUNT ?= 1

.PHONY: check fmt vet lint lint-only build test test-debug race race-batch bench bench-smoke bench-substrate bench-serve bench-batch bench-batch-smoke bench-mmap-load serve-smoke persist-smoke mmap-smoke repl-smoke wcobench-smoke

check: fmt vet lint build test test-debug race race-batch bench-smoke bench-batch-smoke serve-smoke persist-smoke mmap-smoke repl-smoke wcobench-smoke

fmt:
	@unformatted=$$(gofmt -s -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/ringlint -timing ./...

# Run a single analyzer while iterating on it or on annotations:
#   make lint-only ONLY=guardedby
#   make lint-only ONLY=refpair,syncio
lint-only:
	$(GO) run ./cmd/ringlint -timing -only $(ONLY) ./...

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

test-debug:
	$(GO) test -tags ringdebug ./internal/...

race:
	$(GO) test -race ./...

# Batched lane under the race detector with the ringdebug assertions on:
# the radix-intersection descents and shared-scan grouping run with both
# their invariant checks and concurrency instrumentation.
race-batch:
	$(GO) test -race -tags ringdebug ./internal/wavelet ./internal/ring ./internal/ltj

bench:
	$(GO) test . -run XXX -bench 'BenchmarkParallelLTJ' -benchtime 1x

bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

bench-substrate:
	$(GO) test -run '^$$' -bench . -benchmem -count $(BENCH_COUNT) \
		./internal/bits ./internal/bitvector ./internal/wavelet ./internal/ring

bench-serve:
	BENCH_SERVE_JSON=$(CURDIR)/BENCH_serve.json \
		$(GO) test -run '^$$' -bench 'BenchmarkServe|BenchmarkReplFanout' -benchtime 2s ./internal/server

bench-batch:
	BENCH_BATCH_JSON=$(CURDIR)/BENCH_batch_leap.json \
		$(GO) test -run TestRecordBatchLeapBench ./internal/ring

bench-batch-smoke:
	BENCH_BATCH_JSON=$${TMPDIR:-/tmp}/BENCH_batch_leap.check.json \
		$(GO) test -count=1 -run TestRecordBatchLeapBench ./internal/ring

bench-mmap-load:
	$(GO) run ./cmd/benchload -json $(CURDIR)/BENCH_mmap_load.json

serve-smoke:
	sh scripts/serve_smoke.sh

persist-smoke:
	sh scripts/persist_smoke.sh

mmap-smoke:
	sh scripts/mmap_smoke.sh

repl-smoke:
	sh scripts/repl_smoke.sh

# The environment wcobench/run.sh builds under: module-local resolution,
# no proxy, the installed toolchain.
wcobench-smoke:
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
		$(GO) -C wcobench test -count=1 ./...
