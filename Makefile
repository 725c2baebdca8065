# Tier-1 gate: everything `make check` runs must stay green. CI and the
# pre-merge checklist call this target; keep it fast enough to run on
# every change (the fuzz pass is deliberately short — use `make fuzz`
# for longer runs).

GO ?= go
FUZZTIME ?= 5s

.PHONY: check fmt vet build test race fuzz-short fuzz doccheck api-test bench-smoke bench-inproc-smoke dst crash cover

check: fmt vet build race fuzz-short api-test dst crash doccheck bench-smoke bench-inproc-smoke

# Formatting gate: gofmt must have nothing to say about any Go file, the
# bench/ module's included.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l . lists files to format:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# A brief pass over each fuzz target's corpus plus a little exploration;
# regressions in the buffer/sketch invariants surface here quickly.
fuzz-short:
	$(GO) test ./internal/buffer -run '^$$' -fuzz '^FuzzKSlackInvariants$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/buffer -run '^$$' -fuzz '^FuzzPercentileHandler$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/buffer -run '^$$' -fuzz '^FuzzTupleRingOrder$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stats -run '^$$' -fuzz '^FuzzLogHist$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cql -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/window -run '^$$' -fuzz '^FuzzOrderStatisticWindows$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/window -run '^$$' -fuzz '^FuzzObserveRunMatchesObserve$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/durable -run '^$$' -fuzz '^FuzzJournalRecord$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netstream -run '^$$' -fuzz '^FuzzLineProtocol$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netstream -run '^$$' -fuzz '^FuzzParserDifferential$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netstream -run '^$$' -fuzz '^FuzzValueKernel$$' -fuzztime $(FUZZTIME)
	$(GO) test ./cmd/aqserver -run '^$$' -fuzz '^FuzzQueryAPI$$' -fuzztime $(FUZZTIME)

# Socket-level integration suite for the network control plane: a real
# aqserver on ephemeral ports, queries registered over HTTP, tuples
# streamed over TCP, output compared byte-for-byte against the in-process
# cq engine (see docs/API.md "Testing"). Always under the race detector.
api-test:
	$(GO) test ./cmd/aqserver -race -count=1 \
		-run 'TestAPI|TestRuntimeQueryMetricLabelParity'

# Deterministic simulation sweep under the race detector: every seed runs
# the full differential oracle (sync/concurrent equivalence, quality
# contract, metamorphic relations) plus the committed regression
# transcripts. DST_SEEDS widens the matrix (nightly runs use hundreds);
# the default keeps `make check` fast. The timeout is go test's 10-minute
# default raised for the wide runs: 400 seeds take about 12 minutes on two
# cores.
DST_SEEDS ?= 12
dst:
	DST_SEEDS=$(DST_SEEDS) $(GO) test ./internal/dst -race -count=1 -timeout 60m

# Crash-recovery sweep under the race detector: each seed runs a query to
# a randomized crash point, optionally corrupts the journal tail, recovers
# over the damaged directory, and checks the continuation + quality oracle
# (see internal/dst/crash.go). DST_CRASH_SEEDS widens the matrix; nightly
# runs use hundreds, under the same raised timeout as dst.
DST_CRASH_SEEDS ?= 12
crash:
	DST_CRASH_SEEDS=$(DST_CRASH_SEEDS) $(GO) test ./internal/dst -race -count=1 -timeout 60m -run '^TestCrash'

# Coverage gate: per-package breakdown plus a repo-level floor. The floor
# and a committed snapshot live in COVERAGE.md; raise the baseline when
# coverage genuinely improves, never lower it to make a change pass.
COVER_FLOOR ?= 70
cover:
	$(GO) test ./... -count=1 -coverprofile=cover.out -covermode=atomic > /dev/null
	@$(GO) tool cover -func=cover.out | awk '\
		{ pkg = $$1; sub(/\/[^\/]+:.*$$/, "", pkg); gsub(/%/, "", $$NF) } \
		$$1 != "total:" { sum[pkg] += $$NF; n[pkg]++ } \
		$$1 == "total:" { total = $$NF } \
		END { \
			for (p in sum) printf "%-40s %6.1f%%\n", p, sum[p] / n[p] | "sort"; \
			close("sort"); \
			printf "%-40s %6.1f%% (floor $(COVER_FLOOR)%%)\n", "total (by statement)", total; \
			if (total + 0 < $(COVER_FLOOR)) { \
				printf "FAIL: total coverage %.1f%% below the $(COVER_FLOOR)%% floor (see COVERAGE.md)\n", total; \
				exit 1; \
			} \
		}'

# Documentation gate: `go vet`-clean telemetry packages (vet ./... above
# already covers them; this pins them even if the wide vet target
# changes), no dead relative links in any *.md file, the metric catalog
# in step with the code, and the structural lints that keep the execution
# loop and the durability protocol in one file (TestOneExecutor), the
# error model's Monte-Carlo in one loop (TestOneErrorSimulation), the
# wire grammar in one parser (TestOneFrameParser), open-window
# evaluation on one core (TestOneAggregationCore), ingest on one queue, the
# fan-out ring (TestOneIngestQueue), grouped queries on one window
# stage inside the step (TestOneWindowStage), queries behind one fixed
# handler on one disorder pass, grouped by one key from one subscription
# path (TestOneDisorderPass), every metric name registered in one
# file, by one instrument set (TestOneInstrumentSet), and fan-out batch
# recycling in one compare-and-swap-guarded function (TestOneRecycleSite),
# an adaptive query's windows computed once, by its own operator
# (TestOneWindowComputation), raw syscalls, which skip the runtime's
# syscall hook, confined to the listener's non-blocking read(2)
# (TestOneRawRead), the disorder buffer's flight-recorder events
# written by the executor alone, with no handler wrapper in between
# (TestOneBufferTrace), and the fan-out ring read by one loop,
# cq.Group.Run, whatever the driver (TestOneRingConsumer). One adaptive
# control loop, core.AQKSlack, serves aggregates and joins alike
# (TestOneAdaptiveHandler), whose only settings are the query's bound and
# the few a program sets (TestOneQualityKnob). No code that only tests reach: every func,
# method, type, const and var outside bench/ is reachable from a main, an
# init, a package-level var or the lint's short allowlist
# (TestNoTestOnlyCode), and no setting that only tests set: every
# exported field of the listed option structs is set by a program outside
# its package and the simulation harness, or is a reasoned seam
# (TestNoTestOnlySetting). The -run pattern takes every TestOne* lint, so
# a new one cannot be left out.
doccheck:
	$(GO) vet ./internal/obs/...
	$(GO) test . -run '^Test(DocLinks|MetricsCatalog|One[A-Za-z]+|NoTestOnlyCode|NoTestOnlySetting)$$'

# The benchmark harness is a module of its own (bench/), so the root
# build and tests never see it; its smoke test (every workload, traced,
# at a fifth of the rate, ~20 s) is what keeps it compiling and passing
# against internal/cq, window, durable and the server's flags.
bench-smoke:
	$(GO) test -C bench ./...

# One iteration of each in-process step and loss-curve benchmark: a
# benchmark that panics or stops compiling fails here, not at the next
# measurement. -run '^$$' keeps the packages' tests out of it.
bench-inproc-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkExecStep|BenchmarkLossCurve' -benchtime 1x ./internal/core ./internal/cq

# In-process benchmarks (bench_test.go, bench_fanout_test.go,
# bench_history_test.go) have no target of their own: run them with
# `go test -bench <name> -benchmem -run '^$$' .` — EXPERIMENTS.md R16, R18,
# R20 and R21 name theirs. End-to-end numbers come from bench/aqbench.

fuzz: FUZZTIME = 60s
fuzz: fuzz-short
