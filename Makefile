GO ?= go

.PHONY: check fmt vet build test race chaos-smoke resilience-smoke guard-smoke fuzz-smoke shards-vet shards-smoke serve-smoke serve-chaos-smoke serve-soak overload-smoke bench bench-smoke bench-diff benchmark-smoke loc

## check: the pre-merge gate — formatting, vet, build, the full suite under
## the race detector, chaos + resilience + guard + shards + serve + bench
## smoke runs, the nested benchmark module, and a short fuzz pass over the
## chaos-schedule and exposition parsers. Run before every merge; CI and the tier-1 verify
## in ROADMAP.md assume it passes.
check: fmt vet build race chaos-smoke resilience-smoke guard-smoke fuzz-smoke shards-vet shards-smoke serve-smoke serve-chaos-smoke overload-smoke bench-smoke benchmark-smoke

## fmt: fail if any file needs gofmt (prints the offenders).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race: the full suite under the race detector. -short skips only the
## wall-clock serve smoke, which serve-smoke below runs explicitly (with its
## report shown) so the 25 s pass doesn't run twice per check.
race:
	$(GO) test -race -short ./...

## chaos-smoke: a quick partition+heal chaos run through the CLI — proves
## the fault engine injects, heals and reports end to end.
chaos-smoke:
	$(GO) run ./cmd/l3bench -chaos 'partition@48s+24s:cluster-1/cluster-2' \
		-scenario scenario-1 -quick >/dev/null

## resilience-smoke: the retry-storm figure plus a policy-driven chaos run
## through the CLI — proves deadlines, budgets, per-try timeouts and the
## breaker compose end to end on the data plane.
resilience-smoke:
	$(GO) run ./cmd/l3bench -fig R1 -quick >/dev/null
	$(GO) run ./cmd/l3bench -chaos 'saturate@48s+24s:api-cluster-1/0.25' \
		-scenario scenario-1 -quick \
		-resilience 'deadline=1s,retries=3,budget=0.2,breaker=5' >/dev/null

## guard-smoke: the partial-visibility guard figure plus a guarded custom
## chaos run through the CLI — proves metric hygiene, degraded modes and
## the write gate compose end to end on the control plane.
guard-smoke:
	$(GO) run ./cmd/l3bench -fig G2 -quick >/dev/null
	$(GO) run ./cmd/l3bench -chaos 'garbage@48s+24s:nan' \
		-scenario scenario-1 -quick -guard >/dev/null

## fuzz-smoke: five seconds of coverage-guided fuzzing over each parser that
## eats outside input — the chaos-schedule grammar (parse/String round-trip
## and validation), the /metrics exposition parser (never panics, rejects
## with a line number, agrees with the old parser on a cold series table, a
## warm one and a sibling text sharing series with the first, round-trips
## every generated registry) and the two request headers the proxy parses
## (X-L3-Deadline: a budget in (0, default] or the default; X-L3-Criticality:
## always a valid tier) — beyond their seed corpora.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseSchedule -fuzztime 5s ./internal/chaos
	$(GO) test -run '^$$' -fuzz FuzzParseExposition -fuzztime 5s ./internal/metrics
	$(GO) test -run '^$$' -fuzz FuzzDeadlineBudget -fuzztime 5s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzParseTier -fuzztime 5s ./internal/overload

## shards-vet: formatting and vet focused on the sharded core's packages —
## the fan-out/barrier code is where a stray data race or un-gofmt'd hot
## patch costs the most, so the gate names them explicitly (and fails fast,
## before the heavier smokes).
shards-vet:
	@out="$$(gofmt -l internal/sim internal/mesh internal/bench internal/perf)"; \
	if [ -n "$$out" ]; then \
		echo "shards-vet: gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./internal/sim ./internal/mesh ./internal/bench ./internal/perf
	@echo "shards-vet: shard packages gofmt-clean and vetted"

## shards-smoke: figure 8 through the CLI on the sharded core at 1 and 4
## workers, stdout sha256-compared — proves the lookahead/barrier protocol
## keeps a full figure byte-identical at any worker count. A second pass
## runs a resilience policy (deadline, budgeted retries, breaker) under a
## saturate fault at -shards 1 and 8 — the cross-shard continuation path —
## with the same sha comparison. Figure S1 proves the 8-shard workload
## renders.
shards-smoke:
	@a="$$($(GO) run ./cmd/l3bench -fig 8 -quick -shards 1 2>/dev/null | shasum -a 256 | cut -d' ' -f1)"; \
	b="$$($(GO) run ./cmd/l3bench -fig 8 -quick -shards 4 2>/dev/null | shasum -a 256 | cut -d' ' -f1)"; \
	if [ "$$a" != "$$b" ]; then \
		echo "shards-smoke: -shards 1 ($$a) != -shards 4 ($$b)"; exit 1; fi; \
	echo "shards-smoke: fig 8 sha256 $$a identical at -shards 1 and 4"
	@a="$$($(GO) run ./cmd/l3bench -chaos 'saturate@48s+24s:api-cluster-1/0.25' \
		-scenario scenario-1 -quick -shards 1 \
		-resilience 'deadline=1s,retries=3,budget=0.2,breaker=5' 2>/dev/null | shasum -a 256 | cut -d' ' -f1)"; \
	b="$$($(GO) run ./cmd/l3bench -chaos 'saturate@48s+24s:api-cluster-1/0.25' \
		-scenario scenario-1 -quick -shards 8 \
		-resilience 'deadline=1s,retries=3,budget=0.2,breaker=5' 2>/dev/null | shasum -a 256 | cut -d' ' -f1)"; \
	if [ "$$a" != "$$b" ]; then \
		echo "shards-smoke: resilience under -shards 1 ($$a) != -shards 8 ($$b)"; exit 1; fi; \
	echo "shards-smoke: resilience-under-shards sha256 $$a identical at -shards 1 and 8"
	$(GO) run ./cmd/l3bench -fig S1 >/dev/null

## serve-smoke: the wall-clock serving mode end to end under the race
## detector — l3serve + stub backends on ephemeral ports, ~1.8k proxied
## requests of open-loop load per run, asserting the self-scraped /metrics
## parse, the L3 weight shift off the slow backend, the p99 win over
## round-robin and zero dropped requests across every graceful drain.
serve-smoke:
	$(GO) test -race -run 'TestServeSmoke$$' -count=1 -v ./internal/serve

## serve-chaos-smoke: the wall-clock chaos harness end to end under the race
## detector — the compressed fault schedule (backend stall, connection-reset
## burst, control-plane scrape outage) against the live proxy, asserting the
## breaker ejects within its failure bound, windowed p99 re-converges with a
## measured time-to-recover, and fail-static engages and releases.
serve-chaos-smoke:
	$(GO) test -race -run 'TestServeChaosSmoke' -count=1 -v ./internal/serve

## serve-soak: 10^6 POSTs each with 4 KiB and 64 KiB answers through a live
## proxy (closed loop, two clients, plain net/http upstreams), failing on any
## non-200, short body or transport error — the answer sizes at which the
## truncated-body defect showed about once in 50 000 requests. Minutes of
## wall clock, so not part of check; `go test ./...` runs the same test at
## 20 000 requests per size.
serve-soak:
	$(GO) test -run 'TestServeSoak$$' -count=1 -timeout 60m -v ./internal/serve -args -soak-requests 1000000

## overload-smoke: the admission-control layer end to end — the O1 quick
## golden (saturation collapse vs limiter+CoDel) through the CLI, then the
## wall-clock overload scene under the race detector: a saturating square
## wave against the live admission-controlled proxy, asserting bounded queue
## delay, tier-ordered shedding, live in-flight gauges and full tier
## re-admission.
overload-smoke:
	$(GO) run ./cmd/l3bench -fig O1 -quick >/dev/null
	$(GO) test -race -run 'TestServeOverloadScene' -count=1 -v ./internal/serve

## bench: the fast-path benchmark suite (mesh.Call, metrics, histogram, event
## heap), machine-readable results in BENCH_fastpath.json, plus the
## shard-scaling sweep in BENCH_shards.json and the wall-clock serving-mode
## records in BENCH_serve.json — the rr-vs-l3 skewed-stub trajectory (rps,
## p50/p99/p999, proxy-layer allocs/op) and the chaostest recovery records
## (per-fault time-to-recover, breaker ejections, fail-static engagement).
bench:
	$(GO) run ./cmd/l3bench -bench -benchout BENCH_fastpath.json
	$(GO) run ./cmd/l3bench -bench-shards -benchout BENCH_shards.json
	$(GO) run ./cmd/l3serve -selftest -chaostest -bench-out BENCH_serve.json

## bench-smoke: the same suite discarding results — proves the benchmark
## harness runs end to end.
bench-smoke:
	$(GO) run ./cmd/l3bench -bench -benchout /dev/null

## benchmark-smoke: vet and test the repo benchmark (BENCHMARK.json). It is
## its own module (benchmark/go.mod replaces l3 with this checkout), so
## `go build ./...` and `go test ./...` at the root never compile it — this
## is what catches an internal API change that would break it.
benchmark-smoke:
	cd benchmark && $(GO) vet . && $(GO) test -count=1 .

## loc: non-test Go lines outside benchmark/ — the size every
## simplification PR reports before and after.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 \
		| xargs -0 cat | wc -l

## bench-diff: re-measure the benchmark suites against the committed
## baselines and fail on >15% ns/op or any allocs/op regression
## (BENCH_fastpath.json gates the fast-path suite, BENCH_shards.json the
## barrier/mailbox pair). BENCH_serve.json is load-dependent wall-clock, so
## its pass checks the host-independent contracts instead of re-timing:
## 0 proxy-layer allocs/op, l3 beating rr's p99, and every chaos record
## showing recovery (breaker ejections, fail-static, ttr). Wall-clock
## comparisons are only meaningful on hardware comparable to the machine
## that wrote the baselines — regenerate them with `make bench` when the
## host changes.
bench-diff:
	$(GO) run ./cmd/l3bench -benchdiff BENCH_fastpath.json
	$(GO) run ./cmd/l3bench -benchdiff BENCH_shards.json
	$(GO) run ./cmd/l3bench -benchdiff BENCH_serve.json
