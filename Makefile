GO ?= go

.PHONY: check fmt vet build test race allocs fuzz-smoke serve-soak benchmark-smoke loc deadcode sweep

## check: the pre-merge gate — formatting, vet, build, the full suite under
## the race detector (which runs every CLI figure golden, chaos, resilience,
## guard and overload runs included, and the wall plane's one smoke
## test), the allocation pins, the nested benchmark module, and a short fuzz
## pass over the parsers that eat outside input. Run before every merge; CI
## and the tier-1 verify in ROADMAP.md assume it passes.
check: fmt vet build race allocs fuzz-smoke benchmark-smoke

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

## race: the full suite under the race detector. -short skips only the long
## runs: TestServeSoak, which serve-soak runs, and three long simulations. The
## wall plane's one smoke test, TestServeWallSmoke (~3 s), runs here.
race:
	$(GO) test -race -short ./...

## allocs: the allocation pins, without the race detector, under which
## most of them skip — so race alone never runs them. With -v each prints its
## reading. They are: sim_trace's mallocs and bytes a request
## (TestScenarioMallocsPerRequest, TestScenarioBytesPerRequest) and one DSB
## world's mallocs, cold and warm (TestDSBRunMallocs), and its bytes, warm
## (TestDSBRunBytes), in internal/bench; a
## warm control round and scrape tick (TestControlRoundMallocs,
## TestWarmScrapeTickDoesNotAllocate), in internal/core; one registration's
## layout rebuild (TestRegistrationRebuildAllocs) and a histogram
## re-registration (TestHistogramBoundsMismatchPanics), in internal/metrics;
## what one ten-minute recorder keeps live (TestTenMinuteRecorderHolds), in
## internal/bench; a second's latency window (TestOneSecondCostsOneWindow), in
## internal/histogram; a recorder's chunked seconds
## (TestRecorderSecondsAreChunked), in internal/loadgen; the admit path and a proxied request's bytes and
## mallocs (TestAdmitPathAllocsPinned, TestProxiedRequestBytes,
## TestProxiedRequestMallocs), in internal/serve;
## the series index's chunks, which fill their size class for a series
## and for a gate state (TestIndexChunkFillsItsSizeClass), and a warm parse
## of commented text (TestWarmCommentedParseAllocatesTheResult), in
## internal/metrics; a warm C3 assignment (TestC3WarmAssignDoesNotAllocate),
## in internal/c3; and a filtered pick — health failover's and the
## breaker's — over round-robin and a weighted split while the allowed
## subset changes (TestFilterPickAllocs), in internal/balancer; and filing
## a family's series in its posting lists, O(labels·log series) allocations
## (TestFamilyInsertAllocsAreLogarithmic), in internal/timeseries.
allocs:
	$(GO) test -count=1 -v -run '^Test(ScenarioMallocsPerRequest|ScenarioBytesPerRequest|DSBRunMallocs|DSBRunBytes|TenMinuteRecorderHolds|ControlRoundMallocs|WarmScrapeTickDoesNotAllocate|RegistrationRebuildAllocs|HistogramBoundsMismatchPanics|OneSecondCostsOneWindow|RecorderSecondsAreChunked|AdmitPathAllocsPinned|ProxiedRequestBytes|ProxiedRequestMallocs|IndexChunkFillsItsSizeClass|WarmCommentedParseAllocatesTheResult|C3WarmAssignDoesNotAllocate|FilterPickAllocs|FamilyInsertAllocsAreLogarithmic)$$' \
		./internal/bench ./internal/core ./internal/metrics ./internal/histogram ./internal/loadgen ./internal/serve ./internal/c3 ./internal/balancer ./internal/timeseries

## fuzz-smoke: five seconds of coverage-guided fuzzing over each parser that
## eats outside input — the chaos-schedule grammar (parse/String round-trip
## and validation), the /metrics exposition parser (never panics, rejects
## with a line number, agrees with the old parser on a cold series table, a
## warm one, a sibling text sharing series with the first and a mirror text
## of the same length, keeps every earlier pass's samples intact through the
## later reads, round-trips every generated registry), the two request headers the proxy parses
## (X-L3-Deadline: a budget in (0, default] or the default; X-L3-Criticality:
## always a valid tier) and the resilience and overload policy grammars (no
## NaN or infinity accepted, String re-parses to itself) — beyond their seed
## corpora; and the latency histogram's window arithmetic, whose Record,
## Merge, Reset and Snapshot sequences, bursts past the 65 535 observations
## it counts in 16 bits included, must answer every query as the dense
## whole-layout histogram does, bit for bit; and the latency recorder's
## chunked seconds, whose Record and Merge sequences must answer every read
## as the flat recorder does, bit for bit; and the admission core, whose
## verdicts, their delivery order and every count must match the old sim
## admission queue's on any stream of arrivals, completions, time steps and
## limit changes; and the series index, which must hand out one entry per
## series of a plain map keyed by name and Labels.Key(), create it exactly on
## the map's first sight and never twice, whatever maps, clones, turnovers,
## nil and empty maps, passes in either order and forced hash collisions it
## is fed. Each line caps the minimizing of a new input at one second: with
## Go's default of 60 s, four of the ten targets spent most of their five
## seconds minimizing and stopped executing inputs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseSchedule -fuzztime 5s -fuzzminimizetime 1s ./internal/chaos
	$(GO) test -run '^$$' -fuzz FuzzParseExposition -fuzztime 5s -fuzzminimizetime 1s ./internal/metrics
	$(GO) test -run '^$$' -fuzz FuzzDeadlineBudget -fuzztime 5s -fuzzminimizetime 1s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzParseTier -fuzztime 5s -fuzzminimizetime 1s ./internal/overload
	$(GO) test -run '^$$' -fuzz FuzzParsePolicy -fuzztime 5s -fuzzminimizetime 1s ./internal/resilience
	$(GO) test -run '^$$' -fuzz FuzzParsePolicy -fuzztime 5s -fuzzminimizetime 1s ./internal/overload
	$(GO) test -run '^$$' -fuzz FuzzHistogramMatchesDense -fuzztime 5s -fuzzminimizetime 1s ./internal/histogram
	$(GO) test -run '^$$' -fuzz FuzzRecorderMatchesFlat -fuzztime 5s -fuzzminimizetime 1s ./internal/loadgen
	$(GO) test -run '^$$' -fuzz FuzzAdmissionMatchesOracle -fuzztime 5s -fuzzminimizetime 1s ./internal/overload
	$(GO) test -run '^$$' -fuzz FuzzIndexMatchesOracle -fuzztime 5s -fuzzminimizetime 1s ./internal/metrics

## serve-soak: 10^6 POSTs each with 4 KiB and 64 KiB answers through a live
## proxy (closed loop, two clients, plain net/http upstreams), failing on any
## non-200, short body or transport error — the answer sizes at which the
## truncated-body defect showed about once in 50 000 requests. Minutes of
## wall clock, so not part of check; `go test ./...` runs the same test at
## 20 000 requests per size.
serve-soak:
	$(GO) test -run 'TestServeSoak$$' -count=1 -timeout 60m -v ./internal/serve -args -soak-requests 1000000

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

## deadcode: exported package-level funcs and types in internal/ that no
## non-test file of the module reads, benchmark/ included, then exported
## struct fields in internal/ that no non-test file outside their package
## writes (stdlib go/types: each write is attributed to the struct that
## declares the field; ~15 s, as it type-checks the standard library from
## source), then the run census: every command built with -cover, the
## figures, the -chaos goldens, the CLIs at their defaults and two short
## l3serve runs over loopback stubs, and every function no run entered
## (~100 s on 2 CPUs, budget 3 min). Not part of check: a name it prints
## gets a verdict, not a failure.
deadcode:
	$(GO) run scripts/deadcode.go

## sweep: the whole control round at 102, 1 020 and 3 060 backends
## (exposition, parse, gated append, then the reconcile — collect, assign,
## guard, split write and its fan-out to two watchers — ten warm rounds each
## on one CPU) — the fleet-size table in DESIGN.md § Control round cost.
## ns/backend should stay flat; allocs/op counts what a warm round still
## builds: the parse's result and two objects a written split; B/series is
## the heap in use after the rounds and a collection, per stored series. Beside
## it, ExpositionChurn: the round in which a series appears, one registration
## and the WritePrometheus that lays the text out again; its ns/sample should
## stay flat too, and small next to a warm round's. Then the round's two
## per-sample lines on the 102-backend text: ParseExposition, a warm parse
## (internal/metrics), and GatedAppend, every parsed sample through the
## hygiene gate into the DB (internal/timeseries); each prints ns/sample.
sweep:
	$(GO) test -run '^$$' -bench '(ControlRound|ExpositionChurn)/backends=(102|1020|3060)$$' -benchtime 10x -cpu 1 ./internal/core
	$(GO) test -run '^$$' -bench '^BenchmarkParseExposition$$' -cpu 1 ./internal/metrics
	$(GO) test -run '^$$' -bench '^BenchmarkGatedAppend$$' -cpu 1 ./internal/timeseries
