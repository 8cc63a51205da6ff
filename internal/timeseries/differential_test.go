package timeseries_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"l3/internal/guard"
	"l3/internal/metrics"
	"l3/internal/timeseries"
)

var diffFamilies = []struct {
	name string
	kind metrics.Kind
}{
	{"response_total", metrics.KindCounter},
	{"request_inflight", metrics.KindGauge},
	{"response_latency_bucket", metrics.KindCounter},
	{"response_latency_count", metrics.KindCounter},
}

// diffValues are the label universe; "" stands for "label absent" in a
// series and for an empty-value matcher in a selector.
var diffValues = map[string][]string{
	"backend":        {"b0", "b1", "b2", "b3"},
	"classification": {"success", "failure", ""},
	"src":            {"c1", "c2", ""},
	"le":             {"0.1", "0.5", "1", "2.5", "+Inf", "garbage", ""},
}
var diffLabelNames = []string{"backend", "classification", "src", "le"}

func randomSeriesLabels(rng *rand.Rand) metrics.Labels {
	l := metrics.Labels{}
	for _, name := range diffLabelNames {
		if v := diffValues[name][rng.Intn(len(diffValues[name]))]; v != "" {
			l[name] = v
		}
	}
	return l
}

func randomSelector(rng *rand.Rand) metrics.Labels {
	l := metrics.Labels{}
	for _, name := range diffLabelNames {
		switch rng.Intn(4) {
		case 0: // any universe value, "" included: matches series lacking the label
			l[name] = diffValues[name][rng.Intn(len(diffValues[name]))]
		case 1:
			if rng.Intn(8) == 0 {
				l[name] = "never-seen"
			}
		}
	}
	if rng.Intn(10) == 0 {
		l["unknown"] = []string{"", "x"}[rng.Intn(2)]
	}
	return l
}

// oracleQuantile calls the old HistogramQuantile, which indexed bounds[-1]
// when the only buckets that increased were +Inf ones; the indexed database
// answers "no estimate" there.
func oracleQuantile(db *oracleDB, q float64, name string, match metrics.Labels, at, window time.Duration) (v float64, ok bool) {
	defer func() {
		if recover() != nil {
			v, ok = 0, false
		}
	}()
	return db.HistogramQuantile(q, name, match, at, window)
}

// oracleDump is timeseries.Dump for the linear-scan database.
func oracleDump(db *oracleDB) map[string][]timeseries.Point {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make(map[string][]timeseries.Point)
	for name, byKey := range db.byName {
		for _, s := range byKey {
			out[name+s.labels.String()] = append([]timeseries.Point(nil), s.points...)
		}
	}
	return out
}

// TestQueriesMatchLinearScanOracle drives the indexed database and the old
// linear-scan one through the same seeded streams — series appearing
// mid-stream, duplicate and out-of-order stamps, retention compaction,
// counter resets, and (every other case) a hygiene gate rejecting garbage and
// splicing resets — and requires every query to return the same bits, the
// stored points to be equal and the two gates to count and answer LastReset
// alike. The indexed side keeps one label map per series across steps, as
// the parse table does, and turns some over mid-stream; some maps serve two
// families, some are nil or empty. The oracle side clones the labels for
// every sample, so its gate resolves each by hash. Postings never hash, so
// forcing label hashes to collide is the index's own test
// (metrics.TestIndexKeepsCollidingLabelSetsApart).
func TestQueriesMatchLinearScanOracle(t *testing.T) {
	const cases = 1200
	queries, appends := 0, 0
	for c := 0; c < cases; c++ {
		rng := rand.New(rand.NewSource(int64(c)))
		retention := time.Duration(10+rng.Intn(50)) * time.Second
		db, oracle := timeseries.NewDB(retention), newOracleDB(retention)
		gated := c%2 == 1
		hygReg, oracleHygReg := metrics.NewRegistry(), metrics.NewRegistry()
		hyg, oracleHyg := guard.NewHygiene(guard.Config{}, hygReg), guard.NewHygiene(guard.Config{}, oracleHygReg)
		if gated {
			db.SetGate(hyg)
			oracle.SetGate(oracleHyg)
		}
		type live struct {
			family int
			labels metrics.Labels
			value  float64
		}
		var series []*live
		now := time.Duration(0)
		for step := 0; step < 12+rng.Intn(20); step++ {
			switch rng.Intn(10) {
			case 0: // a double-fired scrape: same stamp again
			case 1:
				now -= time.Duration(rng.Intn(8)) * time.Second // a skewed scraper
			default:
				now += time.Duration(1+rng.Intn(9)) * time.Second
			}
			for n := rng.Intn(4); n > 0; n-- { // series created mid-stream
				s := &live{family: rng.Intn(len(diffFamilies)), labels: randomSeriesLabels(rng)}
				switch {
				case len(s.labels) == 0 && rng.Intn(2) == 0:
					s.labels = nil
				case len(series) > 0 && rng.Intn(5) == 0: // one map, two names
					other := series[rng.Intn(len(series))]
					s.family, s.labels = (other.family+1+rng.Intn(len(diffFamilies)-1))%len(diffFamilies), other.labels
				}
				series = append(series, s)
			}
			for _, s := range series {
				if rng.Intn(6) == 0 {
					continue // missing from this scrape
				}
				if s.labels != nil && rng.Intn(12) == 0 {
					s.labels = s.labels.Clone() // the parse table turned over
				}
				f := diffFamilies[s.family]
				switch {
				case f.kind == metrics.KindGauge:
					s.value = float64(rng.Intn(50)) / 7
				case rng.Intn(25) == 0:
					s.value = float64(rng.Intn(3)) / 3 // the process restarted
				case rng.Intn(40) == 0:
					s.value *= 0.9 // a shallow decrease: anomaly to the gate, reset to increase()
				default:
					s.value += float64(rng.Intn(1000)) / 9
				}
				v := s.value
				if gated && rng.Intn(30) == 0 {
					v = []float64{math.NaN(), math.Inf(1), -1}[rng.Intn(3)]
				}
				db.AppendSample(f.name, s.labels, f.kind, now, v)
				oracle.AppendSample(f.name, s.labels.Clone(), f.kind, now, v)
				appends++
			}
			if err := sameDump(timeseries.Dump(db), oracleDump(oracle)); err != nil {
				t.Fatalf("case %d step %d: %v", c, step, err)
			}
			if err := sameCounters(hygReg, oracleHygReg); err != nil {
				t.Fatalf("case %d step %d: hygiene: %v", c, step, err)
			}
			for _, match := range []metrics.Labels{nil, {"backend": "b1"}, {"classification": "failure"}} {
				gt, gok := hyg.LastReset(match)
				wt, wok := oracleHyg.LastReset(match)
				if gt != wt || gok != wok {
					t.Fatalf("case %d step %d: LastReset(%v) = (%v, %v), oracle gate (%v, %v)", c, step, match, gt, gok, wt, wok)
				}
			}
			for n := 0; n < 6; n++ {
				match := randomSelector(rng)
				at := now + time.Duration(rng.Intn(12)-4)*time.Second
				window := time.Duration(1+rng.Intn(40)) * time.Second
				name := diffFamilies[rng.Intn(len(diffFamilies))].name
				q := rng.Float64()
				check := func(what string, got float64, gotOK bool, want float64, wantOK bool) {
					t.Helper()
					queries++
					if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("case %d step %d: %s(%s%v at=%v window=%v) = (%v, %v), oracle (%v, %v)",
							c, step, what, name, match, at, window, got, gotOK, want, wantOK)
					}
				}
				g, gok := db.Rate(name, match, at, window)
				w, wok := oracle.Rate(name, match, at, window)
				check("Rate", g, gok, w, wok)
				g, gok = db.GaugeAvg(name, match, at, window)
				w, wok = oracle.GaugeAvg(name, match, at, window)
				check("GaugeAvg", g, gok, w, wok)
				g, gok = db.Latest(name, match, at)
				w, wok = oracle.Latest(name, match, at)
				check("Latest", g, gok, w, wok)
				gt, gok := db.NewestSample(name, match)
				wt, wok := oracle.NewestSample(name, match)
				check("NewestSample", float64(gt), gok, float64(wt), wok)
				g, gok = db.HistogramQuantile(q, "response_latency", match, at, window)
				w, wok = oracleQuantile(oracle, q, "response_latency", match, at, window)
				check(fmt.Sprintf("HistogramQuantile q=%v", q), g, gok, w, wok)
			}
		}
	}
	t.Logf("%d cases, %d queries bit-identical to the linear-scan oracle over %d appends", cases, queries, appends)
}
