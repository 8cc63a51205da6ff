package main

import (
	"fmt"
	"io"
	"math"
)

// selfcheck is the repeatability gate: two sets of runs of this one binary,
// alternating A, B, A, B, ... on seeds seed, seed+1, ... Identical code must
// agree with itself within every end-to-end metric's bound, or the bound
// cannot tell a regression from the host's noise.
func selfcheck(o options, selected []workload, human, out io.Writer) error {
	n := o.runs
	if n == 1 {
		n = 5
	}
	var failures []string
	for _, wl := range selected {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			p := params{seed: o.seed + uint64(i), seconds: o.seconds}
			rec, err := runOnce(wl, p, false, o.outDir, human)
			if err != nil {
				return fmt.Errorf("%s: %w", wl.name, err)
			}
			emit(out, o, wl, p.seed, rec)
			if !rec.Correct {
				failures = append(failures, fmt.Sprintf("%s seed %d: incorrect", wl.name, p.seed))
			}
			for name, m := range rec.Metrics {
				sets[i%2][name] = append(sets[i%2][name], m.Value)
			}
		}
		fmt.Fprintf(human, "\n-- selfcheck %s: set A | set B as median [q1, q3], then their difference against the bound\n", wl.name)
		for _, d := range endToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			ma, mb := median(a), median(b)
			a1, a3 := quartiles(a)
			b1, b3 := quartiles(b)
			diff := 0.0
			if ma != 0 {
				diff = math.Abs(mb-ma) / math.Abs(ma)
			}
			verdict := "ok"
			if diff > d.Bound {
				verdict = "FAIL"
				failures = append(failures, fmt.Sprintf("%s %s: medians %.6g and %.6g differ by %.1f %% (bound %.0f %%)", wl.name, d.Name, ma, mb, 100*diff, 100*d.Bound))
			}
			fmt.Fprintf(human, "  %-20s %12.6g [%.6g, %.6g] | %12.6g [%.6g, %.6g] %-5s diff %5.2f %% spreads %.2f %% %.2f %% (bound %.0f %%) %s\n",
				d.Name, ma, a1, a3, mb, b1, b3, d.Unit, 100*diff, 100*spread(a), 100*spread(b), 100*d.Bound, verdict)
		}
	}
	for _, f := range failures {
		fmt.Fprintln(human, "SELFCHECK FAILED:", f)
	}
	if len(failures) > 0 {
		return fmt.Errorf("selfcheck: %d failures", len(failures))
	}
	fmt.Fprintln(human, "selfcheck: every end-to-end metric of every workload agrees with itself within its bound")
	return nil
}
