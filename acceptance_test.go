package repro

import (
	"fmt"
	"testing"

	"repro/internal/cql"
	"repro/internal/metrics"
)

// TestAcceptanceQueryMatrix drives the whole stack — CQL parsing, workload
// generation, disorder handling, window evaluation, oracle comparison —
// across a matrix of statements, asserting the quality contract each
// statement declares. This is the top-level "does the system do what it
// says on the box" suite.
func TestAcceptanceQueryMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("acceptance matrix is slow")
	}
	cases := []struct {
		stmt string
		n    int
		// maxMeanErr asserts the achieved mean relative error; < 0 skips
		// the check (e.g. handlers with no quality contract).
		maxMeanErr float64
	}{
		{"SELECT sum(value) FROM sensor WINDOW 10s SLIDE 1s QUALITY 1%", 60000, 0.01},
		{"SELECT count(value) FROM sensor WINDOW 10s SLIDE 1s QUALITY 2%", 60000, 0.02},
		{"SELECT avg(value) FROM bursty WINDOW 10s SLIDE 1s QUALITY 1%", 60000, 0.01},
		{"SELECT median(value) FROM cdr WINDOW 30s SLIDE 5s QUALITY 5%", 40000, 0.05},
		{"SELECT sum(value) FROM stock WINDOW 10s SLIDE 2s QUALITY 2%", 40000, 0.02},
		{"SELECT sum(value) FROM sensor WINDOW 10s SLIDE 1s HANDLER maxslack", 40000, 0.001},
		{"SELECT sum(value) FROM sensor WINDOW 10s SLIDE 1s HANDLER punctuated", 40000, 0.0},
		{"SELECT sum(value) FROM simnet WINDOW 10s SLIDE 1s QUALITY 1%", 40000, 0.01},
		{"SELECT stddev(value) FROM sensor WINDOW 10s SLIDE 1s QUALITY 2%", 40000, 0.02},
		{"SELECT p95(value) FROM cdr WINDOW 30s SLIDE 5s QUALITY 5%", 40000, 0.05},
		{"SELECT sum(value) FROM sensor WINDOW 10s SLIDE 1s HANDLER kslack(8s)", 40000, 0.002},
		{"SELECT sum(value) FROM sensor WINDOW 10s SLIDE 1s HANDLER none", 40000, -1},
		{"SELECT sum(value) FROM sensor WINDOW 10s SLIDE 1s HANDLER wm(95%)", 40000, -1},
	}
	for i, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%02d", i), func(t *testing.T) {
			t.Parallel()
			q, err := cql.Parse(c.stmt)
			if err != nil {
				t.Fatalf("%s: %v", c.stmt, err)
			}
			rep, err := q.RunTraced(c.n, uint64(100+i), nil)
			if err != nil {
				t.Fatalf("%s: %v", c.stmt, err)
			}
			if len(rep.Results) == 0 {
				t.Fatalf("%s: no results", c.stmt)
			}
			quality := rep.Quality(q.Spec, q.Agg, metrics.CompareOpts{
				Theta: q.Quality, SkipWarmup: 20, SkipEmptyOracle: true,
			})
			if quality.Windows == 0 {
				t.Fatalf("%s: no windows compared", c.stmt)
			}
			if c.maxMeanErr >= 0 && quality.MeanRelErr > c.maxMeanErr {
				t.Errorf("%s: meanErr %.5f exceeds contract %.5f (%v)",
					c.stmt, quality.MeanRelErr, c.maxMeanErr, quality)
			}
			// Latency must always be measured and non-negative.
			if lat := rep.Latency(20); lat.Results > 0 && lat.Mean < 0 {
				t.Errorf("%s: negative mean latency %v", c.stmt, lat.Mean)
			}
		})
	}
}

// TestAcceptanceGroupedQuery covers the grouped path end to end.
func TestAcceptanceGroupedQuery(t *testing.T) {
	q, err := cql.Parse("SELECT sum(value) FROM cdr GROUP BY key WINDOW 30s SLIDE 10s QUALITY 5%")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := q.RunTraced(40000, 77, nil)
	if err != nil {
		t.Fatal(err)
	}
	quality := rep.KeyedQuality(q.Spec, q.Agg, metrics.CompareOpts{
		Theta: q.Quality, SkipWarmup: 3, SkipEmptyOracle: true,
	})
	if quality.Windows == 0 {
		t.Fatal("no keyed windows compared")
	}
	if quality.MeanRelErr > q.Quality {
		t.Errorf("grouped quality contract violated: %v", quality)
	}
}

// TestAcceptanceThetaMonotonicity pins the headline claim at small scale:
// tighter quality bounds must not lower latency.
func TestAcceptanceThetaMonotonicity(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	meanLat := func(theta string) float64 {
		q, err := cql.Parse("SELECT sum(value) FROM sensor WINDOW 10s SLIDE 1s QUALITY " + theta)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := q.RunTraced(80000, 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Latency(20).Mean
	}
	tight := meanLat("0.3%")
	mid := meanLat("1%")
	loose := meanLat("5%")
	if !(tight > mid && mid > loose) {
		t.Fatalf("latency not monotone in theta: 0.3%%=%v 1%%=%v 5%%=%v", tight, mid, loose)
	}
}
