package dst

import (
	"crypto/sha256"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/stream"
)

// joinPlan is one seed's join workload: two Src-tagged sides of N tuples
// each, keys, band, delay distribution and the disorder handler in front of
// the join — the join query's counterpart of Plan, drawn by
// joinPlanForSeed.
type joinPlan struct {
	Seed     uint64
	N        int
	Interval stream.Time
	Keys     int // <= 1: a pure band join (no key match)
	Band     stream.Time
	Delay    DelayPlan
	Handler  string      // none | kslack | maxslack | aq
	K        stream.Time // kslack
	Recall   float64     // aq
}

func (p joinPlan) String() string {
	return fmt.Sprintf("join{seed=%d n=2x%d ival=%d keys=%d band=%d delay=%s/%g handler=%s k=%d recall=%g}",
		p.Seed, p.N, p.Interval, p.Keys, p.Band, p.Delay.Kind, p.Delay.Mean, p.Handler, p.K, p.Recall)
}

// joinPlanForSeed derives a join plan from a seed, on a random stream of its
// own so that PlanForSeed's plans — and every committed transcript — stay
// as they are.
func joinPlanForSeed(seed uint64) joinPlan {
	rng := stats.NewRNG(seed ^ 0x6a6f696e) // "join"
	p := joinPlan{
		Seed:     seed,
		N:        1000 + rng.Intn(2000),
		Interval: []stream.Time{10, 20}[rng.Intn(2)],
		Keys:     []int{1, 4, 16, 64}[rng.Intn(4)],
		Band:     []stream.Time{100, 250, 500}[rng.Intn(3)],
		Delay: DelayPlan{
			Kind: []string{"zero", "constant", "exp", "normal", "pareto", "burst", "step"}[rng.Intn(7)],
			Mean: float64(50 + rng.Intn(450)),
		},
		Handler: []string{"none", "kslack", "maxslack", "aq", "aq"}[rng.Intn(5)],
	}
	switch p.Handler {
	case "kslack":
		p.K = stream.Time(50 + rng.Intn(2000))
	case "aq":
		p.Recall = []float64{0.9, 0.95, 0.99}[rng.Intn(3)]
	}
	return p
}

func (p joinPlan) config() join.Config {
	return join.Config{Band: p.Band, KeyMatch: p.Keys > 1, RetainFor: 60 * stream.Second}
}

// sides generates the plan's two arrival-ordered sides.
func (p joinPlan) sides() (left, right []stream.Tuple) {
	side := func(src uint8) []stream.Tuple {
		ts := gen.Config{
			N: p.N, Interval: p.Interval, Poisson: true, NumKeys: p.Keys,
			Values: gen.UniformValue{Lo: 0, Hi: 100},
			Delays: p.Delay.Model(),
			Seed:   2*p.Seed + uint64(src),
		}.Arrivals()
		for i := range ts {
			ts[i].Src = src
		}
		return ts
	}
	return side(0), side(1)
}

// handler builds the plan's handler.
func (p joinPlan) handler() buffer.Handler {
	switch p.Handler {
	case "kslack":
		return buffer.NewKSlack(p.K)
	case "maxslack":
		return buffer.NewMaxSlack()
	case "aq":
		return core.NewAQJoin(core.JoinConfig{Recall: p.Recall, Band: p.Band})
	}
	return buffer.Zero()
}

// recallChecked reports whether the plan carries the recall contract: the
// adaptive join handler under a stationary delay distribution, as
// Plan.qualityChecked decides it for the aggregate.
func (p joinPlan) recallChecked() bool {
	return p.Handler == "aq" && p.Delay.Kind != "step" && p.Delay.Kind != "burst"
}

// runJoin executes a join query over the two sides behind h and returns its
// report and a digest of its output: every pair in order, and the join's and
// the handler's statistics.
func runJoin(t *testing.T, cfg join.Config, left, right []stream.Tuple, h buffer.Handler) (*cq.JoinReport, string) {
	t.Helper()
	rep, err := cq.NewJoin(stream.FromTuples(left), stream.FromTuples(right), cfg).Handle(h).Run()
	if err != nil {
		t.Fatal(err)
	}
	d := sha256.New()
	for _, r := range rep.Results {
		fmt.Fprintf(d, "%+v\n", r)
	}
	fmt.Fprintf(d, "%+v\n%+v\n", rep.Join, rep.Handler)
	return rep, fmt.Sprintf("%x", d.Sum(nil))
}

// joinWarmup is how many tuples of each side the recall contract leaves
// out: a pair of two of them is completed while the adaptive join handler
// still calibrates (core.JoinConfig's default WarmupTuples), as the
// aggregate's quality contract skips its warm-up windows.
const joinWarmup = 200

// joinRecallSlack is ε of the recall contract: how far below its target the
// adaptive join handler's recall past the warm-up may end. Measured over
// seeds 0–399 it never ended below (the closest: 0.3 points above, 0.7 over
// seeds 0–99), so ε is one point of margin. Over the whole stream, warm-up
// included, it fell up to 4.6 points short on the shortest streams.
const joinRecallSlack = 0.01

// steadyRecall is the share of the oracle's pairs, less those of two warm-up
// tuples, that were emitted.
func steadyRecall(emitted, oracle map[metrics.Pair]struct{}) float64 {
	hit, total := 0, 0
	for pr := range oracle {
		if max(pr.Left, pr.Right) < joinWarmup {
			continue
		}
		total++
		if _, ok := emitted[pr]; ok {
			hit++
		}
	}
	if total == 0 {
		return 1
	}
	return float64(hit) / float64(total)
}

// TestDSTJoinSweep runs the seed-derived join plans through the join's
// contracts:
//
//  1. K-slack with K past the largest delay emits exactly the oracle's pairs;
//  2. precision is 1 for every handler: buffering never fabricates a pair;
//  3. the adaptive join handler reaches its recall target past its warm-up,
//     less joinRecallSlack, on stationary delays (recallChecked);
//  4. two executions of a plan digest identically.
func TestDSTJoinSweep(t *testing.T) {
	n := sweepSeeds(t)
	for seed := 0; seed < n; seed++ {
		seed := uint64(seed)
		t.Run(strconv.FormatUint(seed, 10), func(t *testing.T) {
			t.Parallel()
			p := joinPlanForSeed(seed)
			cfg := p.config()
			left, right := p.sides()
			oracle := join.OraclePairs(cfg, left, right)

			var maxDelay stream.Time
			for _, side := range [][]stream.Tuple{left, right} {
				for _, tp := range side {
					maxDelay = max(maxDelay, tp.Delay())
				}
			}
			exact, _ := runJoin(t, cfg, left, right, buffer.NewKSlack(maxDelay+1))
			if q := metrics.PairMetrics(join.PairSet(exact.Results), oracle); q.TruePos != q.Expected || q.Emitted != q.Expected {
				t.Errorf("%s: K-slack past the largest delay (%d) is not the oracle: %+v", p, maxDelay, q)
			}

			rep, digest := runJoin(t, cfg, left, right, p.handler())
			got := join.PairSet(rep.Results)
			if q := metrics.PairMetrics(got, oracle); q.Precision != 1 {
				t.Errorf("%s: precision %v: %+v", p, q.Precision, q)
			}
			if r := steadyRecall(got, oracle); p.recallChecked() && r < p.Recall-joinRecallSlack {
				t.Errorf("%s: recall past the warm-up %.4f below target %.4f - %g", p, r, p.Recall, joinRecallSlack)
			}

			if _, again := runJoin(t, cfg, left, right, p.handler()); again != digest {
				t.Errorf("%s: two executions digest %s and %s", p, digest, again)
			}
		})
	}
}
