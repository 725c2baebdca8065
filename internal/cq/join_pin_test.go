package cq

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/stream"
)

// pinnedJoins are the digests TestJoinPinned holds every case to, recorded
// while JoinQuery.Run still drove the handler and the join operator through
// a loop of its own. The aq-join entries were re-recorded when the lateness
// sketch became the exact histogram.
var pinnedJoins = map[string]string{
	"aq-join-99/seed1":            "b3d65a2a01024831be9c4a449bfe197432155c90675f743a3067ca61f95dfc18",
	"aq-join-99/seed2":            "16d16547764e91dbe5ba35c8f05439745be95a8b58237a01555ccad210b633d1",
	"kslack-1s/seed1":             "a1eb0a664ef10c1fbb5ab847b9fd213addbf3217e8d10a15e04f8fe9b64a05ae",
	"kslack-1s/seed2":             "28711796a073939de6cce26da21f1cc9274d79ed627c2a429f9ad39460295b7c",
	"maxslack/seed1":              "35aa07cf044127fb167e3e1127af17a1d8fdd4dddaddd15e61d805e3b721d5fe",
	"maxslack/seed2":              "d97687823a419ad39867c14dd8495ee7d6f43834d2af250bfaf4aae77cfe159f",
	"none/seed1":                  "165aceb40f4d272870c3d4618414a1361b193bbad6e2d08faad3d4e2ffab9940",
	"none/seed2":                  "6092d4ea8ef42662c831cd209ae2ec491dd65c27311c1071bf34e0e8f301b598",
	"punctuated-heartbeats/seed1": "4110ec93b96e571eea42cbfd49e86b4b341ced6e4961946fcb859f96d572eca2",
	"punctuated-heartbeats/seed2": "1a1c849945fab6513fcd8701dcefc0063391b26abc421a84b063a8d24b2ec684",
}

// joinSide is one side of a pinned join: Src-tagged, disordered, in arrival
// order.
func joinSide(src uint8, n int, seed uint64) []stream.Tuple {
	ts := gen.Config{
		N: n, Interval: 10, Poisson: true, NumKeys: 16,
		Values: gen.UniformValue{Lo: 0, Hi: 100},
		Delays: delay.ParetoWithMean(300, 1.8),
		Seed:   seed,
	}.Events()
	for i := range ts {
		ts[i].Src = src
	}
	stream.SortByArrival(ts)
	return ts
}

// TestJoinPinned: every pair a join query emits, in order, its join and
// handler statistics, the input it kept per side and the adaptive handler's
// slack trace hash to what they were when the join ran outside cq.Exec.
func TestJoinPinned(t *testing.T) {
	cfg := join.Config{Band: 200, KeyMatch: true, RetainFor: 30 * stream.Second}
	for _, seed := range []uint64{1, 2} {
		left, right := joinSide(0, 4000, 10*seed), joinSide(1, 4000, 10*seed+1)
		for _, tc := range []struct {
			name      string
			handler   func() buffer.Handler
			heartbeat bool
		}{
			{"none", func() buffer.Handler { return buffer.Zero() }, false},
			{"kslack-1s", func() buffer.Handler { return buffer.NewKSlack(stream.Second) }, false},
			{"maxslack", func() buffer.Handler { return buffer.NewMaxSlack() }, false},
			{"aq-join-99", func() buffer.Handler {
				return core.NewAQJoin(core.JoinConfig{Recall: 0.99, Band: cfg.Band})
			}, false},
			{"punctuated-heartbeats", func() buffer.Handler { return buffer.NewPunctuated() }, true},
		} {
			name := fmt.Sprintf("%s/seed%d", tc.name, seed)
			t.Run(name, func(t *testing.T) {
				var l stream.Source = stream.FromTuples(left)
				if tc.heartbeat {
					l = stream.NewWithHeartbeats(l, 500)
				}
				h := tc.handler()
				rep, err := NewJoin(l, stream.FromTuples(right), cfg).Handle(h).KeepInput().Run()
				if err != nil {
					t.Fatal(err)
				}
				d := sha256.New()
				for _, r := range rep.Results {
					fmt.Fprintf(d, "%+v\n", r)
				}
				fmt.Fprintf(d, "join %+v\nhandler %+v\n", rep.Join, rep.Handler)
				for _, side := range [][]stream.Tuple{rep.Left, rep.Right} {
					fmt.Fprintf(d, "side %d\n", len(side))
					for _, tp := range side {
						fmt.Fprintf(d, "%+v\n", tp)
					}
				}
				if aq, ok := h.(*core.AQKSlack); ok {
					if n := aq.Quality().Adaptations; n < 20 {
						t.Fatalf("only %d adaptations", n)
					}
					for _, s := range aq.Trace() {
						fmt.Fprintf(d, "%+v\n", s)
					}
				}
				if len(rep.Results) == 0 || len(rep.Left) != len(left) || len(rep.Right) != len(right) {
					t.Fatalf("%d pairs, %d/%d input kept", len(rep.Results), len(rep.Left), len(rep.Right))
				}
				if got, want := fmt.Sprintf("%x", d.Sum(nil)), pinnedJoins[name]; got != want {
					t.Errorf("digest %s, want %s", got, want)
				}
			})
		}
	}
}
