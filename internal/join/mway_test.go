package join

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/stream"
)

func TestMWayTriangle(t *testing.T) {
	j := NewMWay(3, Config{Band: 10})
	var out []MResult
	feed := func(side int, ts stream.Time, seq uint64) {
		out = j.Insert(side, stream.Tuple{TS: ts, Arrival: ts, Seq: seq}, ts, out)
	}
	feed(0, 100, 0)
	feed(1, 105, 1)
	feed(2, 108, 2) // all pairwise within 10 -> one triple
	if len(out) != 1 {
		t.Fatalf("emitted %d combos, want 1: %v", len(out), out)
	}
	got := out[0]
	if got.Tuples[0].Seq != 0 || got.Tuples[1].Seq != 1 || got.Tuples[2].Seq != 2 {
		t.Fatalf("combo order wrong: %+v", got)
	}
}

func TestMWayPairwiseBandEnforced(t *testing.T) {
	j := NewMWay(3, Config{Band: 10})
	var out []MResult
	// 0 and 1 within band of the new tuple but not of each other.
	out = j.Insert(0, stream.Tuple{TS: 100, Seq: 0}, 100, out)
	out = j.Insert(1, stream.Tuple{TS: 118, Seq: 1}, 118, out)
	out = j.Insert(2, stream.Tuple{TS: 109, Seq: 2}, 119, out) // within 10 of both, but 100 vs 118 fails
	if len(out) != 0 {
		t.Fatalf("pairwise band violated: %v", out)
	}
}

func TestMWayEmitsOncePerCombination(t *testing.T) {
	j := NewMWay(2, Config{Band: 100})
	var out []MResult
	out = j.Insert(0, stream.Tuple{TS: 10, Seq: 0}, 10, out)
	out = j.Insert(1, stream.Tuple{TS: 12, Seq: 1}, 12, out)
	out = j.Insert(0, stream.Tuple{TS: 14, Seq: 2}, 14, out)
	// Combos: (0,1) and (2,1).
	if len(out) != 2 {
		t.Fatalf("emitted %d, want 2", len(out))
	}
	seen := map[string]bool{}
	for _, r := range out {
		k := r.Key()
		if seen[k] {
			t.Fatalf("duplicate combination %q", k)
		}
		seen[k] = true
	}
}

func TestMWayMatchesOracleOrderedInput(t *testing.T) {
	rng := stats.NewRNG(601)
	f := func(n uint8) bool {
		const m = 3
		streams := make([][]stream.Tuple, m)
		type ev struct {
			side int
			t    stream.Tuple
		}
		var evs []ev
		ts := stream.Time(0)
		count := int(n%60) + 3
		for i := 0; i < count; i++ {
			ts += stream.Time(rng.Intn(4))
			side := rng.Intn(m)
			tp := stream.Tuple{TS: ts, Arrival: ts, Seq: uint64(i), Key: uint64(rng.Intn(2))}
			streams[side] = append(streams[side], tp)
			evs = append(evs, ev{side, tp})
		}
		cfg := Config{Band: 8, KeyMatch: true}
		j := NewMWay(m, cfg)
		var out []MResult
		for _, e := range evs {
			out = j.Insert(e.side, e.t, e.t.Arrival, out)
		}
		got := make(map[string]struct{}, len(out))
		for _, r := range out {
			got[r.Key()] = struct{}{}
		}
		want := OracleMWay(m, cfg, streams)
		if len(got) != len(want) {
			return false
		}
		for k := range want {
			if _, ok := got[k]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMWayStateBounded(t *testing.T) {
	j := NewMWay(3, Config{Band: 30})
	ts := stream.Time(0)
	for i := 0; i < 30000; i++ {
		ts++
		j.Insert(i%3, stream.Tuple{TS: ts, Seq: uint64(i)}, ts, nil)
	}
	held := 0
	for _, s := range j.live {
		held += s.count
	}
	if held > 500 {
		t.Fatalf("m-way state grew to %d", held)
	}
}

func TestMWayPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"m=1":      func() { NewMWay(1, Config{Band: 1}) },
		"band":     func() { NewMWay(2, Config{Band: 0}) },
		"side oob": func() { NewMWay(2, Config{Band: 1}).Insert(5, stream.Tuple{}, 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestOracleMWayPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched stream count did not panic")
		}
	}()
	OracleMWay(3, Config{Band: 1}, make([][]stream.Tuple, 2))
}

func TestMResultKeyDistinct(t *testing.T) {
	a := MResult{Tuples: []stream.Tuple{{Seq: 1}, {Seq: 2}}}
	b := MResult{Tuples: []stream.Tuple{{Seq: 2}, {Seq: 1}}}
	if a.Key() == b.Key() {
		t.Fatal("keys collide for different combos")
	}
}
