// Package join implements sliding-window stream joins: two streams (or m
// streams, see MWay) are joined on key equality and event-time proximity,
//
//	match(l, r)  ⇔  l.Key == r.Key  ∧  |l.TS − r.TS| ≤ Band
//
// over near-ordered input as produced by a disorder handler. A straggler
// that arrives after its partners expired from the join state loses those
// result pairs — the quality loss that quality-driven buffering (the recall
// model of internal/core's adaptive handler, core.NewAQJoin) bounds via a
// recall target.
//
// For online recall accounting the join can retain expired state for a
// grace period: a probe that matches only retained state counts the pairs
// that buffering would have saved (Missed), making realized recall
// observable without an oracle.
package join

import (
	"fmt"

	"repro/internal/stream"
)

// Side identifies one input stream of a two-way join.
type Side int

// The two sides of a binary join.
const (
	Left  Side = 0
	Right Side = 1
)

// Tagged is a tuple labelled with the stream it came from.
type Tagged struct {
	stream.Tuple
	Side Side
}

// Result is one emitted join pair; L is always the side-0 tuple.
type Result struct {
	L, R        stream.Tuple
	EmitArrival stream.Time
}

// Latency returns the emission lag behind the pair's completion point
// (the later of the two event timestamps).
func (r Result) Latency() stream.Time {
	ts := r.L.TS
	if r.R.TS > ts {
		ts = r.R.TS
	}
	return r.EmitArrival - ts
}

// Stats are cumulative join counters.
type Stats struct {
	TuplesIn     int64
	Emitted      int64 // pairs produced
	Missed       int64 // pairs lost to expired state (requires RetainFor > 0)
	MaxLiveState int   // high-water mark of retained live tuples (both sides)
}

// Recall returns the observed recall Emitted / (Emitted + Missed); 1 when
// nothing was missed (or nothing measurable).
func (s Stats) Recall() float64 {
	total := s.Emitted + s.Missed
	if total == 0 {
		return 1
	}
	return float64(s.Emitted) / float64(total)
}

// String renders the counters.
func (s Stats) String() string {
	return fmt.Sprintf("join{in=%d out=%d missed=%d recall=%.4f}", s.TuplesIn, s.Emitted, s.Missed, s.Recall())
}

// Config parameterizes a sliding-window join.
type Config struct {
	// Band is the maximum event-time distance between matching tuples.
	Band stream.Time
	// KeyMatch requires equal tuple keys; when false, all tuples share
	// one logical key (pure band join).
	KeyMatch bool
	// RetainFor keeps expired tuples for miss accounting this long past
	// their expiry (in stream time). 0 disables miss accounting.
	RetainFor stream.Time
}

func (c Config) storageKey(t stream.Tuple) uint64 {
	if c.KeyMatch {
		return t.Key
	}
	return 0
}

// sideState holds one input's tuples, bucketed by storage key. Entries are
// removed lazily on probe and by a periodic sweep.
type sideState struct {
	byKey map[uint64][]stream.Tuple
	count int
}

func newSideState() *sideState { return &sideState{byKey: make(map[uint64][]stream.Tuple)} }

// prune removes tuples with TS < cutoff from the key's bucket, returning
// the removed tuples.
func (s *sideState) prune(key uint64, cutoff stream.Time) []stream.Tuple {
	bucket := s.byKey[key]
	if len(bucket) == 0 {
		return nil
	}
	kept := bucket[:0]
	var removed []stream.Tuple
	for _, t := range bucket {
		if t.TS < cutoff {
			removed = append(removed, t)
		} else {
			kept = append(kept, t)
		}
	}
	s.count -= len(removed)
	if len(kept) == 0 {
		delete(s.byKey, key)
	} else {
		s.byKey[key] = kept
	}
	return removed
}

func (s *sideState) add(key uint64, t stream.Tuple) {
	s.byKey[key] = append(s.byKey[key], t)
	s.count++
}

// Join is a streaming two-way sliding-window join over near-ordered input.
type Join struct {
	cfg     Config
	live    [2]*sideState
	retired [2]*sideState
	clock   stream.Time
	started bool
	inserts int
	stats   Stats
}

// New returns a join operator. It panics if Band <= 0.
func New(cfg Config) *Join {
	if cfg.Band <= 0 {
		panic("join: band must be positive")
	}
	return &Join{
		cfg:     cfg,
		live:    [2]*sideState{newSideState(), newSideState()},
		retired: [2]*sideState{newSideState(), newSideState()},
	}
}

// Stats returns cumulative counters.
func (j *Join) Stats() Stats { return j.stats }

// StateSize returns the current number of live tuples held.
func (j *Join) StateSize() int { return j.live[0].count + j.live[1].count }

// Insert feeds one tagged tuple at arrival position now and appends any
// produced pairs to out.
func (j *Join) Insert(t Tagged, now stream.Time, out []Result) []Result {
	if t.Side != Left && t.Side != Right {
		panic(fmt.Sprintf("join: bad side %d", t.Side))
	}
	j.stats.TuplesIn++
	if !j.started || t.TS > j.clock {
		j.clock = t.TS
		j.started = true
	}
	key := j.cfg.storageKey(t.Tuple)
	other := 1 - t.Side

	cutoff := j.clock - j.cfg.Band
	// Lazily expire the probed bucket, optionally retiring for miss
	// accounting.
	expired := j.live[other].prune(key, cutoff)
	if j.cfg.RetainFor > 0 {
		for _, e := range expired {
			j.retired[other].add(key, e)
		}
		j.retired[other].prune(key, cutoff-j.cfg.RetainFor)
	}

	// Probe live state.
	for _, p := range j.live[other].byKey[key] {
		if within(t.Tuple, p, j.cfg.Band) {
			out = append(out, j.pair(t, p, now))
			j.stats.Emitted++
		}
	}
	// Probe retired state: pairs that fuller buffering would have found.
	if j.cfg.RetainFor > 0 {
		for _, p := range j.retired[other].byKey[key] {
			if within(t.Tuple, p, j.cfg.Band) {
				j.stats.Missed++
			}
		}
	}

	j.live[t.Side].add(key, t.Tuple)
	if s := j.StateSize(); s > j.stats.MaxLiveState {
		j.stats.MaxLiveState = s
	}
	j.inserts++
	if j.inserts%1024 == 0 {
		j.sweep()
	}
	return out
}

// within reports the band predicate.
func within(a, b stream.Tuple, band stream.Time) bool {
	d := a.TS - b.TS
	if d < 0 {
		d = -d
	}
	return d <= band
}

func (j *Join) pair(t Tagged, p stream.Tuple, now stream.Time) Result {
	if t.Side == Left {
		return Result{L: t.Tuple, R: p, EmitArrival: now}
	}
	return Result{L: p, R: t.Tuple, EmitArrival: now}
}

// sweep expires every bucket, bounding memory for keys that stopped
// receiving probes.
func (j *Join) sweep() {
	cutoff := j.clock - j.cfg.Band
	for side := 0; side < 2; side++ {
		for key := range j.live[side].byKey {
			expired := j.live[side].prune(key, cutoff)
			if j.cfg.RetainFor > 0 {
				for _, e := range expired {
					j.retired[side].add(key, e)
				}
			}
		}
		if j.cfg.RetainFor > 0 {
			for key := range j.retired[side].byKey {
				j.retired[side].prune(key, cutoff-j.cfg.RetainFor)
			}
		}
	}
}

// String names the operator.
func (j *Join) String() string {
	return fmt.Sprintf("join(band=%d key=%v)", j.cfg.Band, j.cfg.KeyMatch)
}
