package join

import (
	"fmt"

	"repro/internal/stream"
)

// MResult is one emitted m-way join combination; Tuples[i] came from
// stream i.
type MResult struct {
	Tuples      []stream.Tuple
	EmitArrival stream.Time
}

// Key identifies the combination by its constituent sequence numbers, for
// set comparison against an oracle run.
func (r MResult) Key() string {
	key := make([]byte, 0, len(r.Tuples)*8)
	for _, t := range r.Tuples {
		key = append(key, byte(t.Seq), byte(t.Seq>>8), byte(t.Seq>>16), byte(t.Seq>>24),
			byte(t.Seq>>32), byte(t.Seq>>40), byte(t.Seq>>48), byte(t.Seq>>56))
	}
	return string(key)
}

// MWay is an m-way sliding-window join: it emits every combination of one
// tuple per stream whose members share a storage key and are pairwise
// within Band of each other. A combination is emitted exactly once, when
// its last-arriving member shows up (and every other member is still in
// live state).
type MWay struct {
	cfg     Config
	m       int
	live    []*sideState
	clock   stream.Time
	started bool
	inserts int
}

// NewMWay returns an m-way join over m >= 2 streams. It panics on m < 2 or
// a non-positive band.
func NewMWay(m int, cfg Config) *MWay {
	if m < 2 {
		panic("join: m-way join needs m >= 2")
	}
	if cfg.Band <= 0 {
		panic("join: band must be positive")
	}
	live := make([]*sideState, m)
	for i := range live {
		live[i] = newSideState()
	}
	return &MWay{cfg: cfg, m: m, live: live}
}

// Insert feeds one tuple from stream side at arrival position now,
// appending emitted combinations to out.
func (j *MWay) Insert(side int, t stream.Tuple, now stream.Time, out []MResult) []MResult {
	if side < 0 || side >= j.m {
		panic(fmt.Sprintf("join: side %d out of range [0,%d)", side, j.m))
	}
	if !j.started || t.TS > j.clock {
		j.clock = t.TS
		j.started = true
	}
	key := j.cfg.storageKey(t)
	cutoff := j.clock - j.cfg.Band
	for i := 0; i < j.m; i++ {
		if i != side {
			j.live[i].prune(key, cutoff)
		}
	}

	combo := make([]stream.Tuple, j.m)
	combo[side] = t
	out = j.enumerate(0, side, key, combo, now, out)

	j.live[side].add(key, t)
	j.inserts++
	if j.inserts%1024 == 0 {
		j.sweepAll()
	}
	return out
}

// enumerate recursively fills combo with one live tuple per remaining side,
// enforcing the pairwise band against all already-chosen members.
func (j *MWay) enumerate(side, newSide int, key uint64, combo []stream.Tuple, now stream.Time, out []MResult) []MResult {
	if side == j.m {
		res := MResult{Tuples: make([]stream.Tuple, j.m), EmitArrival: now}
		copy(res.Tuples, combo)
		return append(out, res)
	}
	if side == newSide {
		return j.enumerate(side+1, newSide, key, combo, now, out)
	}
	for _, cand := range j.live[side].byKey[key] {
		ok := true
		for i := 0; i < side; i++ {
			if i != newSide && !within(cand, combo[i], j.cfg.Band) {
				ok = false
				break
			}
		}
		if ok && within(cand, combo[newSide], j.cfg.Band) {
			combo[side] = cand
			out = j.enumerate(side+1, newSide, key, combo, now, out)
		}
	}
	return out
}

func (j *MWay) sweepAll() {
	cutoff := j.clock - j.cfg.Band
	for _, s := range j.live {
		for key := range s.byKey {
			s.prune(key, cutoff)
		}
	}
}

// String names the operator.
func (j *MWay) String() string {
	return fmt.Sprintf("mway-join(m=%d band=%d key=%v)", j.m, j.cfg.Band, j.cfg.KeyMatch)
}

// OracleMWay computes the exact m-way combination set by brute force over
// per-key buckets; it is exponential in m and intended for tests and
// moderate experiment sizes.
func OracleMWay(m int, cfg Config, streams [][]stream.Tuple) map[string]struct{} {
	if len(streams) != m {
		panic("join: OracleMWay needs one slice per stream")
	}
	buckets := make([]map[uint64][]stream.Tuple, m)
	for i, s := range streams {
		buckets[i] = bucket(cfg, s)
	}
	out := make(map[string]struct{})
	combo := make([]stream.Tuple, m)
	var rec func(side int, key uint64)
	rec = func(side int, key uint64) {
		if side == m {
			out[MResult{Tuples: combo}.Key()] = struct{}{}
			return
		}
		for _, cand := range buckets[side][key] {
			ok := true
			for i := 0; i < side; i++ {
				if !within(cand, combo[i], cfg.Band) {
					ok = false
					break
				}
			}
			if ok {
				combo[side] = cand
				rec(side+1, key)
			}
		}
	}
	for key := range buckets[0] {
		rec(0, key)
	}
	return out
}
