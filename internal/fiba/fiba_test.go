package fiba

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/stream"
)

// refModel is the naive reference the property tests compare against: a
// sorted slice with linear-time operations.
type refModel struct {
	ents []Entry
}

func (m *refModel) insert(k Key, v float64) {
	pos := 0
	for pos < len(m.ents) && !k.Less(m.ents[pos].Key) {
		pos++
	}
	m.ents = append(m.ents, Entry{})
	copy(m.ents[pos+1:], m.ents[pos:])
	m.ents[pos] = Entry{Key: k, Val: v}
}

func (m *refModel) evictBelow(ts stream.Time) int {
	cut := Key{TS: ts}
	i := 0
	for i < len(m.ents) && m.ents[i].Key.Less(cut) {
		i++
	}
	m.ents = m.ents[i:]
	return i
}

func (m *refModel) rangeSum(lo, hi stream.Time) (sum float64, n int64) {
	for _, e := range m.ents {
		if e.TS >= lo && e.TS < hi {
			sum += e.Val
			n++
		}
	}
	return sum, n
}

// checkInvariants walks the tree white-box and verifies the structural
// invariants: sorted leaf chain, correct lo keys and parent pointers,
// fanout bounds, the dirty-spine invariant (a dirty node's ancestors are
// dirty), and finger/size consistency.
func checkInvariants(t *testing.T, tr *Tree[float64]) {
	t.Helper()
	if tr.root == nil {
		if tr.left != nil || tr.right != nil || tr.size != 0 {
			t.Fatalf("empty tree with fingers/size set: left=%v right=%v size=%d", tr.left, tr.right, tr.size)
		}
		return
	}
	// Walk down to the leftmost/rightmost leaves and check finger identity.
	lm, rm := tr.root, tr.root
	for !lm.leaf {
		lm = lm.kids[0]
	}
	for !rm.leaf {
		rm = rm.kids[len(rm.kids)-1]
	}
	if tr.left != lm || tr.right != rm {
		t.Fatalf("fingers out of place")
	}
	count := 0
	var walk func(n *node[float64], depth int) int
	leafDepth := -1
	var walkErr bool
	var check func(cond bool, format string, args ...any)
	check = func(cond bool, format string, args ...any) {
		if !cond && !walkErr {
			walkErr = true
			t.Fatalf(format, args...)
		}
	}
	walk = func(n *node[float64], depth int) int {
		if n.dirty && n.parent != nil {
			check(n.parent.dirty, "dirty node with clean parent")
		}
		if n.leaf {
			check(len(n.ents) > 0, "empty leaf in tree")
			check(len(n.ents) <= maxLeaf, "leaf overflow: %d", len(n.ents))
			check(n.lo == n.ents[0].Key, "leaf lo mismatch")
			for i := 1; i < len(n.ents); i++ {
				check(!n.ents[i].Key.Less(n.ents[i-1].Key), "leaf entries out of order")
			}
			if leafDepth == -1 {
				leafDepth = depth
			}
			check(leafDepth == depth, "leaves at different depths: %d vs %d", leafDepth, depth)
			count += len(n.ents)
			return depth
		}
		check(len(n.kids) > 0, "empty internal node")
		check(len(n.kids) <= maxKids, "internal overflow: %d", len(n.kids))
		check(n.lo == n.kids[0].lo, "internal lo mismatch")
		for i, kid := range n.kids {
			check(kid.parent == n, "broken parent pointer")
			if i > 0 {
				check(!kid.lo.Less(n.kids[i-1].lo), "children out of order")
			}
			walk(kid, depth+1)
		}
		return depth
	}
	walk(tr.root, 0)
	if count != tr.size {
		t.Fatalf("size %d but %d entries reachable", tr.size, count)
	}
	// Leaf chain matches the in-order walk.
	chain := 0
	prev := Key{TS: -1 << 60}
	for n := tr.left; n != nil; n = n.next {
		for _, e := range n.ents {
			if e.Key.Less(prev) {
				t.Fatalf("leaf chain out of order")
			}
			prev = e.Key
			chain++
		}
	}
	if chain != tr.size {
		t.Fatalf("leaf chain has %d entries, size %d", chain, tr.size)
	}
}

// TestTreeRandomOps drives random interleavings of in-order inserts,
// out-of-order inserts, bulk evictions and range queries against the
// naive reference, over several seeds. Values are small integers so sums
// are exact in float64 and equality can be strict.
func TestTreeRandomOps(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := stats.NewRNG(seed * 0x9e3779b97f4a7c15)
		tr := New[float64](SumMonoid{})
		ref := &refModel{}
		var nextTS stream.Time
		var seq uint64
		var evicted stream.Time
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // in-order insert
				nextTS += stream.Time(rng.Intn(5))
				k := Key{TS: nextTS, Seq: seq}
				seq++
				v := float64(rng.Intn(100))
				tr.Insert(k, v)
				ref.insert(k, v)
			case op < 8: // out-of-order insert behind the front, at/after the eviction horizon
				if nextTS <= evicted {
					continue
				}
				ts := evicted + stream.Time(rng.Intn(int(nextTS-evicted)))
				k := Key{TS: ts, Seq: seq}
				seq++
				v := float64(rng.Intn(100))
				tr.Insert(k, v)
				ref.insert(k, v)
			case op < 9: // bulk evict a prefix
				if nextTS <= evicted {
					continue
				}
				cut := evicted + stream.Time(rng.Intn(int(nextTS-evicted)+1))
				if cut > evicted {
					evicted = cut
				}
				got, want := tr.EvictBelow(cut), ref.evictBelow(cut)
				if got != want {
					t.Fatalf("seed %d step %d: EvictBelow(%d) removed %d, want %d", seed, step, cut, got, want)
				}
			default: // range query
				lo := evicted + stream.Time(rng.Intn(int(nextTS-evicted+1)))
				hi := lo + stream.Time(rng.Intn(200))
				got := tr.RangeAgg(lo, hi)
				want, wantN := ref.rangeSum(lo, hi)
				if got != want {
					t.Fatalf("seed %d step %d: RangeAgg(%d,%d)=%g, want %g", seed, step, lo, hi, got, want)
				}
				var each float64
				var eachN int64
				tr.RangeEach(lo, hi, func(v float64) { each += v; eachN++ })
				if each != want || eachN != wantN {
					t.Fatalf("seed %d step %d: RangeEach sum=%g n=%d, want %g n=%d", seed, step, each, eachN, want, wantN)
				}
			}
			if step%97 == 0 {
				checkInvariants(t, tr)
			}
		}
		checkInvariants(t, tr)
		if got, want := tr.Entries(nil), ref.ents; len(got) != len(want) {
			t.Fatalf("seed %d: %d entries, want %d", seed, len(got), len(want))
		} else {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d: entry %d = %+v, want %+v", seed, i, got[i], want[i])
				}
			}
		}
		if tr.Len() != len(ref.ents) {
			t.Fatalf("seed %d: Len %d, want %d", seed, tr.Len(), len(ref.ents))
		}
	}
}

// TestInsertBatchMatchesSequential checks the bulk insert against
// one-at-a-time inserts of the same (shuffled) batch, including duplicate
// keys whose slice order must be preserved.
func TestInsertBatchMatchesSequential(t *testing.T) {
	rng := stats.NewRNG(42)
	var batch []Entry
	for i := 0; i < 500; i++ {
		batch = append(batch, Entry{
			Key: Key{TS: stream.Time(rng.Intn(300)), Seq: uint64(i)},
			Val: float64(rng.Intn(50)),
		})
	}
	bulk := New[float64](SumMonoid{})
	bulk.InsertBatch(batch)
	seq := New[float64](SumMonoid{})
	ref := &refModel{}
	for _, e := range batch {
		seq.Insert(e.Key, e.Val)
		ref.insert(e.Key, e.Val)
	}
	b, s := bulk.Entries(nil), seq.Entries(nil)
	if len(b) != len(s) || len(b) != len(batch) {
		t.Fatalf("entry counts differ: bulk=%d seq=%d in=%d", len(b), len(s), len(batch))
	}
	for i := range b {
		if b[i] != s[i] || b[i] != ref.ents[i] {
			t.Fatalf("entry %d: bulk=%+v seq=%+v ref=%+v", i, b[i], s[i], ref.ents[i])
		}
	}
	if got, want := bulk.RangeAgg(0, 1<<40), seq.RangeAgg(0, 1<<40); got != want {
		t.Fatalf("bulk RangeAgg %g, want %g", got, want)
	}
}

// TestInOrderFastPath verifies the right-finger append path handles a pure
// in-order stream: every insert after the first takes the O(1) path and
// queries stay correct across evictions.
func TestInOrderFastPath(t *testing.T) {
	tr := New[float64](SumMonoid{})
	const n = 10000
	for i := 0; i < n; i++ {
		tr.Insert(Key{TS: stream.Time(i)}, 1)
	}
	if st := tr.Stats(); st.AppendFast != n-1 {
		t.Fatalf("AppendFast = %d, want %d", st.AppendFast, n-1)
	}
	if got := tr.RangeAgg(0, n); got != n {
		t.Fatalf("RangeAgg = %g, want %d", got, n)
	}
	if removed := tr.EvictBelow(n / 2); removed != n/2 {
		t.Fatalf("EvictBelow removed %d, want %d", removed, n/2)
	}
	if got := tr.RangeAgg(0, n); got != n/2 {
		t.Fatalf("RangeAgg after evict = %g, want %d", got, n/2)
	}
	if tr.EvictBelow(2*n) != n/2 || tr.Len() != 0 {
		t.Fatalf("full eviction left %d entries", tr.Len())
	}
	if _, ok := tr.MinKey(); ok {
		t.Fatal("MinKey ok on empty tree")
	}
	// The tree must be reusable after emptying out.
	tr.Insert(Key{TS: 7}, 3)
	if got := tr.RangeAgg(0, 100); got != 3 {
		t.Fatalf("RangeAgg after refill = %g, want 3", got)
	}
	checkInvariants(t, tr)
}

// TestMonoids exercises the ready-made monoids through the tree.
func TestMonoids(t *testing.T) {
	vals := []float64{5, 1, 9, 3, 3, 7}
	mm := New[MinMax](MinMaxMonoid{})
	av := New[AvgPair](AvgMonoid{})
	ct := New[int64](CountMonoid{})
	for i, v := range vals {
		k := Key{TS: stream.Time(i * 10)}
		mm.Insert(k, v)
		av.Insert(k, v)
		ct.Insert(k, v)
	}
	if got := mm.RangeAgg(0, 100); got.Min != 1 || got.Max != 9 || got.N != 6 {
		t.Fatalf("MinMax = %+v", got)
	}
	if got := av.RangeAgg(0, 100); got.Sum != 28 || got.N != 6 || got.Mean() != 28.0/6 {
		t.Fatalf("AvgPair = %+v", got)
	}
	if got := ct.RangeAgg(10, 40); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
	if got := mm.RangeAgg(50, 20); got.N != 0 {
		t.Fatalf("inverted range returned %+v", got)
	}
}

// TestOutOfOrderDistanceStats sanity-checks the finger-search accounting:
// bounded-distance disorder must not trigger root-depth searches once the
// tree is large.
func TestOutOfOrderDistanceStats(t *testing.T) {
	tr := New[float64](SumMonoid{})
	rng := stats.NewRNG(7)
	const n, d = 20000, 64
	for i := 0; i < n; i++ {
		ts := stream.Time(i)
		if i > d && rng.Intn(4) == 0 {
			ts -= stream.Time(1 + rng.Intn(d))
		}
		tr.Insert(Key{TS: ts, Seq: uint64(i)}, 1)
	}
	st := tr.Stats()
	if st.FingerSearch == 0 {
		t.Fatal("no finger searches recorded for an out-of-order stream")
	}
	steps := float64(st.FingerSteps) / float64(st.FingerSearch)
	// log_B(d) is ~2 levels for d=64 at leaf fanout 32; the climb+descend
	// walk should stay well under the full height-to-root round trip that a
	// root search of 20k entries would pay every time.
	if steps > 8 {
		t.Fatalf("mean finger steps %.1f — out-of-order inserts are not using the finger", steps)
	}
	if got := tr.RangeAgg(0, n); got != n {
		t.Fatalf("RangeAgg = %g, want %d", got, n)
	}
}

// TestTumblingCycleDoesNotAllocate is the free lists' reason to exist: a
// tumbling window fills the tree and evicts all of it, every leaf and every
// internal node at once, and the next window must be built from those nodes
// and nothing new. The tree never holds more than one window, so neither do
// tree and free lists together.
func TestTumblingCycleDoesNotAllocate(t *testing.T) {
	tr := New[float64](SumMonoid{})
	const perWindow = 10000
	var seq uint64
	window := func() {
		start := stream.Time(seq)
		for i := 0; i < perWindow; i++ {
			seq++
			tr.Insert(Key{TS: stream.Time(seq), Seq: seq}, 1)
		}
		if got := tr.RangeAgg(start+1, start+perWindow+1); got != perWindow {
			t.Fatalf("window sums to %g, want %d", got, perWindow)
		}
		if tr.EvictBelow(start+perWindow+1) != perWindow || tr.Len() != 0 {
			t.Fatalf("eviction left %d entries", tr.Len())
		}
	}
	window() // warm-up: the one window's worth of nodes is allocated here
	held := len(tr.freeLeaves) + len(tr.freeNodes)
	if allocs := testing.AllocsPerRun(20, window); allocs != 0 {
		t.Errorf("a warmed tumbling window of %d entries allocates %.1f times, want 0", perWindow, allocs)
	}
	if now := len(tr.freeLeaves) + len(tr.freeNodes); now != held {
		t.Errorf("the free lists grew from %d to %d nodes over identical windows", held, now)
	}
}
