// Package fiba implements a finger B-tree aggregator (FiBA) for
// sliding-window aggregation over out-of-order streams, after
// Tangwongsan, Hirzel and Schneider, "Optimal and General Out-of-Order
// Sliding-Window Aggregation" (arXiv 1810.11308) and its bulk-eviction
// extension (arXiv 2307.11210).
//
// The tree stores (timestamp, sequence) keyed values in the leaves of a
// B+-tree and caches, in every node, the monoid partial of its subtree.
// Two fingers — direct pointers to the leftmost and rightmost leaves —
// make the access pattern a disorder buffer produces cheap:
//
//   - in-order insert (key ≥ the current maximum) appends through the
//     right finger in amortized O(1);
//   - an out-of-order insert at distance d from the end climbs from the
//     right finger to the first spine node covering the key and descends,
//     O(log d) amortized rather than a root search's O(log n);
//   - evicting the prefix below a watermark peels leftmost leaves without
//     rebalancing, amortized O(1) per evicted entry;
//   - a range aggregate combines O(B·log n) cached node partials.
//
// Partial-aggregate invalidation is limited to the spine: an update dirties
// only the path from the touched leaf to the first already-dirty ancestor,
// and partials are recomputed lazily at the next range query. The monoid is
// supplied by the caller (see Monoid and monoid.go); internal/window builds
// its pluggable "fiba" aggregation core on top of this package, documented
// in docs/ALGORITHMS.md.
package fiba

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/stream"
)

// Key orders tree entries: event timestamp first, then the tuple sequence
// number as a tiebreaker, so duplicates of one timestamp keep a stable,
// arrival-independent total order.
type Key struct {
	TS  stream.Time `json:"ts"`
	Seq uint64      `json:"seq"`
}

// Less reports the strict (TS, Seq) lexicographic order.
func (k Key) Less(o Key) bool {
	if k.TS != o.TS {
		return k.TS < o.TS
	}
	return k.Seq < o.Seq
}

// Compare is the same order three ways, for package slices.
func (k Key) Compare(o Key) int {
	if c := cmp.Compare(k.TS, o.TS); c != 0 {
		return c
	}
	return cmp.Compare(k.Seq, o.Seq)
}

// Entry is one stored tuple value. The JSON form ({"ts","seq","val"}) is
// the snapshot format of the window operator's tree.
type Entry struct {
	Key
	Val float64 `json:"val"`
}

// Monoid is the aggregation a Tree maintains. Identity is the empty
// aggregate, Lift embeds one tuple value, and Combine merges two partials.
// Combine must be associative and pure (it must not mutate its arguments:
// partials are cached inside tree nodes and reused across queries); it
// need not be commutative — the tree always combines left to right in key
// order.
type Monoid[P any] interface {
	Identity() P
	Lift(v float64) P
	Combine(a, b P) P
}

// Node fanout. Leaves hold up to maxLeaf entries; internal nodes up to
// maxKids children. Wide leaves amortize per-node overhead on the append
// path; a narrower internal fanout keeps partial recombination after a
// spine update cheap.
const (
	maxLeaf = 32
	maxKids = 8
)

type node[P any] struct {
	parent *node[P]
	lo     Key  // smallest key in the subtree
	agg    P    // cached subtree partial, valid iff !dirty
	dirty  bool // partial needs recomputation (spine invalidation)

	// Leaf fields.
	leaf       bool
	ents       []Entry
	next, prev *node[P]

	// Internal fields. kids[i].lo separates the children, so no separate
	// separator-key array is maintained.
	kids []*node[P]
}

// Tree is a finger B-tree aggregator. The zero value is not usable; build
// with New. Not safe for concurrent use.
type Tree[P any] struct {
	m           Monoid[P]
	root        *node[P]
	left, right *node[P] // leaf fingers
	size        int

	// Node free lists: prefix eviction discards nodes at the same steady
	// rate splits create them, so recycling keeps the hot insert/evict
	// cycle allocation-free after warmup — whatever the window, a tumbling
	// one that evicts its every leaf at once included. The lists keep every
	// node the tree releases, and a node is only ever allocated when its list
	// is empty, so tree and lists together hold as many nodes as the tree
	// alone did at its largest, never more.
	freeLeaves, freeNodes []*node[P]
}

// newLeaf returns a recycled or fresh leaf node.
func (t *Tree[P]) newLeaf() *node[P] {
	if n := len(t.freeLeaves); n > 0 {
		nd := t.freeLeaves[n-1]
		t.freeLeaves = t.freeLeaves[:n-1]
		return nd
	}
	return &node[P]{leaf: true, ents: make([]Entry, 0, maxLeaf+1)}
}

// newInternal returns a recycled or fresh internal node.
func (t *Tree[P]) newInternal() *node[P] {
	if n := len(t.freeNodes); n > 0 {
		nd := t.freeNodes[n-1]
		t.freeNodes = t.freeNodes[:n-1]
		return nd
	}
	return &node[P]{kids: make([]*node[P], 0, maxKids+1)}
}

// release returns an unlinked node to its free list, clearing references
// so recycled nodes cannot pin evicted data.
func (t *Tree[P]) release(n *node[P]) {
	var zero P
	n.parent, n.next, n.prev = nil, nil, nil
	n.agg, n.dirty = zero, false
	if n.leaf {
		n.ents = n.ents[:0]
		t.freeLeaves = append(t.freeLeaves, n)
		return
	}
	for i := range n.kids {
		n.kids[i] = nil
	}
	n.kids = n.kids[:0]
	t.freeNodes = append(t.freeNodes, n)
}

// New returns an empty tree maintaining m.
func New[P any](m Monoid[P]) *Tree[P] {
	return &Tree[P]{m: m}
}

// Len returns the number of stored entries.
func (t *Tree[P]) Len() int { return t.size }

// MinKey returns the smallest stored key; ok is false when empty.
func (t *Tree[P]) MinKey() (Key, bool) {
	if t.left == nil {
		return Key{}, false
	}
	return t.left.ents[0].Key, true
}

// MaxKey returns the largest stored key; ok is false when empty.
func (t *Tree[P]) MaxKey() (Key, bool) {
	if t.right == nil {
		return Key{}, false
	}
	return t.right.ents[len(t.right.ents)-1].Key, true
}

// Insert adds one entry. Keys ≥ the current maximum append through the
// right finger in amortized O(1); an out-of-order key at distance d from
// the end costs O(log d) amortized.
func (t *Tree[P]) Insert(k Key, v float64) {
	if t.root == nil {
		leaf := t.newLeaf()
		leaf.lo, leaf.dirty = k, true
		leaf.ents = append(leaf.ents, Entry{Key: k, Val: v})
		t.root, t.left, t.right = leaf, leaf, leaf
		t.size = 1
		return
	}
	r := t.right
	if !k.Less(r.ents[len(r.ents)-1].Key) {
		// In-order fast path: k is ≥ everything stored, append at the end.
		t.leafInsert(r, len(r.ents), Entry{Key: k, Val: v})
		return
	}
	// Finger search: climb the right spine until the subtree's key space
	// covers k, then descend. Right-spine node n covers [n.lo, +inf).
	n := r
	for n.parent != nil && k.Less(n.lo) {
		n = n.parent
	}
	for !n.leaf {
		// Route to the last child whose lo ≤ k (equal keys go right, so the
		// new duplicate lands after its equals); keys below every child's lo
		// fall through to kids[0].
		c := n.kids[0]
		for _, kid := range n.kids[1:] {
			if k.Less(kid.lo) {
				break
			}
			c = kid
		}
		n = c
	}
	// Upper-bound position: first entry strictly greater than k.
	pos := 0
	for pos < len(n.ents) && !k.Less(n.ents[pos].Key) {
		pos++
	}
	t.leafInsert(n, pos, Entry{Key: k, Val: v})
}

// leafInsert places e at position pos of leaf n, dirties the spine, fixes
// lo keys, and splits on overflow.
func (t *Tree[P]) leafInsert(n *node[P], pos int, e Entry) {
	n.ents = append(n.ents, Entry{})
	copy(n.ents[pos+1:], n.ents[pos:])
	n.ents[pos] = e
	t.size++
	t.markDirty(n)
	if pos == 0 {
		updateLo(n)
	}
	if len(n.ents) > maxLeaf {
		t.splitLeaf(n)
	}
}

// markDirty invalidates the cached partials on the path from n to the
// root, stopping at the first already-dirty node (its ancestors are dirty
// by invariant) — this is what limits invalidation to the spine.
func (t *Tree[P]) markDirty(n *node[P]) {
	for ; n != nil && !n.dirty; n = n.parent {
		n.dirty = true
	}
}

// updateLo recomputes n.lo from its content and propagates the new bound
// up while n remains its parent's first child.
func updateLo[P any](n *node[P]) {
	for n != nil {
		if n.leaf {
			if len(n.ents) == 0 {
				return
			}
			n.lo = n.ents[0].Key
		} else {
			n.lo = n.kids[0].lo
		}
		if n.parent == nil || n.parent.kids[0] != n {
			return
		}
		n = n.parent
	}
}

func (t *Tree[P]) splitLeaf(n *node[P]) {
	mid := len(n.ents) / 2
	right := t.newLeaf()
	right.dirty = true
	right.ents = append(right.ents, n.ents[mid:]...)
	n.ents = n.ents[:mid]
	right.lo = right.ents[0].Key
	right.prev, right.next = n, n.next
	if n.next != nil {
		n.next.prev = right
	}
	n.next = right
	if t.right == n {
		t.right = right
	}
	t.insertChild(n, right)
}

func (t *Tree[P]) splitInternal(n *node[P]) {
	mid := len(n.kids) / 2
	right := t.newInternal()
	right.dirty = true
	right.kids = append(right.kids, n.kids[mid:]...)
	n.kids = n.kids[:mid]
	for _, kid := range right.kids {
		kid.parent = right
	}
	right.lo = right.kids[0].lo
	t.insertChild(n, right)
}

// insertChild links sib (newly split off from n) into n's parent directly
// after n, growing a new root when n was the root.
func (t *Tree[P]) insertChild(n, sib *node[P]) {
	p := n.parent
	if p == nil {
		root := t.newInternal()
		root.dirty, root.lo = true, n.lo
		root.kids = append(root.kids, n, sib)
		n.parent, sib.parent = root, root
		t.root = root
		return
	}
	sib.parent = p
	pos := 0
	for pos < len(p.kids) && p.kids[pos] != n {
		pos++
	}
	pos++
	p.kids = append(p.kids, nil)
	copy(p.kids[pos+1:], p.kids[pos:])
	p.kids[pos] = sib
	if len(p.kids) > maxKids {
		t.splitInternal(p)
	}
}

// InsertRun inserts entries in slice order and leaves exactly the tree that
// calling Insert once per entry leaves: same leaves, same splits, hence the
// same Shape and — a cached partial being a left fold over a node's children
// — the same bits in every later range fold, wherever a caller cuts its
// input into runs. What it saves is the per-entry work: every
// ascending stretch at or above the maximum key (what a disorder buffer
// releases, stragglers aside) is appended to the right leaf a chunk at a
// time — fill the leaf to the overflow point one-by-one appends reach, split
// it where they would, carry on in the new right leaf — with one spine
// invalidation per chunk. Entries below the maximum go through Insert.
func (t *Tree[P]) InsertRun(entries []Entry) {
	for i := 0; i < len(entries); {
		r := t.right
		if r == nil || entries[i].Key.Less(r.ents[len(r.ents)-1].Key) {
			t.Insert(entries[i].Key, entries[i].Val)
			i++
			continue
		}
		// A leaf holds at most maxLeaf entries between calls, so there is
		// room for at least one; the append that makes it maxLeaf+1 splits.
		end := min(len(entries), i+maxLeaf+1-len(r.ents))
		j := i + 1
		for j < end && !entries[j].Key.Less(entries[j-1].Key) {
			j++
		}
		r.ents = append(r.ents, entries[i:j]...)
		t.size += j - i
		t.markDirty(r)
		if len(r.ents) > maxLeaf {
			t.splitLeaf(r)
		}
		i = j
	}
}

// InsertBatch inserts a batch of entries in key order, sorting a copy first
// when it has to (stable, so duplicate keys keep their slice order): a batch
// that lies at the end of the tree costs amortized O(1) per entry whatever
// order it came in. The window operator restores a snapshot that records no
// shape through it, so the batch is outside input of any size and order.
func (t *Tree[P]) InsertBatch(entries []Entry) {
	byKey := func(a, b Entry) int { return a.Key.Compare(b.Key) }
	if !slices.IsSortedFunc(entries, byKey) {
		entries = slices.Clone(entries)
		slices.SortStableFunc(entries, byKey)
	}
	t.InsertRun(entries)
}

// EvictBelow removes every entry with timestamp < ts (bulk prefix
// eviction) and returns how many were removed. It peels whole leftmost
// leaves without rebalancing — the relaxed left-spine invariant of the
// bulk-eviction algorithm — and collapses the root when levels empty,
// amortized O(1) per evicted entry.
func (t *Tree[P]) EvictBelow(ts stream.Time) int {
	cut := Key{TS: ts}
	removed := 0
	for t.left != nil {
		leaf := t.left
		i := 0
		for i < len(leaf.ents) && leaf.ents[i].Key.Less(cut) {
			i++
		}
		if i == 0 {
			break
		}
		removed += i
		if i == len(leaf.ents) {
			t.removeLeftLeaf(leaf)
			continue
		}
		leaf.ents = append(leaf.ents[:0], leaf.ents[i:]...)
		t.markDirty(leaf)
		updateLo(leaf)
		break
	}
	t.size -= removed
	return removed
}

// removeLeftLeaf unlinks the leftmost leaf, cascading removal through
// ancestors that empty and collapsing single-child roots.
func (t *Tree[P]) removeLeftLeaf(leaf *node[P]) {
	next := leaf.next
	if next != nil {
		next.prev = nil
	}
	t.left = next
	p := leaf.parent
	t.release(leaf)
	for p != nil {
		// The node being removed is p's first child: it is on the leftmost
		// path by construction.
		copy(p.kids, p.kids[1:])
		p.kids[len(p.kids)-1] = nil
		p.kids = p.kids[:len(p.kids)-1]
		if len(p.kids) > 0 {
			break
		}
		dead := p
		p = p.parent
		t.release(dead)
	}
	if p == nil {
		// The whole tree emptied out.
		t.root, t.left, t.right = nil, nil, nil
		return
	}
	t.markDirty(p)
	updateLo(p)
	for !t.root.leaf && len(t.root.kids) == 1 {
		old := t.root
		t.root = t.root.kids[0]
		t.root.parent = nil
		t.release(old)
	}
}

// clean returns n's subtree partial, recomputing (and caching) it if the
// spine invalidation dirtied it.
func (t *Tree[P]) clean(n *node[P]) P {
	if !n.dirty {
		return n.agg
	}
	var a P
	if n.leaf {
		a = t.m.Identity()
		for i := range n.ents {
			a = t.m.Combine(a, t.m.Lift(n.ents[i].Val))
		}
	} else {
		a = t.clean(n.kids[0])
		for _, kid := range n.kids[1:] {
			a = t.m.Combine(a, t.clean(kid))
		}
	}
	n.agg = a
	n.dirty = false
	return a
}

// RangeAgg returns the monoid fold, in key order, over all entries with
// lo ≤ ts < hi. It combines cached subtree partials for fully covered
// children and recurses down the O(log n) boundary paths, so a query costs
// O(B·log n) combines plus any lazy partial repair.
func (t *Tree[P]) RangeAgg(lo, hi stream.Time) P {
	acc := t.m.Identity()
	if t.root == nil || lo >= hi {
		return acc
	}
	return t.rangeNode(t.root, Key{TS: lo}, Key{TS: hi}, acc)
}

func (t *Tree[P]) rangeNode(n *node[P], lo, hi Key, acc P) P {
	if n.leaf {
		for i := range n.ents {
			if n.ents[i].Key.Less(lo) {
				continue
			}
			if !n.ents[i].Key.Less(hi) {
				break
			}
			acc = t.m.Combine(acc, t.m.Lift(n.ents[i].Val))
		}
		return acc
	}
	for i, kid := range n.kids {
		if !kid.lo.Less(hi) {
			break // this child and everything right of it starts at/after hi
		}
		if i+1 < len(n.kids) {
			nextLo := n.kids[i+1].lo
			if !lo.Less(nextLo) {
				continue // child's key space [kid.lo, nextLo) ends at/before lo
			}
			if !kid.lo.Less(lo) && !hi.Less(nextLo) {
				// [kid.lo, nextLo) ⊆ [lo, hi): take the cached partial whole.
				acc = t.m.Combine(acc, t.clean(kid))
				continue
			}
		}
		// Boundary child (or the rightmost child, whose upper bound is
		// unknown): recurse.
		acc = t.rangeNode(kid, lo, hi, acc)
	}
	return acc
}

// RangeEach calls fn for every entry with lo ≤ ts < hi, in key order:
// one O(log n) descent to the first covered leaf, then a next-pointer walk.
func (t *Tree[P]) RangeEach(lo, hi stream.Time, fn func(v float64)) {
	if t.root == nil || lo >= hi {
		return
	}
	loK, hiK := Key{TS: lo}, Key{TS: hi}
	n := t.root
	for !n.leaf {
		c := n.kids[0]
		for _, kid := range n.kids[1:] {
			if loK.Less(kid.lo) {
				break
			}
			c = kid
		}
		n = c
	}
	for ; n != nil; n = n.next {
		for i := range n.ents {
			if n.ents[i].Key.Less(loK) {
				continue
			}
			if !n.ents[i].Key.Less(hiK) {
				return
			}
			fn(n.ents[i].Val)
		}
	}
}

// Entries appends every stored entry to out in key order and returns the
// result. Together with Shape it is the tree's snapshot; Load is the inverse.
func (t *Tree[P]) Entries(out []Entry) []Entry {
	for n := t.left; n != nil; n = n.next {
		out = append(out, n.ents...)
	}
	return out
}

// Shape is a tree's node structure without its contents: how many entries
// each leaf holds, left to right, and how many children each internal node
// has, one slice per level from the root down to the leaves' parents.
//
// A cached partial is a left fold over the node's children in key order and
// nothing else, so the sorted entries plus the shape determine every partial
// bit for bit — and every later split, eviction and range fold with them. A
// monoid whose Combine is only approximately associative (a compensated
// float sum) therefore answers identically on a tree and on its Load-ed
// copy, which a tree rebuilt by re-inserting the entries does not.
type Shape struct {
	Leaves []int   `json:"leaves"`
	Levels [][]int `json:"levels,omitempty"`
}

// Shape exports the tree's current shape.
func (t *Tree[P]) Shape() Shape {
	var sh Shape
	if t.root == nil {
		return sh
	}
	level := []*node[P]{t.root}
	for !level[0].leaf {
		counts := make([]int, len(level))
		var below []*node[P]
		for i, n := range level {
			counts[i] = len(n.kids)
			below = append(below, n.kids...)
		}
		sh.Levels = append(sh.Levels, counts)
		level = below
	}
	sh.Leaves = make([]int, len(level))
	for i, n := range level {
		sh.Leaves[i] = len(n.ents)
	}
	return sh
}

// Load replaces the tree's contents by entries arranged in exactly the
// given shape: the inverse of Entries and Shape. Both come from a snapshot
// file, so they are checked as outside input — entries in key order, every
// count within the node fanout, each level's counts summing to the width of
// the level below, one root — and a mismatch is an error that leaves the
// tree unchanged, never a repaired or partially loaded tree.
func (t *Tree[P]) Load(entries []Entry, sh Shape) error {
	for i := 1; i < len(entries); i++ {
		if entries[i].Key.Less(entries[i-1].Key) {
			return fmt.Errorf("fiba: snapshot entry %d is out of key order", i)
		}
	}
	width, err := sumCounts(sh.Leaves, maxLeaf, "leaf")
	if err != nil {
		return err
	}
	if width != len(entries) {
		return fmt.Errorf("fiba: shape places %d entries in %d leaves, snapshot holds %d", width, len(sh.Leaves), len(entries))
	}
	width = len(sh.Leaves)
	for l := len(sh.Levels) - 1; l >= 0; l-- {
		kids, err := sumCounts(sh.Levels[l], maxKids, "internal node")
		if err != nil {
			return err
		}
		if kids != width {
			return fmt.Errorf("fiba: shape level %d links %d children, the level below has %d nodes", l, kids, width)
		}
		width = len(sh.Levels[l])
	}
	if width > 1 {
		return fmt.Errorf("fiba: shape ends in %d nodes without a common root", width)
	}

	*t = Tree[P]{m: t.m}
	if len(entries) == 0 {
		return nil
	}
	level := make([]*node[P], len(sh.Leaves))
	off := 0
	for i, c := range sh.Leaves {
		leaf := t.newLeaf()
		leaf.ents = append(leaf.ents, entries[off:off+c]...)
		leaf.lo, leaf.dirty = leaf.ents[0].Key, true
		if i > 0 {
			leaf.prev, level[i-1].next = level[i-1], leaf
		}
		level[i] = leaf
		off += c
	}
	t.left, t.right = level[0], level[len(level)-1]
	for l := len(sh.Levels) - 1; l >= 0; l-- {
		parents := make([]*node[P], len(sh.Levels[l]))
		off = 0
		for i, c := range sh.Levels[l] {
			p := t.newInternal()
			p.kids = append(p.kids, level[off:off+c]...)
			for _, kid := range p.kids {
				kid.parent = p
			}
			p.lo, p.dirty = p.kids[0].lo, true
			parents[i] = p
			off += c
		}
		level = parents
	}
	t.root, t.size = level[0], len(entries)
	return nil
}

// sumCounts adds up one level of a shape, refusing a count no node of that
// kind can have.
func sumCounts(counts []int, max int, kind string) (int, error) {
	sum := 0
	for i, c := range counts {
		if c < 1 || c > max {
			return 0, fmt.Errorf("fiba: shape gives %s %d a count of %d, want 1..%d", kind, i, c, max)
		}
		sum += c
	}
	return sum, nil
}
