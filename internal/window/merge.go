package window

// Mergeable is implemented by aggregates whose partial results can be
// combined. No operator merges through it: it is the reference arithmetic
// that the tree's scalar partials (treeMonoid) replicate, and the tests
// check the tree against it (FactoryMonoid) and the sum's merge for
// exactness. All built-in aggregates are mergeable.
type Mergeable interface {
	Aggregate
	// MergeFrom folds other (an aggregate of the same concrete type)
	// into the receiver. It panics on a type mismatch — mixing aggregate
	// types in one window is a programming error.
	MergeFrom(other Aggregate)
}

func (a *countAgg) MergeFrom(o Aggregate) { a.n += o.(*countAgg).n }

func (a *sumAgg) MergeFrom(o Aggregate) {
	ob := o.(*sumAgg)
	a.n += ob.n
	a.sum, a.c = sumPlus(a.sum, a.c, ob.sum, ob.c)
}

func (a *avgAgg) MergeFrom(o Aggregate) { a.w.Merge(&o.(*avgAgg).w) }

func (a *stddevAgg) MergeFrom(o Aggregate) { a.w.Merge(&o.(*stddevAgg).w) }

func (a *minAgg) MergeFrom(o Aggregate) {
	ob := o.(*minAgg)
	if ob.n == 0 {
		return
	}
	if a.n == 0 || ob.v < a.v {
		a.v = ob.v
	}
	a.n += ob.n
}

func (a *maxAgg) MergeFrom(o Aggregate) {
	ob := o.(*maxAgg)
	if ob.n == 0 {
		return
	}
	if a.n == 0 || ob.v > a.v {
		a.v = ob.v
	}
	a.n += ob.n
}

func (a *quantileAgg) MergeFrom(o Aggregate) {
	ob := o.(*quantileAgg)
	a.vals = append(a.vals, ob.vals...)
	a.sorted = false
}

func (a *distinctAgg) MergeFrom(o Aggregate) {
	ob := o.(*distinctAgg)
	if a.seen == nil && len(ob.seen) > 0 {
		a.seen = make(map[float64]struct{}, len(ob.seen))
	}
	for v := range ob.seen {
		a.seen[v] = struct{}{}
	}
	a.n += ob.n
}

// Compile-time checks that every built-in aggregate is mergeable.
var (
	_ Mergeable = (*countAgg)(nil)
	_ Mergeable = (*sumAgg)(nil)
	_ Mergeable = (*avgAgg)(nil)
	_ Mergeable = (*stddevAgg)(nil)
	_ Mergeable = (*minAgg)(nil)
	_ Mergeable = (*maxAgg)(nil)
	_ Mergeable = (*quantileAgg)(nil)
	_ Mergeable = (*distinctAgg)(nil)
)
