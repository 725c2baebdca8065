package window

import "repro/internal/stream"

// CoreKind, CoreFiba and NewOpWithCore select nothing: every operator runs
// on the one tree-backed core (fibacore.go). The three names (and
// cq.AggQuery.AggCore) are kept only because bench/ compiles against them
// and may not change in the same PR as the code it measures; a
// benchmark-archetype PR drops those call sites, and then these go.
type CoreKind uint8

// CoreFiba is the only CoreKind.
const CoreFiba CoreKind = 1

// NewOpWithCore is NewOp; the core argument is ignored.
func NewOpWithCore(spec Spec, agg Factory, policy LatePolicy, refineFor stream.Time, _ CoreKind) *Op {
	return NewOp(spec, agg, policy, refineFor)
}
