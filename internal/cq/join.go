package cq

import (
	"errors"

	"repro/internal/buffer"
	"repro/internal/join"
	"repro/internal/metrics"
	"repro/internal/stream"
)

// JoinQuery is a two-stream sliding-window join continuous query. The two
// sources are merged by arrival time; tuples must carry Src 0 (left) or
// Src 1 (right).
type JoinQuery struct {
	left, right stream.Source
	handler     buffer.Handler
	cfg         join.Config
	keepInput   bool
}

// NewJoin starts building a join query over two arrival-ordered sources.
func NewJoin(left, right stream.Source, cfg join.Config) *JoinQuery {
	return &JoinQuery{left: left, right: right, cfg: cfg}
}

// Handle sets the disorder handler applied to the merged stream. Defaults
// to no handling (K = 0).
func (q *JoinQuery) Handle(h buffer.Handler) *JoinQuery {
	q.handler = h
	return q
}

// KeepInput retains the input tuples per side for oracle computation.
func (q *JoinQuery) KeepInput() *JoinQuery {
	q.keepInput = true
	return q
}

// JoinReport is the outcome of executing a JoinQuery.
type JoinReport struct {
	Results     []join.Result
	Join        join.Stats
	Handler     buffer.Stats
	Left, Right []stream.Tuple // only when KeepInput was set
}

// Quality compares emitted pairs against the oracle's; the query must have
// been built with KeepInput.
func (r *JoinReport) Quality(cfg join.Config) metrics.PairReport {
	return metrics.PairMetrics(join.PairSet(r.Results), join.OraclePairs(cfg, r.Left, r.Right))
}

// Run executes the join query synchronously, as AggQuery.Run executes a
// query, over the merged sources, with a join operator of the query's config
// as its window stage.
func (q *JoinQuery) Run() (*JoinReport, error) {
	if q.left == nil || q.right == nil {
		return nil, errors.New("cq: join query needs two sources")
	}
	if q.cfg.Band <= 0 {
		return nil, errors.New("cq: join band must be positive")
	}
	op := join.New(q.cfg)
	x, err := newExec(&AggQuery{handler: q.handler, keepInput: q.keepInput, join: op}, nil)
	if err != nil {
		return nil, err
	}
	agg, err := x.run(stream.AsErrSource(stream.NewMerge(q.left, q.right)))
	if err != nil {
		return nil, err
	}
	rep := &JoinReport{Results: x.stages[0].win.(*joinStage).pairs, Join: op.Stats(), Handler: agg.Handler}
	for _, t := range agg.Input {
		side := &rep.Left
		if t.Src != 0 {
			side = &rep.Right
		}
		*side = append(*side, t)
	}
	return rep, nil
}
