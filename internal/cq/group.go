package cq

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/fanout"
	"repro/internal/stream"
	"repro/internal/window"
)

// Group is one disorder pass on a fan-out ring — the K-slack as an operator
// of the stream, driving the window stages of its members (kapacitor's stream
// node and its window children): an Exec, the subscription it reads, and the
// lock (the embedded mutex) that serializes every call into the Exec. Run is
// the one ring consumer: RunShared and RunConcurrent run a Group per share
// key, cmd/aqserver one per ring and share key, joined at runtime. Run takes
// the lock around each batch; Join, Leave and every read of a member's live
// state (its Stage's Report, the Exec's handler) hold it, or come before Run.
type Group struct {
	sync.Mutex
	x       *Exec
	sub     *fanout.Sub
	fault   Fault
	members int
	prov    stream.BatchProv   // the last provenance-marked batch the loop took
	stop    context.CancelFunc // cancels Run's context; nil until Run starts
	closed  bool               // the ring ended or the last member left: nothing joins, nothing is stepped
}

// Fault is a driver's policy for what goes wrong in a group's step, called
// under its lock with a panic the loop recovered (p: x.InFlight and
// x.InFlightStage say where it hit and whom it cost) or a durability error.
// The loop then carries on — behind a panic it resumes the step, so the panic
// costs the item in flight (one in Finish ends the group). A nil Fault, the
// in-process drivers', fails the group instead: Run returns the error.
type Fault func(x *Exec, p any, err error)

// NewGroup builds the group of one query (built without a source, as for
// NewExec) on sub, the subscription Run reads, under fault. A Durable query's
// journal suffix, if its log holds prior state, is replayed here, under fault.
func NewGroup(q *AggQuery, sink func(window.Result), sub *fanout.Sub, fault Fault) (*Group, error) {
	x, err := NewExec(q, sink)
	if err != nil {
		return nil, err
	}
	g := &Group{x: x, sub: sub, fault: fault, members: 1}
	q.telem.RingGauges(sub)
	if x.pend != nil {
		if err := g.try(func() error { x.Resume(); return nil }, true); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Join adds q's window stage to the group (Exec.Join) and returns it — or
// nil, nil when the group is closed, or something has been published since it
// subscribed, so that the stage would not be handed byte for byte what a
// subscription of its own would deliver. g's lock is held.
func (g *Group) Join(q *AggQuery, sink func(window.Result)) (*Stage, error) {
	if g.closed || !g.sub.Fresh() {
		return nil, nil
	}
	s, err := g.x.Join(q, sink)
	if err != nil {
		return nil, err
	}
	g.members++
	q.telem.RingGauges(g.sub)
	return s, nil
}

// Leave ends s's query as Exec.Leave does, unless the ring has already ended
// it, and reports whether it was the last member: the group is then closed,
// its subscription released and its loop stopped. g's lock is held.
func (g *Group) Leave(s *Stage) (last bool, err error) {
	if !g.closed {
		err = g.x.Leave(s)
	}
	if g.members--; g.members == 0 {
		g.closed = true
		g.sub.Unsubscribe()
		if g.stop != nil {
			g.stop()
		}
	}
	return g.members == 0, err
}

// Exec returns the group's step core.
func (g *Group) Exec() *Exec { return g.x }

// Sub returns the subscription the group reads.
func (g *Group) Sub() *fanout.Sub { return g.sub }

// Prov returns the provenance of the last marked batch the loop took, which
// the emissions of a step are charged against. g's lock is held.
func (g *Group) Prov() stream.BatchProv { return g.prov }

// Run is the one ring consumer. It borrows each published batch in place,
// charges a ShedOldest lap to every member, takes the batch in, steps it
// whole, group-commits the journal — crash loss is bounded by the batch — and
// releases it. When the ring ends it finishes the Exec and returns; it also
// returns once the last member has left (nil), ctx is cancelled, the producer
// failed (after everything published before was applied), or, under a nil
// Fault, a step failed. The subscription is released on the way out, so a
// loop that stops wedges no Block peer.
func (g *Group) Run(ctx context.Context) error {
	g.Lock()
	if g.closed {
		g.Unlock()
		return nil
	}
	ctx, g.stop = context.WithCancel(ctx)
	g.Unlock()
	defer g.stop()
	defer g.sub.Unsubscribe()
	var shed int64
	for {
		items, seq, prov, ok, err := g.sub.NextBatchProv(ctx)
		g.Lock()
		if g.closed {
			g.Unlock()
			return nil
		}
		if lost := g.sub.Shed() - shed; lost > 0 { // a ShedOldest lap
			shed += lost
			g.x.noteShed(lost)
		}
		switch {
		case err != nil && ctx.Err() == nil:
			err = fmt.Errorf("cq: source: %w", err)
		case err != nil:
		case !ok:
			g.closed = true
			err = g.try(g.x.Finish, false)
		default:
			err = g.step(items, prov)
		}
		g.Unlock()
		if err != nil || !ok {
			return err
		}
		g.sub.Release(seq)
	}
}

// step applies one ring batch under the fault policy: the intake (input
// record and disorder measurement, Exec.noteInput; a SourceBatch event and,
// for a marked batch, a WireBatch event in every member's recorder), then
// Exec.Step and the journal's commit. The batch is only read.
func (g *Group) step(items []stream.Item, prov stream.BatchProv) error {
	x := g.x
	x.noteInput(items)
	if prov.Valid() {
		g.prov = prov
	}
	for _, s := range x.stages {
		s.q.tracer.SourceBatch(int64(x.dis.Clock), len(items))
		if prov.Valid() {
			s.q.tracer.WireBatch(time.Now().UnixMilli(), prov.BatchID, len(items), prov.SendMS)
		}
	}
	if err := g.try(func() error { return x.Step(items) }, true); err != nil {
		return err
	}
	return g.try(x.commit, false)
}

// try runs step under the fault policy: under a nil Fault a panic or error
// fails it; otherwise the Fault is told, and behind a panic in a resumable
// step Exec.Resume carries on until it completes.
func (g *Group) try(step func() error, resumable bool) error {
	for {
		p, err := recovered(step)
		if g.fault == nil {
			if p != nil {
				return g.x.panicErr(p)
			}
			return err
		}
		if p != nil || err != nil {
			g.fault(g.x, p, err)
		}
		if p == nil || !resumable {
			return nil
		}
		step = func() error { g.x.Resume(); return nil }
	}
}

// recovered runs f and returns the panic it raised, if any, or its error.
func recovered(f func() error) (p any, err error) {
	defer func() { p = recover() }()
	return nil, f()
}
