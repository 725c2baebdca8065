package main

// Disorder-pass groups. Queries over one ring whose handlers release the same
// runs from the same input — cq.ShareKey: one fixed handler, no journal — are
// served by one group: one ring subscription, one pump, one mutex and one
// cq.Exec whose disorder pass feeds every member's window stage. Every other
// runner is a group of one. Members keep everything that is a query's own:
// results ring, counters, health, flight recorder, logger and instruments.

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/cq"
	"repro/internal/fanout"
	"repro/internal/fleet"
	"repro/internal/obs/tracez"
	"repro/internal/stream"
)

// runnerGroup is one disorder pass and the runners it feeds.
type runnerGroup struct {
	mu      sync.Mutex // guards the step core and every member's bookkeeping
	exec    *cq.Exec
	members []*queryRunner // those still in it, in the order they joined
	closed  bool           // the ring ended or the last member left: nothing joins, nothing is stepped

	// sub is the group's ring subscription (nil for a runner a test steps by
	// hand); run starts the pump that reads it, and the last member to leave
	// stops it.
	sub      *fanout.Sub
	runOnce  sync.Once
	cancel   context.CancelFunc
	pumpDone chan struct{}

	reg *groupRegistry // where the group is open to new members (nil: never)
	key groupKey
}

// groupKey names the groups a query may join: the ring it reads and its
// cq.ShareKey.
type groupKey struct {
	ring  any // the *fleet.Source or *fanout.Broadcast
	share string
}

// groupRegistry is where runners find their disorder pass.
type groupRegistry struct {
	mu   sync.Mutex
	open map[groupKey]*runnerGroup // per key, the group a new query may still join
}

// place builds def's runner in the group its disorder pass belongs to, on the
// ring it reads — a network source's (src, runtime queries) or a compiled-in
// stream's (b). The runner joins the open group of its key when nothing has
// been published on the ring since that group attached, so that every run it
// is handed is byte for byte what a subscription of its own, made now, would
// deliver; otherwise — or when it may share with nobody — it opens a group of
// its own. This is the one place the server subscribes to a ring, and where a
// runner's ring gauges are registered over its group's subscription.
func (r *groupRegistry) place(def runnerDef, src *fleet.Source, b *fanout.Broadcast) (*queryRunner, error) {
	key := groupKey{ring: b, share: cq.ShareKey(def.query(nil))}
	if src != nil {
		key.ring = src
	}
	q, err := r.join(key, def)
	if err != nil {
		return nil, err
	}
	if q == nil {
		if q, err = newQueryRunner(def, nil); err != nil {
			return nil, err
		}
		g := q.grp
		if src != nil {
			g.sub = src.Attach(q.name)
		} else {
			g.sub = b.Subscribe(q.name, fanout.Block)
		}
		if key.share != "" {
			r.mu.Lock()
			if r.open == nil {
				r.open = make(map[groupKey]*runnerGroup)
			}
			g.reg, g.key, r.open[key] = r, key, g
			r.mu.Unlock()
		}
	}
	q.telem.RingGauges(q.grp.sub)
	return q, nil
}

// join builds def's runner into the open group of key if it is still fresh,
// and returns nil, nil if there is none.
func (r *groupRegistry) join(key groupKey, def runnerDef) (*queryRunner, error) {
	if key.share == "" {
		return nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.open[key]
	if g == nil {
		return nil, nil
	}
	// Held across the join, so nothing is stepped between the check and the
	// new stage.
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed || !g.sub.Fresh() {
		return nil, nil
	}
	return newQueryRunner(def, g)
}

// forget closes g to new members.
func (r *groupRegistry) forget(g *runnerGroup) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.open[g.key] == g {
		delete(r.open, g.key)
	}
}

// run starts g's pump, once; the pump stops when the ring ends or the last
// member leaves.
func (g *runnerGroup) run(ctx context.Context) {
	g.runOnce.Do(func() {
		ctx, cancel := context.WithCancel(ctx)
		done := make(chan struct{})
		g.mu.Lock()
		g.cancel, g.pumpDone = cancel, done
		g.mu.Unlock()
		go func() {
			defer close(done)
			pumpRing(ctx, g)
		}()
	})
}

// pumpRing feeds g from its ring subscription until the ring ends (source
// closed on drain, compiled-in feed stopped) or ctx is cancelled (the last
// member's DELETE), and then finishes the group. It is the one ring consumer:
// compiled-in and runtime groups, of one query or many, grouped or not, all
// run it, stepping each ring batch whole.
func pumpRing(ctx context.Context, g *runnerGroup) {
	defer g.finish()
	defer g.sub.Unsubscribe()
	var shed int64
	for {
		items, seq, prov, ok, err := g.sub.NextBatchProv(ctx)
		if lost := g.sub.Shed() - shed; lost > 0 { // a ShedOldest lap
			shed += lost
			g.mu.Lock()
			g.exec.NoteShed(lost)
			g.mu.Unlock()
		}
		if err != nil {
			if ctx.Err() == nil {
				g.stall(err)
			}
			return
		}
		if !ok {
			return
		}
		g.step(items, prov)
		g.sub.Release(seq)
	}
}

// step is the server's policy around Exec.Step: apply one batch under the
// group's lock, then group-commit the journal — a live server bounds crash
// loss by the batch, not by the log's item cadence. Wire provenance rides the
// ring alongside the batch and is noted first, so the emissions the batch
// triggers are charged against its client send time. A panic (a poisoned
// tuple, an operator bug) is isolated to the item in flight: it is counted on
// the runners it cost, they are marked degraded, and the step is resumed
// behind that item. A durability error degrades the query (loudly) rather
// than stopping ingestion: availability over durability for a live dashboard
// server.
func (g *runnerGroup) step(batch []stream.Item, prov stream.BatchProv) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return
	}
	seam := false
	for _, q := range g.members {
		q.noteWireBatch(prov, len(batch))
		seam = seam || q.panicOn != nil
	}
	if seam {
		// Test seam armed: one item per step, so an injected panic costs
		// exactly the item it names.
		for i := range batch {
			g.stepIsolated(batch[i:i+1], false)
		}
	} else {
		for resume := false; !g.stepIsolated(batch, resume); resume = true {
		}
	}
	for _, q := range g.members {
		if q.dlog != nil {
			if err := q.dlog.Commit(); err != nil {
				q.journalErrs++
				q.log.Error("journal commit failed", "err", err)
			}
		}
	}
}

// stepIsolated runs Step — or Resume: behind a panic, and for the recovery
// replay — and reports whether it ran to completion; g.mu must be held
// (newQueryRunner calls it before the group is shared). A panic in the
// disorder pass costs every member the item in flight, one in a member's
// window stage that member alone: the panic is charged to whom it cost.
func (g *runnerGroup) stepIsolated(batch []stream.Item, resume bool) (completed bool) {
	defer func() {
		if p := recover(); p != nil {
			stage, it := g.exec.InFlight()
			hit := g.exec.InFlightStage()
			for _, q := range g.members {
				if hit == nil || q.stage == hit {
					q.notePanic(stage, it, p)
				}
			}
		}
	}()
	if resume {
		g.exec.Resume()
		return true
	}
	for _, q := range g.members {
		if q.panicOn != nil && q.panicOn(batch[0]) {
			panic("injected processing fault")
		}
	}
	if err := g.exec.Step(batch); err != nil {
		for _, q := range g.members {
			q.journalErrs++
			q.degrade()
			q.log.Error("durability failure; the batch was applied without it", "err", err)
		}
	}
	return true
}

// notePanic charges one isolated panic to q: counted, q degraded, its flight
// recorder and log told. The group's lock is held.
func (q *queryRunner) notePanic(stage tracez.Stage, it stream.Item, p any) {
	q.panics++
	q.degrade()
	q.tracer.Panic(stage, int64(q.exec.Now()), fmt.Sprint(p))
	q.log.Error("panic isolated while processing item", "stage", stage.String(), "item", fmt.Sprint(it), "panic", fmt.Sprint(p))
}

// stall marks every member stalled: the source ring failed.
func (g *runnerGroup) stall(err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, q := range g.members {
		q.setHealthLocked(healthStalled)
		q.log.Error("source ring failed", "err", err)
	}
}

// finish ends the group's stream, once the pump has stopped: every member
// still in it has its windows flushed and is marked done.
func (g *runnerGroup) finish() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return
	}
	g.closed = true
	err := g.exec.Finish()
	for _, q := range g.members {
		q.markDone(err)
	}
}

// leave ends q: its stage leaves the step core (cq.Exec.Leave) with its
// windows flushed — through a private copy of the handler while other members
// remain, which run on untouched. When q was the last member the group is
// closed, and leave returns what stops its pump; nil otherwise.
func (g *runnerGroup) leave(q *queryRunner) (stop func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if q.done {
		return nil
	}
	q.markDone(g.exec.Leave(q.stage))
	g.members = slices.DeleteFunc(g.members, func(m *queryRunner) bool { return m == q })
	if len(g.members) > 0 {
		return nil
	}
	g.closed = true
	cancel, done, sub, reg := g.cancel, g.pumpDone, g.sub, g.reg
	return func() {
		if cancel != nil {
			cancel()
		}
		if sub != nil {
			sub.Unsubscribe()
		}
		if done != nil {
			<-done
		}
		if reg != nil {
			reg.forget(g)
		}
	}
}
