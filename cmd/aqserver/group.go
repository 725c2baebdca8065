package main

// Disorder-pass groups. Queries over one ring whose handlers release the same
// runs from the same input — cq.ShareKey: one fixed handler, no journal — are
// served by one cq.Group: one ring subscription, one loop, one mutex and one
// cq.Exec whose disorder pass feeds every member's window stage. Every other
// runner is a group of one. Members keep everything that is a query's own:
// results ring, counters, health, flight recorder, logger and instruments.

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cq"
	"repro/internal/fanout"
	"repro/internal/fleet"
)

// runnerGroup is a cq.Group and the runners it feeds.
type runnerGroup struct {
	*cq.Group
	members []*queryRunner // those still in it, in the order they joined; under the group's lock
	key     groupKey       // where the group is open to new members (share "": nowhere)
	done    chan struct{}  // closed once the group's loop has returned
}

// groupKey names the groups a query may join: the ring it reads and its
// cq.ShareKey.
type groupKey struct {
	ring  any // the *fleet.Source or *fanout.Broadcast
	share string
}

// groupRegistry is where runners find their disorder pass.
type groupRegistry struct {
	open sync.Map // per groupKey, the *runnerGroup a new query may still join
}

// place builds def's runner in the group its disorder pass belongs to, on the
// ring it reads — a network source's (src, runtime queries) or a compiled-in
// stream's (b). The runner joins the open group of its key if that group
// admits it (cq.Group.Join: nothing published since it subscribed), so every
// run it is handed is byte for byte what a subscription of its own, made now,
// would deliver; otherwise — or when it may share with nobody — it opens a
// group of its own and starts its loop; a durable query, which shares with
// nobody, has recovered from its log by then. This is the one place the
// server subscribes to a ring.
func (r *groupRegistry) place(def runnerDef, src *fleet.Source, b *fanout.Broadcast) (*queryRunner, error) {
	q := newQueryRunner(def)
	query := q.query()
	key := groupKey{ring: b, share: cq.ShareKey(query)}
	if src != nil {
		key.ring = src
	}
	v, _ := r.open.Load(key)
	g, _ := v.(*runnerGroup)
	if g != nil {
		g.Lock()
		stage, err := g.Join(query, q.absorbOne)
		if stage != nil {
			q.grp, q.mu, q.exec, q.stage = g, &g.Mutex, g.Exec(), stage
			g.members = append(g.members, q)
		}
		g.Unlock()
		if err != nil {
			return nil, err
		}
	}
	if q.grp == nil {
		var sub *fanout.Sub
		if src != nil {
			sub = src.Attach(q.name)
		} else {
			sub = b.Subscribe(q.name, fanout.Block)
		}
		g = &runnerGroup{members: []*queryRunner{q}, key: key, done: make(chan struct{})}
		var err error
		if g.Group, err = cq.NewGroup(query, q.absorbOne, sub, g.fault); err != nil {
			sub.Unsubscribe()
			return nil, err
		}
		q.grp, q.mu, q.exec, q.stage = g, &g.Mutex, g.Exec(), g.Exec().Stages()[0]
		if rec := q.stage.Report().Recovery; rec != nil {
			q.log.Info("recovered from durable state",
				"fromSnapshot", rec.FromSnapshot, "replayed", rec.ReplayedItems,
				"suppressed", rec.SuppressedResults, "durableItems", rec.DurableItems,
				"truncatedBytes", rec.TruncatedBytes)
		}
		if key.share != "" {
			r.open.Store(key, g)
		}
		go g.run(r)
	}
	if q.reg != nil {
		q.instrument(q.reg)
	}
	return q, nil
}

// run is g's loop (cq.Group.Run) until the ring ends — the source closed on
// drain, the compiled-in feed stopped — and the members still in it are
// flushed and marked done, or its last member leaves. Then g is closed to new
// members.
func (g *runnerGroup) run(r *groupRegistry) {
	defer close(g.done)
	g.Run(context.Background()) // no server code fails a ring
	r.open.CompareAndDelete(g.key, g)
	g.Lock()
	defer g.Unlock()
	for _, q := range g.members {
		q.markDone()
	}
}

// fault is the server's policy for what goes wrong in a step (cq.Fault):
// availability over durability for a live dashboard server. A panic (a
// poisoned tuple, an operator bug) is charged to whom it cost — every member
// for the disorder pass, the one whose window stage it hit otherwise — and
// the step carries on behind the item in flight. A durability error degrades
// the query, loudly, rather than stopping ingestion.
func (g *runnerGroup) fault(x *cq.Exec, p any, err error) {
	if p == nil {
		for _, q := range g.members {
			q.journalErrs++
			q.degrade()
			q.log.Error("durability failure; the batch was applied without it", "err", err)
		}
		return
	}
	stage, it := x.InFlight()
	hit := x.InFlightStage()
	for _, q := range g.members {
		// q.stage is nil only while the group is being built, with q alone in it.
		if hit == nil || q.stage == hit || q.stage == nil {
			q.panics++
			q.degrade()
			q.tracer.Panic(stage, int64(x.Now()), fmt.Sprint(p))
			q.log.Error("panic isolated while processing item", "stage", stage.String(), "item", fmt.Sprint(it), "panic", fmt.Sprint(p))
		}
	}
}
