// Package dst is the deterministic simulation-testing harness for the
// concurrent continuous-query engine. It closes the evidence gap PR 3
// left open: the engine's core contracts — concurrent output byte-equal
// to the synchronous executor, realized quality within the user's bound
// θ, metamorphic invariances — were asserted only at a handful of
// hand-picked configurations. dst sweeps them across a seed-derived
// matrix of workloads × delay distributions × fault plans × engine
// shapes, with every run replayable byte-for-byte from its seed.
//
// Three properties make a run deterministic:
//
//   - All randomness (workload generation, chaos fault schedules, retry
//     jitter, plan derivation) flows from seeded stats.RNG instances; no
//     global RNG, no map-iteration dependence.
//   - Time is virtual: the Scheduler implements resilience.Clock, so
//     chaos stalls and retry backoffs advance simulated time instantly
//     instead of sleeping. Simulated and production runs share one code
//     path — only the injected clock differs
//     (resilience.FaultSource.WithClock, resilience.Retry.Clock).
//   - The engine's own output contract (batched transport preserves
//     the synchronous executor's output exactly)
//     removes goroutine-schedule dependence from everything the harness
//     observes. Plans therefore never enable load shedding — sheds are
//     decided by live queue depth, the one intentionally
//     schedule-dependent behaviour in the engine — so a DST plan's
//     output is a pure function of its seed.
//
// A failing plan is shrunk (see Shrink) to a minimal configuration that
// still fails and written to testdata/ as a Transcript: the plan, the
// event-transcript digest and the failure, small enough to commit and
// replay as a regression test.
package dst

import (
	"context"
	"sync"
	"time"

	"repro/internal/stream"
)

// Scheduler is a seed-reproducible virtual clock. It advances time only
// through the explicit AdvanceTo/AdvanceToStream/Sleep calls — never by
// waiting. It implements resilience.Clock, so pipeline components that
// would sleep on the wall clock (chaos stalls, retry backoff, breaker
// cooldowns) instead move simulated time forward instantly.
//
// The scheduler is safe for concurrent use: the engine's source stage
// calls Sleep from its own goroutine while the harness reads Now. Within
// one run the pipeline has a single time-consuming goroutine (the source
// stage owns the chaos source and the retrier), so concurrent sleeps
// never race for ordering — the mutex is about memory safety under
// -race, not about scheduling policy.
type Scheduler struct {
	mu  sync.Mutex
	now time.Time
}

// simEpoch anchors virtual time. The concrete value is arbitrary but
// fixed: transcripts must not depend on when the simulation ran.
var simEpoch = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

// NewScheduler returns a scheduler positioned at the fixed simulation
// epoch.
func NewScheduler() *Scheduler { return &Scheduler{now: simEpoch} }

// Now implements resilience.Clock.
func (s *Scheduler) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Sleep implements resilience.Clock: simulated waiting is instantaneous —
// the virtual clock jumps forward by d. The context is only checked, never
// waited on, so a cancelled pipeline still unwinds promptly.
func (s *Scheduler) Sleep(ctx context.Context, d time.Duration) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if d <= 0 {
		return nil
	}
	s.mu.Lock()
	s.now = s.now.Add(d)
	s.mu.Unlock()
	return nil
}

// AdvanceTo moves virtual time forward to t (a no-op if t is in the past).
func (s *Scheduler) AdvanceTo(t time.Time) {
	s.mu.Lock()
	if t.After(s.now) {
		s.now = t
	}
	s.mu.Unlock()
}

// AdvanceToStream positions virtual time at stream-time st, using the
// repository convention of one stream-time unit per millisecond. The
// paced source uses it to keep Now aligned with the arrival position of
// the item being delivered.
func (s *Scheduler) AdvanceToStream(st stream.Time) {
	s.AdvanceTo(simEpoch.Add(time.Duration(st) * time.Millisecond))
}

// pacedSource wraps an item source so that delivering an item first
// advances the scheduler to the item's arrival position — virtual time
// tracks the stream, which is what timestamps any stall or backoff that
// fires between deliveries.
type pacedSource struct {
	src   stream.ErrSource
	sched *Scheduler
}

// NextErr implements stream.ErrSource.
func (p *pacedSource) NextErr() (stream.Item, bool, error) {
	it, ok, err := p.src.NextErr()
	if err != nil || !ok {
		return it, ok, err
	}
	if it.Heartbeat {
		p.sched.AdvanceToStream(it.Watermark)
	} else {
		p.sched.AdvanceToStream(it.Tuple.Arrival)
	}
	return it, ok, nil
}
