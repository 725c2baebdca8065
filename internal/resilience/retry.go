package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/stats"
	"repro/internal/stream"
)

// Retry configures exponential backoff with jitter and an optional
// circuit breaker. The zero value is usable: 5 attempts, 10ms base delay
// doubling to a 1s cap, ±20% jitter, breaker disabled.
type Retry struct {
	MaxAttempts int           // total attempts per operation; 0 = 5
	BaseDelay   time.Duration // delay after the first failure; 0 = 10ms
	MaxDelay    time.Duration // backoff cap; 0 = 1s
	Jitter      float64       // ± fraction of the delay; 0 = 0.2, negative = none
	Seed        uint64        // jitter RNG seed, for reproducible schedules

	// BreakerThreshold consecutive failures open the circuit for
	// BreakerCooldown, during which calls fail fast with ErrCircuitOpen.
	// Zero threshold disables the breaker.
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// Clock provides the time source for backoff sleeps and breaker
	// cooldowns. Nil means WallClock; the deterministic simulation
	// harness injects a virtual clock here so retry schedules replay
	// identically without wall-clock delays.
	Clock Clock

	// OnRetry, when set, is invoked after each failed attempt that will
	// be retried (attempt numbers start at 1). cmd/aqserver mirrors
	// retries into the flight recorder with it; keep it cheap and
	// non-blocking.
	OnRetry func(attempt int, err error)

	// OnBreakerTrip, when set, fires on each closed→open breaker
	// transition observed by a RetryingSource.
	OnBreakerTrip func()
}

func (r Retry) withDefaults() Retry {
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 5
	}
	if r.BaseDelay <= 0 {
		r.BaseDelay = 10 * time.Millisecond
	}
	if r.MaxDelay <= 0 {
		r.MaxDelay = time.Second
	}
	switch {
	case r.Jitter == 0:
		r.Jitter = 0.2
	case r.Jitter < 0:
		r.Jitter = 0
	}
	if r.BreakerCooldown <= 0 {
		r.BreakerCooldown = time.Second
	}
	r.Clock = orWall(r.Clock)
	return r
}

// backoffGrowth is the factor the backoff delay grows by per failed attempt.
const backoffGrowth = 2

// backoff returns the sleep before attempt n (n = 1 after the first
// failure), with jitter drawn from rng.
func (r Retry) backoff(n int, rng *stats.RNG) time.Duration {
	d := float64(r.BaseDelay)
	for i := 1; i < n; i++ {
		d *= backoffGrowth
		if d >= float64(r.MaxDelay) {
			break
		}
	}
	if d > float64(r.MaxDelay) {
		d = float64(r.MaxDelay)
	}
	if r.Jitter > 0 {
		d *= 1 + r.Jitter*(2*rng.Float64()-1)
	}
	return time.Duration(d)
}

// Do runs op, retrying per the config until it succeeds, attempts run out,
// or ctx is cancelled. The returned error wraps the last failure.
func (r Retry) Do(ctx context.Context, op func() error) error {
	r = r.withDefaults()
	rng := stats.NewRNG(r.Seed)
	var err error
	for attempt := 1; ; attempt++ {
		if err = op(); err == nil {
			return nil
		}
		if attempt >= r.MaxAttempts {
			return fmt.Errorf("resilience: gave up after %d attempts: %w", attempt, err)
		}
		if serr := r.Clock.Sleep(ctx, r.backoff(attempt, rng)); serr != nil {
			return serr
		}
	}
}

// ErrCircuitOpen is returned (wrapped) while a breaker is open.
var ErrCircuitOpen = errors.New("resilience: circuit breaker open")

// Breaker is a small consecutive-failure circuit breaker. It is not
// goroutine-safe; each pipeline stage owns its own.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable clock for tests

	fails    int
	openedAt time.Time
	open     bool
	probing  bool
	trips    atomic.Int64 // closed→open transitions; atomic so monitors can read it live
}

// NewBreaker returns a breaker that opens after threshold consecutive
// failures and stays open for cooldown. threshold <= 0 yields 5;
// cooldown <= 0 yields 1s.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = time.Second
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Allow reports whether a call may proceed. While open it returns false
// until the cooldown elapses, then admits a single half-open probe.
func (b *Breaker) Allow() bool {
	if !b.open {
		return true
	}
	if b.now().Sub(b.openedAt) < b.cooldown {
		return false
	}
	if b.probing {
		return false // one probe in flight already
	}
	b.probing = true
	return true
}

// Success records a successful call and closes the breaker.
func (b *Breaker) Success() {
	b.fails = 0
	b.open = false
	b.probing = false
}

// Failure records a failed call, opening (or re-opening) the breaker once
// the consecutive-failure threshold is reached.
func (b *Breaker) Failure() {
	b.fails++
	if b.probing || b.fails >= b.threshold {
		if !b.open {
			b.trips.Add(1)
		}
		b.open = true
		b.probing = false
		b.openedAt = b.now()
	}
}

// Trips counts closed→open transitions. Unlike the rest of Breaker it is
// safe to read from other goroutines, so monitoring can export it while
// the owning stage keeps running.
func (b *Breaker) Trips() int64 { return b.trips.Load() }

// RetryingSource wraps a fallible source with a Retry policy: transient
// NextErr failures are retried with backoff (and optionally gated by a
// circuit breaker) before surfacing a terminal error to the pipeline.
// Retries() exposes how many retry attempts were spent, so its owner (the
// server's feed loop, a test) can report them.
type RetryingSource struct {
	ctx     context.Context
	src     stream.ErrSource
	retry   Retry
	breaker *Breaker
	rng     *stats.RNG
	retries atomic.Int64
}

// NewRetryingSource wraps src. ctx bounds the backoff sleeps — cancelling
// it aborts an in-progress retry loop with the context's error. The retry
// config's Clock (WallClock by default) times both the backoff sleeps and
// the breaker cooldown.
func NewRetryingSource(ctx context.Context, src stream.ErrSource, retry Retry) *RetryingSource {
	retry = retry.withDefaults()
	s := &RetryingSource{ctx: ctx, src: src, retry: retry, rng: stats.NewRNG(retry.Seed)}
	if retry.BreakerThreshold > 0 {
		s.breaker = NewBreaker(retry.BreakerThreshold, retry.BreakerCooldown)
		s.breaker.now = retry.Clock.Now
	}
	return s
}

// Retries returns the number of retry attempts performed so far. It is
// safe to read from another goroutine.
func (s *RetryingSource) Retries() int64 { return s.retries.Load() }

// NextErr implements stream.ErrSource. It returns an error only when the
// retry budget is exhausted or the breaker refuses the call.
func (s *RetryingSource) NextErr() (stream.Item, bool, error) {
	var last error
	for attempt := 1; ; attempt++ {
		if s.breaker != nil && !s.breaker.Allow() {
			if last == nil {
				return stream.Item{}, false, ErrCircuitOpen
			}
			return stream.Item{}, false, fmt.Errorf("%w (last error: %v)", ErrCircuitOpen, last)
		}
		it, ok, err := s.src.NextErr()
		if err == nil {
			if s.breaker != nil {
				s.breaker.Success()
			}
			return it, ok, nil
		}
		last = err
		if s.breaker != nil {
			t0 := s.breaker.Trips()
			s.breaker.Failure()
			if s.retry.OnBreakerTrip != nil && s.breaker.Trips() > t0 {
				s.retry.OnBreakerTrip()
			}
		}
		if attempt >= s.retry.MaxAttempts {
			return stream.Item{}, false, fmt.Errorf("resilience: source failed after %d attempts: %w", attempt, err)
		}
		s.retries.Add(1)
		if s.retry.OnRetry != nil {
			s.retry.OnRetry(attempt, err)
		}
		if serr := s.retry.Clock.Sleep(s.ctx, s.retry.backoff(attempt, s.rng)); serr != nil {
			return stream.Item{}, false, serr
		}
	}
}
