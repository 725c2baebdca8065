package resilience

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/stream"
)

func TestRetryDoSucceedsAfterFailures(t *testing.T) {
	calls := 0
	err := Retry{MaxAttempts: 5, BaseDelay: time.Microsecond, Jitter: -1}.Do(context.Background(), func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestRetryDoGivesUp(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	err := Retry{MaxAttempts: 4, BaseDelay: time.Microsecond}.Do(context.Background(), func() error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v, want wrapped boom", err)
	}
	if calls != 4 {
		t.Fatalf("calls=%d, want 4", calls)
	}
}

func TestRetryDoHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Retry{MaxAttempts: 10, BaseDelay: time.Hour}.Do(ctx, func() error { return errors.New("x") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
}

func TestBackoffGrowthAndCap(t *testing.T) {
	r := Retry{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Jitter: -1}.withDefaults()
	rng := stats.NewRNG(0)
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if got := r.backoff(i+1, rng); got != w*time.Millisecond {
			t.Fatalf("backoff(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	r := Retry{BaseDelay: 100 * time.Millisecond, MaxDelay: 100 * time.Millisecond, Jitter: 0.5}.withDefaults()
	rng := stats.NewRNG(1)
	for i := 0; i < 1000; i++ {
		d := r.backoff(3, rng)
		if d < 50*time.Millisecond || d > 150*time.Millisecond {
			t.Fatalf("jittered backoff %v outside ±50%% of 100ms", d)
		}
	}
}

// breakerState names b's state: closed, open (failing fast until the
// cooldown passes) or half-open (cooldown passed; one probe allowed).
func breakerState(b *Breaker) string {
	switch {
	case !b.open:
		return "closed"
	case b.now().Sub(b.openedAt) >= b.cooldown:
		return "half-open"
	default:
		return "open"
	}
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(3, time.Second)
	b.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatal("closed breaker refused a call")
		}
		b.Failure()
	}
	if breakerState(b) != "closed" {
		t.Fatalf("state %v before threshold", breakerState(b))
	}
	b.Failure() // third consecutive failure: opens
	if breakerState(b) != "open" {
		t.Fatalf("state %v after threshold, want open", breakerState(b))
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a call")
	}

	now = now.Add(2 * time.Second) // cooldown passes: half-open
	if breakerState(b) != "half-open" {
		t.Fatalf("state %v after cooldown, want half-open", breakerState(b))
	}
	if !b.Allow() {
		t.Fatal("half-open breaker refused the probe")
	}
	if b.Allow() {
		t.Fatal("half-open breaker allowed a second concurrent probe")
	}
	b.Failure() // probe fails: re-opens with a fresh cooldown
	if breakerState(b) != "open" || b.Allow() {
		t.Fatalf("failed probe did not re-open (state %v)", breakerState(b))
	}

	now = now.Add(2 * time.Second)
	if !b.Allow() {
		t.Fatal("second probe refused")
	}
	b.Success()
	if breakerState(b) != "closed" || !b.Allow() {
		t.Fatalf("successful probe did not close (state %v)", breakerState(b))
	}
}

// flaky fails with err for the first failN calls at each position.
type flaky struct {
	src    stream.ErrSource
	failN  int
	fails  int
	broken bool // permanently failing
}

func (f *flaky) NextErr() (stream.Item, bool, error) {
	if f.broken {
		return stream.Item{}, false, errors.New("permanently broken")
	}
	if f.fails < f.failN {
		f.fails++
		return stream.Item{}, false, errors.New("flaky")
	}
	f.fails = 0
	return f.src.NextErr()
}

func TestRetryingSourceRecovers(t *testing.T) {
	in := tuples(50)
	rs := NewRetryingSource(context.Background(),
		&flaky{src: stream.AsErrSource(stream.FromTuples(in)), failN: 2},
		Retry{MaxAttempts: 4, BaseDelay: time.Microsecond})
	var n int
	for {
		it, ok, err := rs.NextErr()
		if err != nil {
			t.Fatalf("terminal error: %v", err)
		}
		if !ok {
			break
		}
		if it.Tuple.Seq != uint64(n) {
			t.Fatalf("out of sequence at %d: %v", n, it.Tuple)
		}
		n++
	}
	if n != len(in) {
		t.Fatalf("delivered %d, want %d", n, len(in))
	}
	// Every position (including EOF) needed 2 retries.
	if got := rs.Retries(); got != int64(2*(len(in)+1)) {
		t.Fatalf("Retries = %d, want %d", got, 2*(len(in)+1))
	}
}

func TestRetryingSourceExhaustsBudget(t *testing.T) {
	rs := NewRetryingSource(context.Background(), &flaky{broken: true},
		Retry{MaxAttempts: 3, BaseDelay: time.Microsecond})
	_, _, err := rs.NextErr()
	if err == nil || rs.Retries() != 2 {
		t.Fatalf("err=%v retries=%d", err, rs.Retries())
	}
}

func TestRetryingSourceBreakerFailsFast(t *testing.T) {
	rs := NewRetryingSource(context.Background(), &flaky{broken: true},
		Retry{MaxAttempts: 10, BaseDelay: time.Microsecond,
			BreakerThreshold: 3, BreakerCooldown: time.Hour})
	_, _, err := rs.NextErr()
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err=%v, want ErrCircuitOpen", err)
	}
	// Subsequent calls fail fast without touching the source.
	if _, _, err := rs.NextErr(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("second call err=%v, want ErrCircuitOpen", err)
	}
}
