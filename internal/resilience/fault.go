// Package resilience hardens the continuous-query pipeline against the
// failure modes a deployed stream processor actually meets: flaky sources,
// stalls, duplicate delivery, delay-spike bursts, and stage panics.
//
// It has two halves. The fault-injection half (Chaos, FaultSource) wraps
// any stream source and injects failures deterministically by seed, so
// chaos runs are reproducible in tests and via aqserver's -chaos flag. The
// recovery half (Retry, Breaker, RetryingSource) is the machinery the
// pipeline uses to survive those faults: exponential-backoff retries behind
// a small circuit breaker. (What a slow consumer costs is the ingest ring's
// business: fanout.Policy.)
package resilience

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
	"repro/internal/stream"
)

// Chaos configures deterministic fault injection for a FaultSource. All
// rates are per-call probabilities in [0, 1]; the zero value injects
// nothing. Faults are drawn from a private RNG derived from Seed, so the
// same (source, Chaos) pair always yields the same fault schedule.
type Chaos struct {
	Seed uint64

	// ErrorRate is the probability that a NextErr call fails with a
	// transient error instead of delivering an item. Errors never consume
	// an item: the next call retries the same position.
	ErrorRate float64
	// MaxErrors caps the total number of injected errors (0 = unlimited).
	MaxErrors int64

	// StallRate is the probability that delivering an item first stalls
	// the caller for StallDur of wall time (a slow or wedged upstream).
	StallRate float64
	StallDur  time.Duration

	// DupRate is the probability that the previously delivered data tuple
	// is delivered again (at-least-once upstream semantics). Duplicates
	// are re-stamped to the current max arrival so arrival order holds.
	DupRate float64

	// SpikeRate is the probability that a delay-spike burst starts: the
	// next SpikeLen data tuples are held back and re-delivered afterwards
	// with their arrival time bumped to the then-current maximum — they
	// arrive in order but late in event time, the disorder pattern a
	// network buffer flush produces. SpikeLen defaults to 16.
	SpikeRate float64
	SpikeLen  int

	// CutAfter ends the stream prematurely after this many delivered
	// items (0 = disabled) — a source that dies mid-stream.
	CutAfter int64
}

// Enabled reports whether the config injects anything at all.
func (c Chaos) Enabled() bool {
	return c.ErrorRate > 0 || c.StallRate > 0 || c.DupRate > 0 || c.SpikeRate > 0 || c.CutAfter > 0
}

// ParseChaos parses the aqserver -chaos flag syntax: a comma-separated
// list of key=value pairs, e.g.
//
//	seed=7,err=0.01,stall=0.001,stalldur=5ms,dup=0.005,spike=0.001,spikelen=32,cut=100000
//
// Unknown keys are rejected so typos fail loudly.
func ParseChaos(s string) (Chaos, error) {
	var c Chaos
	if strings.TrimSpace(s) == "" {
		return c, nil
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return c, fmt.Errorf("resilience: chaos spec %q: want key=value", kv)
		}
		var err error
		switch k {
		case "seed":
			c.Seed, err = strconv.ParseUint(v, 10, 64)
		case "err":
			c.ErrorRate, err = strconv.ParseFloat(v, 64)
		case "maxerr":
			c.MaxErrors, err = strconv.ParseInt(v, 10, 64)
		case "stall":
			c.StallRate, err = strconv.ParseFloat(v, 64)
		case "stalldur":
			c.StallDur, err = time.ParseDuration(v)
		case "dup":
			c.DupRate, err = strconv.ParseFloat(v, 64)
		case "spike":
			c.SpikeRate, err = strconv.ParseFloat(v, 64)
		case "spikelen":
			c.SpikeLen, err = strconv.Atoi(v)
		case "cut":
			c.CutAfter, err = strconv.ParseInt(v, 10, 64)
		default:
			return c, fmt.Errorf("resilience: chaos spec: unknown key %q", k)
		}
		if err != nil {
			return c, fmt.Errorf("resilience: chaos spec %q: %v", kv, err)
		}
	}
	return c, nil
}

// FaultStats counts the faults a FaultSource actually injected.
type FaultStats struct {
	Delivered   int64 // items handed to the consumer
	Errors      int64 // transient errors returned
	Stalls      int64 // wall-clock stalls served
	Duplicates  int64 // duplicate tuples delivered
	DelaySpikes int64 // spike bursts started
	Truncated   bool  // stream was cut by CutAfter
}

// String renders the counters.
func (s FaultStats) String() string {
	return fmt.Sprintf("faults{out=%d err=%d stall=%d dup=%d spike=%d cut=%v}",
		s.Delivered, s.Errors, s.Stalls, s.Duplicates, s.DelaySpikes, s.Truncated)
}

// FaultSource wraps a stream source and injects the faults described by a
// Chaos config, deterministically by seed. It implements stream.ErrSource;
// transient errors leave the underlying position untouched so a retrying
// caller makes progress.
type FaultSource struct {
	src   stream.ErrSource
	cfg   Chaos
	rng   *stats.RNG
	clock Clock

	st         FaultStats
	prev       stream.Tuple // last delivered data tuple, for duplication
	hasPrev    bool
	maxArrival stream.Time
	holding    int           // tuples still to capture into the open burst
	held       []stream.Item // captured burst, awaiting release
	replay     []stream.Item // burst being re-delivered
}

// NewFaultSource wraps src with the given chaos config. A zero config
// passes everything through untouched (but still counts Delivered).
func NewFaultSource(src stream.ErrSource, cfg Chaos) *FaultSource {
	if cfg.SpikeLen <= 0 {
		cfg.SpikeLen = 16
	}
	return &FaultSource{src: src, cfg: cfg, rng: stats.NewRNG(cfg.Seed), clock: WallClock{}}
}

// WithClock substitutes the clock that serves stall faults (WallClock by
// default) and returns the source. The fault schedule itself is purely
// RNG-driven, so swapping the clock changes where the stall time comes
// from — wall sleeps in production, instant virtual-time advances under
// the deterministic simulation harness — without changing which calls
// stall.
func (f *FaultSource) WithClock(c Clock) *FaultSource {
	f.clock = orWall(c)
	return f
}

// Stats returns the faults injected so far.
func (f *FaultSource) Stats() FaultStats { return f.st }

// NextErr implements stream.ErrSource.
func (f *FaultSource) NextErr() (stream.Item, bool, error) {
	if f.cfg.CutAfter > 0 && f.st.Delivered >= f.cfg.CutAfter {
		f.st.Truncated = true
		return stream.Item{}, false, nil
	}
	if f.cfg.ErrorRate > 0 && f.rng.Float64() < f.cfg.ErrorRate &&
		(f.cfg.MaxErrors == 0 || f.st.Errors < f.cfg.MaxErrors) {
		f.st.Errors++
		return stream.Item{}, false, fmt.Errorf("resilience: injected transient fault #%d", f.st.Errors)
	}
	if f.cfg.StallRate > 0 && f.rng.Float64() < f.cfg.StallRate {
		f.st.Stalls++
		f.clock.Sleep(nil, f.cfg.StallDur)
	}
	if f.hasPrev && f.cfg.DupRate > 0 && f.rng.Float64() < f.cfg.DupRate {
		f.st.Duplicates++
		dup := f.prev
		dup.Arrival = f.maxArrival // keep the stream arrival-ordered
		return f.deliver(stream.DataItem(dup)), true, nil
	}
	if len(f.replay) > 0 {
		return f.popReplay(), true, nil
	}
	for {
		it, ok, err := f.src.NextErr()
		if err != nil {
			return stream.Item{}, false, err
		}
		if !ok {
			// Flush any open or closed burst before ending the stream.
			f.replay = append(f.replay, f.held...)
			f.held, f.holding = nil, 0
			if len(f.replay) > 0 {
				return f.popReplay(), true, nil
			}
			return stream.Item{}, false, nil
		}
		if f.holding > 0 && !it.Heartbeat {
			f.held = append(f.held, it)
			f.holding--
			if f.holding == 0 {
				f.replay, f.held = f.held, nil
			}
			continue
		}
		if !it.Heartbeat && f.cfg.SpikeRate > 0 && f.rng.Float64() < f.cfg.SpikeRate {
			f.st.DelaySpikes++
			f.holding = f.cfg.SpikeLen - 1
			f.held = append(f.held, it)
			if f.holding == 0 {
				f.replay, f.held = f.held, nil
			}
			continue
		}
		return f.deliver(it), true, nil
	}
}

// popReplay delivers the next item of a burst being re-released, bumping
// its arrival to the present so the stream stays arrival-ordered.
func (f *FaultSource) popReplay() stream.Item {
	it := f.replay[0]
	f.replay = f.replay[1:]
	if !it.Heartbeat && it.Tuple.Arrival < f.maxArrival {
		it.Tuple.Arrival = f.maxArrival // delayed delivery: arrives now
	}
	return f.deliver(it)
}

// deliver updates delivery bookkeeping and returns the item.
func (f *FaultSource) deliver(it stream.Item) stream.Item {
	f.st.Delivered++
	if it.Heartbeat {
		if it.Watermark > f.maxArrival {
			f.maxArrival = it.Watermark
		}
		return it
	}
	if it.Tuple.Arrival > f.maxArrival {
		f.maxArrival = it.Tuple.Arrival
	}
	f.prev, f.hasPrev = it.Tuple, true
	return it
}
