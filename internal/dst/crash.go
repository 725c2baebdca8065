package dst

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"

	"repro/internal/cq"
	"repro/internal/durable"
	"repro/internal/oracle"
	"repro/internal/resilience"
	"repro/internal/stats"
	"repro/internal/stream"
)

// CrashPlan is one fully-specified crash-recovery simulation: a base
// workload/query plan (restricted to the durable executor's domain:
// ungrouped, no refinement), a crash point expressed as a
// fraction of the transcript, optional tail damage applied to the journal
// between death and restart, and the durability cadence. Like Plan it is a
// pure value: executing it twice in fresh directories yields identical
// recovered outputs.
type CrashPlan struct {
	Plan Plan `json:"plan"`

	// CutPermille positions the crash: the pipeline dies after consuming
	// ⌊len(transcript)·CutPermille/1000⌋ items.
	CutPermille int `json:"cut_permille"`

	// Corrupt selects post-crash tail damage on the newest journal
	// segment: "" (none), "torn" (the tail bytes of the last append never
	// reached disk) or "bitrot" (a flipped bit under an interrupted
	// write). The journal must absorb either by truncate-and-continue.
	Corrupt string `json:"corrupt,omitempty"`

	// Concurrent runs both the crashed and the recovered execution through
	// the goroutine pipeline instead of the synchronous executor.
	Concurrent bool `json:"concurrent,omitempty"`

	CommitEvery   int   `json:"commit_every"`
	SnapshotEvery int64 `json:"snapshot_every"`
	SegmentBytes  int64 `json:"segment_bytes,omitempty"`
}

// String summarizes the crash plan for test logs.
func (cp CrashPlan) String() string {
	mode := "sync"
	if cp.Concurrent {
		mode = "conc"
	}
	return fmt.Sprintf("crash{cut=%d‰ corrupt=%q mode=%s commit=%d snap=%d %s}",
		cp.CutPermille, cp.Corrupt, mode, cp.CommitEvery, cp.SnapshotEvery, cp.Plan)
}

// CrashPlanForSeed derives one point of the crash sweep from a seed. It
// reuses PlanForSeed's workload matrix, projected onto the durable
// executor's domain, then draws the crash-specific dimensions from a
// decorrelated RNG.
func CrashPlanForSeed(seed uint64) CrashPlan {
	p := PlanForSeed(seed)
	p.NumKeys = 0 // durability covers ungrouped queries only
	p.Refine = 0

	rng := stats.NewRNG(seed*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb)
	cp := CrashPlan{
		Plan:          p,
		CutPermille:   250 + rng.Intn(651), // crash in [25%, 90%] of the stream
		CommitEvery:   []int{1, 16, 64}[rng.Intn(3)],
		SnapshotEvery: []int64{0, 256, 1000}[rng.Intn(3)],
		SegmentBytes:  []int64{4 << 10, 64 << 10}[rng.Intn(2)],
	}
	cp.Concurrent = rng.Float64() < 0.35
	if cp.Concurrent || p.qualityChecked() {
		// Both phases of a concurrent crash commit per item so the durable
		// prefix is pinned to the crash point (group-commit timing inside
		// the pipeline is schedule-dependent); quality-checked plans do the
		// same so the θ contract sees zero commit-batching loss.
		cp.CommitEvery = 1
	}
	switch rng.Intn(3) {
	case 1:
		cp.Corrupt = "torn"
	case 2:
		cp.Corrupt = "bitrot"
	}
	return cp
}

// CrashOutcome is the result of one crash-recovery execution.
type CrashOutcome struct {
	Plan    CrashPlan
	Items   int // transcript length
	Cut     int // items consumed before the crash
	Durable int // items the journal + snapshot preserved across it
	Lost    int // data tuples in the gap (committed-batch and torn-tail loss)

	Recovered    *cq.AggReport
	LossRef      *cq.AggReport
	OutputDigest string // sha256 of the recovered run's output

	Failures []string
}

// fail records a failed check.
func (o *CrashOutcome) fail(format string, args ...any) {
	o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
}

// errCrashPoint is the injected process death: the source fails at the cut
// and the journal is abandoned with its uncommitted tail, exactly the
// on-disk state a SIGKILL leaves.
var errCrashPoint = errors.New("dst: injected crash point")

// crashAfter delivers items[:n] then dies.
type crashAfter struct {
	items []stream.Item
	n     int
	pos   int
}

func (s *crashAfter) NextErr() (stream.Item, bool, error) {
	if s.pos >= s.n {
		return stream.Item{}, false, errCrashPoint
	}
	it := s.items[s.pos]
	s.pos++
	return it, true, nil
}

// run executes the plan's query over src with durability attached, through
// the executor the crash plan selects.
func (cp CrashPlan) run(src stream.ErrSource, log *durable.QueryLog) (*cq.AggReport, error) {
	q := cp.Plan.build(src, cp.Plan.handler()).Durable(cq.Durable{Log: log})
	if cp.Concurrent {
		return q.RunConcurrent(context.Background(), nil)
	}
	return q.Run()
}

// damageTail applies the plan's post-crash corruption to the newest journal
// segment. Deterministic: span and bit position derive from the plan seed.
func (cp CrashPlan) damageTail(dir string) error {
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		return err
	}
	sort.Strings(segs) // zero-padded names: lexical order is record order
	last := segs[len(segs)-1]
	rng := stats.NewRNG(cp.Plan.Seed ^ 0x2545f4914f6cdd1d)
	switch cp.Corrupt {
	case "torn":
		return resilience.TruncateTail(last, 1+int64(rng.Intn(96)))
	case "bitrot":
		return resilience.CorruptTail(last, 1+int64(rng.Intn(256)), cp.Plan.Seed^0x9e3779b9)
	}
	return nil
}

// countTuples counts data tuples (heartbeats excluded) in items.
func countTuples(items []stream.Item) int64 {
	var n int64
	for _, it := range items {
		if !it.Heartbeat {
			n++
		}
	}
	return n
}

// ExecuteCrash runs one crash plan end to end in dir (which must be empty):
// phase 1 runs the durable query until the injected crash and abandons the
// log mid-flight; the journal tail is then optionally damaged; phase 2
// reopens the directory, recovers, and consumes the rest of the transcript.
// The differential oracle checks the recovered run against a loss
// reference — a fresh uninterrupted run over exactly the items that
// survived (durable prefix ++ post-crash input) — plus, for quality-checked
// plans, the paper's θ contract with the crash loss folded in as shed.
func ExecuteCrash(cp CrashPlan, dir string) (*CrashOutcome, error) {
	p := cp.Plan
	o := &CrashOutcome{Plan: cp}

	items := p.transcript()
	o.Items = len(items)
	o.Cut = len(items) * cp.CutPermille / 1000

	opts := durable.Options{
		Dir:           dir,
		CommitEvery:   cp.CommitEvery,
		SnapshotEvery: cp.SnapshotEvery,
		SegmentBytes:  cp.SegmentBytes,
	}

	// Phase 1: run to the crash point, then die without flushing.
	log, err := durable.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("dst: open durable dir: %w", err)
	}
	if _, err := cp.run(&crashAfter{items: items, n: o.Cut}, log); !errors.Is(err, errCrashPoint) {
		return nil, fmt.Errorf("dst: crashed run: got err %v, want injected crash", err)
	}
	log.Abandon()

	if cp.Corrupt != "" {
		if err := cp.damageTail(dir); err != nil {
			return nil, fmt.Errorf("dst: damage tail: %w", err)
		}
	}

	// Phase 2: restart. Open performs recovery; peek at it (before the
	// executor consumes it) to learn the durable prefix length D — the
	// journal is dense and order-preserving, so the preserved items are
	// exactly items[:D].
	log2, err := durable.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("dst: reopen after crash: %w", err)
	}
	durableItems := int(log2.Recovery().Items)
	o.Durable = durableItems
	if durableItems > o.Cut {
		log2.Close()
		return nil, fmt.Errorf("dst: journal claims %d durable items but only %d were consumed", durableItems, o.Cut)
	}
	o.Lost = int(countTuples(items[durableItems:o.Cut]))

	recovered, err := cp.run(stream.AsErrSource(stream.NewSliceSource(items[o.Cut:])), log2)
	if err != nil {
		log2.Close()
		return nil, fmt.Errorf("dst: recovered run: %w", err)
	}
	if err := log2.Close(); err != nil {
		return nil, fmt.Errorf("dst: close recovered log: %w", err)
	}
	o.Recovered = recovered
	o.OutputDigest = DigestOutput(recovered)

	// Loss reference: the uninterrupted trajectory over what survived.
	lossItems := append(items[:durableItems:durableItems], items[o.Cut:]...)
	lossRef, err := p.runSync(lossItems, p.handler(), nil)
	if err != nil {
		return nil, fmt.Errorf("dst: loss reference run: %w", err)
	}
	o.LossRef = lossRef

	if err := oracle.CrashContinuation(lossRef, recovered); err != nil {
		o.fail("crash continuation: %v", err)
	}

	// Quality across the crash: the θ contract on the loss reference (whose
	// KeepInput covers the whole surviving stream) with the crash gap folded
	// in as shed-equivalent loss. Tail damage is exempt from the loss
	// accounting — an injected disk fault can wipe an arbitrary span, which
	// is outside the shedding contract — but the contract itself still runs,
	// verifying the restored controller keeps honoring θ after recovery.
	if p.qualityChecked() {
		co := oracle.ContractOpts{Theta: p.Handler.Theta}
		if cp.Corrupt == "" {
			co.ExtraLoss = int64(o.Lost)
		}
		if err := oracle.QualityContract(lossRef, p.spec(), p.agg(), false, co); err != nil {
			o.fail("quality: %v", err)
		}
	}
	return o, nil
}
