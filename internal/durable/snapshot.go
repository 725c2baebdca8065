package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/snapjson"
	"repro/internal/stream"
	"repro/internal/window"
)

// SnapshotVersion is bumped whenever the snapshot schema changes
// incompatibly; recovery refuses snapshots from a different version rather
// than misinterpreting them.
const SnapshotVersion = 1

// DisorderCut is the executor's inline disorder measurement at the cut
// point: the finished stats plus the raw accumulators (sums, clock) the
// executor needs to keep measuring seamlessly after recovery.
type DisorderCut struct {
	Stats    stream.DisorderStats `json:"stats"`
	SumLate  float64              `json:"sumLate"`
	SumDelay float64              `json:"sumDelay"`
	Clock    stream.Time          `json:"clock"`
	Started  bool                 `json:"started"`
}

// Snapshot captures everything a query needs to resume: where the journal
// cut is (Records/Items — the snapshot covers exactly that prefix), the
// disorder handler's full state, the window operator's open aggregates and
// emit cursor, and the executor's clocks. Host processes (aqserver) add
// FeedBase and Counters for their own continuity.
type Snapshot struct {
	Version int    `json:"version"`
	Query   string `json:"query,omitempty"` // host-assigned query name

	Records uint64 `json:"records"` // journal records covered by this snapshot
	Items   uint64 `json:"items"`   // item records among them

	Now      stream.Time     `json:"now"` // arrival-time position at the cut
	Disorder DisorderCut     `json:"disorder"`
	Handler  *HandlerState   `json:"handler,omitempty"`
	Op       *window.OpState `json:"op,omitempty"`

	// EmitProgress mirrors the operator's next primary emission index at
	// the cut; recovery suppresses re-emission below the max of this and
	// any later journaled emit-progress record.
	EmitProgress int64 `json:"emitProgress"`
	HaveEmit     bool  `json:"haveEmit"`

	// FeedBase lets aqserver's feed loop resume its event-time rebase
	// instead of restarting the synthetic clock from zero.
	FeedBase stream.Time `json:"feedBase,omitempty"`
	// Counters carries host-level cumulative counters (tuples in, shed, …).
	Counters map[string]int64 `json:"counters,omitempty"`
}

func snapshotName(records uint64) string { return fmt.Sprintf("snap-%016d.json", records) }

// writeSnapshotFile marshals and atomically writes s into dir. A window or a
// buffered tuple may hold NaN or ±Inf, which JSON has no numbers for:
// snapjson writes those as strings (and reads them back), and everything else
// exactly as encoding/json does.
func writeSnapshotFile(dir string, s *Snapshot) (int, error) {
	s.Version = SnapshotVersion
	data, err := snapjson.Marshal(s)
	if err != nil {
		return 0, err
	}
	return len(data), WriteFileAtomic(filepath.Join(dir, snapshotName(s.Records)), data, 0o644)
}

// listSnapshots returns snapshot files sorted by covered record count,
// ascending.
func listSnapshots(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".json") {
			continue
		}
		if _, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".json"), 10, 64); err != nil {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names) // zero-padded: lexicographic == numeric
	return names, nil
}

// loadLatestSnapshot returns the newest readable, version-compatible
// snapshot in dir, or nil when none exists. Unreadable candidates are
// skipped (never fatal): snapshots are written atomically, so a bad file is
// either schema drift or external damage, and an older snapshot plus a
// longer journal replay recovers the same state.
func loadLatestSnapshot(dir string) (*Snapshot, error) {
	names, err := listSnapshots(dir)
	if err != nil {
		return nil, err
	}
	for i := len(names) - 1; i >= 0; i-- {
		data, err := os.ReadFile(filepath.Join(dir, names[i]))
		if err != nil {
			continue
		}
		var s Snapshot
		if err := snapjson.Unmarshal(data, &s); err != nil {
			continue
		}
		if s.Version != SnapshotVersion {
			continue
		}
		return &s, nil
	}
	return nil, nil
}
