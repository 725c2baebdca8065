package tracez

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace-event JSON export (the "JSON Array Format" with a
// traceEvents wrapper object), loadable in Perfetto and chrome://tracing.
// Rendering choices:
//
//   - one track (tid) per pipeline stage, all under a single process named
//     after the query;
//   - emits render as complete ("X") spans from the window's seal to its
//     emission — the span length IS the emission latency;
//   - slack changes render as a counter ("C") track, so K's staircase is
//     plotted over the events that caused it;
//   - everything else is an instant event ("i") carrying its payload in
//     args.
//
// Event timestamps are stream-time milliseconds; Chrome expects
// microseconds, so positions are multiplied by 1e3 (log events carry
// wall-clock millis and land on their own track, where only relative
// spacing matters).

// chromeEvent is one entry of the traceEvents array.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object. Extra top-level keys are
// ignored by the viewers, so otherData carries repo-specific metadata
// (dump reason, provenance) without breaking loadability.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	OtherData       any           `json:"otherData,omitempty"`
}

// WriteChromeTrace writes events as Chrome trace-event JSON for the
// named query. extra, when non-nil, is attached under otherData (viewers
// ignore it; tools can read dump metadata and provenance from it).
func WriteChromeTrace(w io.Writer, query string, events []Event, extra any) error {
	out := chromeTrace{DisplayTimeUnit: "ms", OtherData: extra}
	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "process_name", Phase: "M", PID: 1, TID: 0,
		Args: map[string]any{"name": "aq:" + query},
	})

	tracks := map[int]string{}
	for _, ev := range events {
		tracks[int(ev.Stage)] = ev.Stage.String()
	}
	tids := make([]int, 0, len(tracks))
	for tid := range tracks {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Phase: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": tracks[tid]},
		})
	}

	for _, ev := range events {
		tid := int(ev.Stage)
		switch ev.Kind {
		case KindEmit:
			// Span from seal (emission minus latency) to emission.
			lat := int64(ev.V)
			if lat < 0 {
				lat = 0
			}
			ce := chromeEvent{
				Name: fmt.Sprintf("win#%d", ev.Win), Phase: "X",
				TS: (ev.At - lat) * 1000, Dur: lat * 1000, PID: 1, TID: tid,
				Args: map[string]any{"win": ev.Win, "count": ev.N, "k": ev.K, "latencyMs": lat},
			}
			if ce.Dur == 0 {
				ce.Dur = 1 // zero-length spans are dropped by some viewers
			}
			if ev.Key != 0 {
				ce.Args["key"] = ev.Key
			}
			out.TraceEvents = append(out.TraceEvents, ce)
		case KindKSet, KindKAdapt:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "K", Phase: "C", TS: ev.At * 1000, PID: 1, TID: tid,
				Args: map[string]any{"K": ev.K},
			})
			if ev.Kind == KindKAdapt {
				out.TraceEvents = append(out.TraceEvents, chromeEvent{
					Name: ev.Kind.String(), Phase: "i", TS: ev.At * 1000, PID: 1, TID: tid,
					Scope: "t", Args: map[string]any{"k": ev.K, "estErr": ev.V},
				})
			}
		case KindViolation, KindViolationEnd, KindPanic, KindBreakerTrip:
			// Process-scoped instants: they should catch the eye across
			// every track.
			args := map[string]any{}
			if ev.Win != 0 || ev.Kind == KindViolation {
				args["win"] = ev.Win
			}
			if ev.V != 0 {
				args["v"] = ev.V
			}
			if ev.Msg != "" {
				args["msg"] = ev.Msg
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: ev.Kind.String(), Phase: "i", TS: ev.At * 1000, PID: 1, TID: tid,
				Scope: "p", Args: args,
			})
		default:
			args := map[string]any{}
			if ev.N != 0 {
				args["n"] = ev.N
			}
			if ev.V != 0 {
				args["v"] = ev.V
			}
			if ev.Win != 0 {
				args["win"] = ev.Win
			}
			if ev.Msg != "" {
				args["msg"] = ev.Msg
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: ev.Kind.String(), Phase: "i", TS: ev.At * 1000, PID: 1, TID: tid,
				Scope: "t", Args: args,
			})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
