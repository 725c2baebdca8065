package durable

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/core"
)

// HandlerState is the snapshot of a disorder handler, tagged by kind so a
// snapshot can never be restored into a differently-shaped handler.
// Exactly one of the payload fields is set.
type HandlerState struct {
	Kind       string                  `json:"kind"`
	Slack      *buffer.SlackState      `json:"slack,omitempty"`      // kslack, maxslack
	Percentile *buffer.PercentileState `json:"percentile,omitempty"` // percentile
	Punctuated *buffer.PunctuatedState `json:"punctuated,omitempty"` // punctuated
	AQ         *core.AQState           `json:"aq,omitempty"`         // aq, aq-join
}

// unwrapHandler strips instrumentation wrappers (any handler with an Unwrap
// method) down to the concrete handler that owns the state.
func unwrapHandler(h buffer.Handler) buffer.Handler {
	for {
		u, ok := h.(interface{ Unwrap() buffer.Handler })
		if !ok {
			return h
		}
		h = u.Unwrap()
	}
}

// aqKind tells the adaptive handler's two quality models apart: "aq" for the
// window aggregate's, "aq-join" for the band join's recall model.
func aqKind(a *core.AQKSlack) string {
	if a.Recall() > 0 {
		return "aq-join"
	}
	return "aq"
}

// SaveHandler exports a handler's state. It fails on handler types without
// snapshot support, so callers can reject Durable() on such queries up
// front.
func SaveHandler(h buffer.Handler) (*HandlerState, error) {
	switch v := unwrapHandler(h).(type) {
	case *buffer.KSlack:
		st := v.State()
		return &HandlerState{Kind: "kslack", Slack: &st}, nil
	case *buffer.MaxSlack:
		st := v.State()
		return &HandlerState{Kind: "maxslack", Slack: &st}, nil
	case *buffer.Percentile:
		st := v.State()
		return &HandlerState{Kind: "percentile", Percentile: &st}, nil
	case *buffer.Punctuated:
		st := v.State()
		return &HandlerState{Kind: "punctuated", Punctuated: &st}, nil
	case *core.AQKSlack:
		st := v.State()
		return &HandlerState{Kind: aqKind(v), AQ: &st}, nil
	}
	return nil, fmt.Errorf("durable: handler %s does not support snapshots", h)
}

// RestoreHandler loads a saved state into a freshly constructed handler of
// the same kind (and, for AQ, the same model and Config).
func RestoreHandler(h buffer.Handler, st *HandlerState) error {
	if st == nil {
		return fmt.Errorf("durable: nil handler state")
	}
	mismatch := func(kind string) error {
		return fmt.Errorf("durable: snapshot holds a %q handler, query uses %s", st.Kind, kind)
	}
	switch v := unwrapHandler(h).(type) {
	case *buffer.KSlack:
		if st.Kind != "kslack" || st.Slack == nil {
			return mismatch("kslack")
		}
		v.Restore(*st.Slack)
	case *buffer.MaxSlack:
		if st.Kind != "maxslack" || st.Slack == nil {
			return mismatch("maxslack")
		}
		v.Restore(*st.Slack)
	case *buffer.Percentile:
		if st.Kind != "percentile" || st.Percentile == nil {
			return mismatch("percentile")
		}
		v.Restore(*st.Percentile)
	case *buffer.Punctuated:
		if st.Kind != "punctuated" || st.Punctuated == nil {
			return mismatch("punctuated")
		}
		v.Restore(*st.Punctuated)
	case *core.AQKSlack:
		if kind := aqKind(v); st.Kind != kind || st.AQ == nil {
			return mismatch(kind)
		}
		return v.Restore(*st.AQ)
	default:
		return fmt.Errorf("durable: handler %s does not support snapshots", h)
	}
	return nil
}
