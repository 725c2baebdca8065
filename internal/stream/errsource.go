package stream

// ErrSource is a fallible pull-based producer of stream items. It extends
// the Source contract with an error channel: NextErr returns the next item
// and true, (Item{}, false, nil) at end of stream, or a non-nil error for a
// transient delivery failure. An error does NOT consume an item — calling
// NextErr again retries delivery of the same position, which is what the
// retry machinery in internal/resilience relies on.
//
// The plain Source interface remains the common case (in-memory replays
// cannot fail); AsErrSource adapts any Source so that the concurrent
// executor can be written once against the fallible contract.
type ErrSource interface {
	NextErr() (Item, bool, error)
}

// AsErrSource adapts a Source to the ErrSource contract. Sources that
// already implement ErrSource are returned unchanged, so wrappers like
// resilience.FaultSource survive the round trip.
func AsErrSource(s Source) ErrSource {
	if es, ok := s.(ErrSource); ok {
		return es
	}
	return infallible{src: s}
}

// infallible lifts a Source into ErrSource; it never returns an error.
type infallible struct{ src Source }

func (f infallible) NextErr() (Item, bool, error) {
	it, ok := f.src.Next()
	return it, ok, nil
}
