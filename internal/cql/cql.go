// Package cql parses a small continuous-query language — the front end a
// demonstration of this system would expose. A statement names an
// aggregate over a windowed stream and, crucially, declares the quality
// bound that drives disorder handling:
//
//	SELECT sum(value) FROM sensor
//	    WINDOW 10s SLIDE 1s
//	    QUALITY 1%
//
//	SELECT count(value) FROM cdr GROUP BY key
//	    WINDOW 30s SLIDE 5s
//	    QUALITY 0.5%
//
//	SELECT avg(value) FROM trace('stream.csv')
//	    WINDOW 1m SLIDE 10s
//	    HANDLER kslack(2s)
//
// Clauses:
//
//	SELECT <agg>(value)      aggregate: count|sum|avg|min|max|median|stddev|distinct|pNN
//	FROM <source>            workload name (sensor|bursty|drift|stock|cdr|simnet)
//	                         or trace('file.csv')
//	GROUP BY key             optional: per-key windows
//	WINDOW <dur> SLIDE <dur> required window spec (durations: 500ms, 10s, 1m)
//	QUALITY <pct>            quality bound; selects the adaptive AQ handler
//	HANDLER <spec>           explicit handler instead of QUALITY:
//	                         none | maxslack | kslack(<dur>) | wm(<pct>) | punctuated
//
// Exactly one of QUALITY or HANDLER must be present. Keywords are
// case-insensitive; identifiers are not. A quoted file name ('…' or "…", no
// escapes) may not contain control characters.
//
// Naming note: trace('file.csv') is a *source* — it replays a recorded
// tuple stream from disk as the query's input. It is unrelated to event
// tracing (internal/obs/tracez, cqlsh -trace, /debug/aq/trace), which
// records what the pipeline did while executing. docs/OBSERVABILITY.md
// spells out the distinction.
package cql

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/stream"
	"repro/internal/window"
)

// Query is the parsed form of a statement.
type Query struct {
	Agg     window.Factory
	AggName string

	Source    string // workload name, or "" when TraceFile is set
	TraceFile string

	GroupBy bool
	Spec    window.Spec

	// Quality > 0 selects the adaptive handler with this bound.
	Quality float64
	// Handler is the explicit handler spec when Quality == 0.
	Handler HandlerSpec
}

// HandlerSpec is an explicitly requested disorder handler.
type HandlerSpec struct {
	Kind string      // none | maxslack | kslack | wm | punctuated
	K    stream.Time // kslack only
	P    float64     // wm only
}

// String reconstructs a canonical form of the query.
func (q Query) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SELECT %s(value) FROM ", q.AggName)
	if q.TraceFile != "" {
		// The lexer has no escape sequences, so quote with whichever
		// delimiter the name doesn't contain (a parsed name can never
		// contain the delimiter it was written with, so one always fits;
		// %q would emit backslash escapes the parser cannot read back).
		if strings.ContainsRune(q.TraceFile, '\'') {
			fmt.Fprintf(&b, "trace(\"%s\")", q.TraceFile)
		} else {
			fmt.Fprintf(&b, "trace('%s')", q.TraceFile)
		}
	} else {
		b.WriteString(q.Source)
	}
	if q.GroupBy {
		b.WriteString(" GROUP BY key")
	}
	fmt.Fprintf(&b, " WINDOW %s SLIDE %s", fmtDur(q.Spec.Size), fmtDur(q.Spec.Slide))
	if q.Quality > 0 {
		fmt.Fprintf(&b, " QUALITY %g%%", q.Quality*100)
	} else {
		b.WriteString(" HANDLER " + q.Handler.String())
	}
	return b.String()
}

// String renders the handler spec.
func (h HandlerSpec) String() string {
	switch h.Kind {
	case "kslack":
		return fmt.Sprintf("kslack(%s)", fmtDur(h.K))
	case "wm":
		return fmt.Sprintf("wm(%g%%)", h.P*100)
	default:
		return h.Kind
	}
}

func fmtDur(d stream.Time) string {
	switch {
	case d%stream.Minute == 0:
		return fmt.Sprintf("%dm", d/stream.Minute)
	case d%stream.Second == 0:
		return fmt.Sprintf("%ds", d/stream.Second)
	default:
		return fmt.Sprintf("%dms", d)
	}
}

// --- lexer ---

type tokKind int

const (
	tokIdent  tokKind = iota
	tokNumber         // 123, 1.5 (may carry a trailing unit/%% via ident rules)
	tokString         // 'quoted'
	tokLParen
	tokRParen
	tokPercent
	tokEOF
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type lexer struct {
	in  string
	pos int
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.in) && isSpace(l.in[l.pos]) {
		l.pos++
	}
	if l.pos >= len(l.in) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.in[l.pos]
	switch {
	case c == '(':
		l.pos++
		return token{tokLParen, "(", start}, nil
	case c == ')':
		l.pos++
		return token{tokRParen, ")", start}, nil
	case c == '%':
		l.pos++
		return token{tokPercent, "%", start}, nil
	case c == ',':
		l.pos++
		return l.next() // commas are decorative
	case c == '\'' || c == '"':
		quote := c
		l.pos++
		for l.pos < len(l.in) && l.in[l.pos] != quote {
			// A path is printed back inside one line of canonical text and
			// logged; a newline or other control character in it is a typo
			// or an injection, never a file name worth supporting.
			if ch := l.in[l.pos]; ch < 0x20 || ch == 0x7f {
				return token{}, fmt.Errorf("cql: control character %q in quoted string at %d", ch, l.pos)
			}
			l.pos++
		}
		if l.pos >= len(l.in) {
			return token{}, fmt.Errorf("cql: unterminated string at %d", start)
		}
		text := l.in[start+1 : l.pos]
		l.pos++
		return token{tokString, text, start}, nil
	case isDigit(c):
		for l.pos < len(l.in) && (isDigit(l.in[l.pos]) || l.in[l.pos] == '.') {
			l.pos++
		}
		// A trailing unit (ms, s, m) glues onto the number.
		for l.pos < len(l.in) && isAlpha(l.in[l.pos]) {
			l.pos++
		}
		return token{tokNumber, l.in[start:l.pos], start}, nil
	case isAlpha(c):
		for l.pos < len(l.in) && (isAlpha(l.in[l.pos]) || isDigit(l.in[l.pos]) || l.in[l.pos] == '_' || l.in[l.pos] == '.') {
			l.pos++
		}
		return token{tokIdent, l.in[start:l.pos], start}, nil
	default:
		return token{}, fmt.Errorf("cql: unexpected character %q at %d", c, start)
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isAlpha(c byte) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }

// --- parser ---

type parser struct {
	lex lexer
	cur token
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.cur = t
	return nil
}

// expectKeyword consumes the current token if it equals (case-insensitive)
// the keyword.
func (p *parser) expectKeyword(kw string) error {
	if p.cur.kind != tokIdent || !strings.EqualFold(p.cur.text, kw) {
		return fmt.Errorf("cql: expected %s at position %d, got %q", kw, p.cur.pos, p.cur.text)
	}
	return p.advance()
}

func (p *parser) isKeyword(kw string) bool {
	return p.cur.kind == tokIdent && strings.EqualFold(p.cur.text, kw)
}

// Parse parses one statement.
func Parse(input string) (Query, error) {
	p := &parser{lex: lexer{in: input}}
	if err := p.advance(); err != nil {
		return Query{}, err
	}
	var q Query

	if err := p.expectKeyword("SELECT"); err != nil {
		return q, err
	}
	if p.cur.kind != tokIdent {
		return q, fmt.Errorf("cql: expected aggregate at %d", p.cur.pos)
	}
	aggName := strings.ToLower(p.cur.text)
	agg, err := window.ByName(aggName)
	if err != nil {
		return q, err
	}
	q.Agg, q.AggName = agg, aggName
	if err := p.advance(); err != nil {
		return q, err
	}
	// Optional "(value)".
	if p.cur.kind == tokLParen {
		if err := p.advance(); err != nil {
			return q, err
		}
		if err := p.expectKeyword("value"); err != nil {
			return q, err
		}
		if p.cur.kind != tokRParen {
			return q, fmt.Errorf("cql: expected ) at %d", p.cur.pos)
		}
		if err := p.advance(); err != nil {
			return q, err
		}
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return q, err
	}
	if p.cur.kind != tokIdent {
		return q, fmt.Errorf("cql: expected source at %d", p.cur.pos)
	}
	if strings.EqualFold(p.cur.text, "trace") {
		if err := p.advance(); err != nil {
			return q, err
		}
		if p.cur.kind != tokLParen {
			return q, fmt.Errorf("cql: expected ( after trace at %d", p.cur.pos)
		}
		if err := p.advance(); err != nil {
			return q, err
		}
		if p.cur.kind != tokString {
			return q, fmt.Errorf("cql: expected quoted file name at %d", p.cur.pos)
		}
		if p.cur.text == "" {
			return q, fmt.Errorf("cql: empty trace file name at %d", p.cur.pos)
		}
		q.TraceFile = p.cur.text
		if err := p.advance(); err != nil {
			return q, err
		}
		if p.cur.kind != tokRParen {
			return q, fmt.Errorf("cql: expected ) at %d", p.cur.pos)
		}
		if err := p.advance(); err != nil {
			return q, err
		}
	} else {
		q.Source = p.cur.text
		if err := p.advance(); err != nil {
			return q, err
		}
	}

	// Optional GROUP BY key.
	if p.isKeyword("GROUP") {
		if err := p.advance(); err != nil {
			return q, err
		}
		if err := p.expectKeyword("BY"); err != nil {
			return q, err
		}
		if err := p.expectKeyword("key"); err != nil {
			return q, err
		}
		q.GroupBy = true
	}

	if err := p.expectKeyword("WINDOW"); err != nil {
		return q, err
	}
	size, err := p.duration()
	if err != nil {
		return q, err
	}
	if err := p.expectKeyword("SLIDE"); err != nil {
		return q, err
	}
	slide, err := p.duration()
	if err != nil {
		return q, err
	}
	q.Spec = window.Spec{Size: size, Slide: slide}
	if err := q.Spec.Validate(); err != nil {
		return q, err
	}

	switch {
	case p.isKeyword("QUALITY"):
		if err := p.advance(); err != nil {
			return q, err
		}
		frac, err := p.percent()
		if err != nil {
			return q, err
		}
		if frac <= 0 || frac >= 1 {
			return q, fmt.Errorf("cql: QUALITY must be in (0%%, 100%%), got %g%%", frac*100)
		}
		q.Quality = frac
	case p.isKeyword("HANDLER"):
		if err := p.advance(); err != nil {
			return q, err
		}
		h, err := p.handlerSpec()
		if err != nil {
			return q, err
		}
		q.Handler = h
	default:
		return q, fmt.Errorf("cql: expected QUALITY or HANDLER at %d, got %q", p.cur.pos, p.cur.text)
	}

	if p.cur.kind != tokEOF {
		return q, fmt.Errorf("cql: trailing input at %d: %q", p.cur.pos, p.cur.text)
	}
	return q, nil
}

// duration consumes a number-with-unit token: 500ms, 10s, 1m, or a bare
// number of stream-time units.
func (p *parser) duration() (stream.Time, error) {
	if p.cur.kind != tokNumber {
		return 0, fmt.Errorf("cql: expected duration at %d, got %q", p.cur.pos, p.cur.text)
	}
	text := p.cur.text
	if err := p.advance(); err != nil {
		return 0, err
	}
	return parseDuration(text)
}

func parseDuration(text string) (stream.Time, error) {
	unit := stream.Time(1)
	num := text
	switch {
	case strings.HasSuffix(text, "ms"):
		num = strings.TrimSuffix(text, "ms")
	case strings.HasSuffix(text, "s"):
		num, unit = strings.TrimSuffix(text, "s"), stream.Second
	case strings.HasSuffix(text, "m"):
		num, unit = strings.TrimSuffix(text, "m"), stream.Minute
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("cql: bad duration %q", text)
	}
	return stream.Time(v * float64(unit)), nil
}

// percent consumes a number optionally followed by %; without % the value
// is interpreted as a fraction (0.01 == 1%).
func (p *parser) percent() (float64, error) {
	if p.cur.kind != tokNumber {
		return 0, fmt.Errorf("cql: expected percentage at %d, got %q", p.cur.pos, p.cur.text)
	}
	v, err := strconv.ParseFloat(p.cur.text, 64)
	if err != nil {
		return 0, fmt.Errorf("cql: bad number %q", p.cur.text)
	}
	if err := p.advance(); err != nil {
		return 0, err
	}
	if p.cur.kind == tokPercent {
		v /= 100
		if err := p.advance(); err != nil {
			return 0, err
		}
	}
	return v, nil
}

// handlerSpec consumes none | maxslack | punctuated | kslack(<dur>) |
// wm(<pct>).
func (p *parser) handlerSpec() (HandlerSpec, error) {
	if p.cur.kind != tokIdent {
		return HandlerSpec{}, fmt.Errorf("cql: expected handler at %d", p.cur.pos)
	}
	kind := strings.ToLower(p.cur.text)
	if err := p.advance(); err != nil {
		return HandlerSpec{}, err
	}
	switch kind {
	case "none", "maxslack", "punctuated":
		return HandlerSpec{Kind: kind}, nil
	case "kslack":
		if p.cur.kind != tokLParen {
			return HandlerSpec{}, fmt.Errorf("cql: kslack needs (duration)")
		}
		if err := p.advance(); err != nil {
			return HandlerSpec{}, err
		}
		k, err := p.duration()
		if err != nil {
			return HandlerSpec{}, err
		}
		if p.cur.kind != tokRParen {
			return HandlerSpec{}, fmt.Errorf("cql: expected ) at %d", p.cur.pos)
		}
		if err := p.advance(); err != nil {
			return HandlerSpec{}, err
		}
		return HandlerSpec{Kind: kind, K: k}, nil
	case "wm":
		if p.cur.kind != tokLParen {
			return HandlerSpec{}, fmt.Errorf("cql: wm needs (percentile)")
		}
		if err := p.advance(); err != nil {
			return HandlerSpec{}, err
		}
		frac, err := p.percent()
		if err != nil {
			return HandlerSpec{}, err
		}
		if frac <= 0 || frac > 1 {
			return HandlerSpec{}, fmt.Errorf("cql: wm percentile must be in (0, 100%%]")
		}
		if p.cur.kind != tokRParen {
			return HandlerSpec{}, fmt.Errorf("cql: expected ) at %d", p.cur.pos)
		}
		if err := p.advance(); err != nil {
			return HandlerSpec{}, err
		}
		return HandlerSpec{Kind: kind, P: frac}, nil
	default:
		return HandlerSpec{}, fmt.Errorf("cql: unknown handler %q", kind)
	}
}
