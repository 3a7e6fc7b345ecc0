package obs

// Span tracing in the Chrome trace-event format. A run pipeline is a tree
// of spans (workload build -> kernel boot -> simulate -> estimate -> save)
// on one track per batch worker; the emitted JSON opens directly in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// The tracer is process-global and opt-in: SetTracer installs one (the
// CLIs' -trace flag), StartSpan reads it through an atomic pointer, and a
// zero Span (no tracer installed) no-ops without allocating. Events are
// buffered in memory — a full sweep emits a few thousand spans, far below
// any interesting memory bound — and serialized once at exit.
//
// Open spans are tracked in a registry so WriteJSON can flush them as
// truncated-but-valid complete events: a run interrupted by ^C or an error
// exit (the command-line plumbing in internal/cli writes the trace) still
// produces a file Perfetto loads, with the in-flight spans extending to
// the moment of death and marked truncated.

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceEvent is one Chrome trace-event object. Exported fields mirror the
// JSON schema: ph "X" is a complete span (ts+dur), "i" an instant, "C" a
// counter sample (args values plot as counter tracks), "M" metadata
// (thread/process names). Args values may be strings or numbers.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"` // microseconds since trace start
	Dur  int64          `json:"dur,omitempty"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the on-disk JSON object format.
type traceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []TraceEvent `json:"traceEvents"`
}

// openSpan is the tracer-side record of an in-flight span. Span holds a
// pointer to it so WriteJSON can flush spans that never reached End.
type openSpan struct {
	tid   int64
	start int64
	name  string
	cat   string
	args  map[string]any
}

// Tracer buffers trace events. Safe for concurrent use.
type Tracer struct {
	start time.Time

	mu      sync.Mutex
	events  []TraceEvent
	threads map[int64]string
	open    map[*openSpan]struct{}
}

// NewTracer creates a tracer; its clock starts now.
func NewTracer() *Tracer {
	return &Tracer{
		start:   time.Now(),
		threads: make(map[int64]string),
		open:    make(map[*openSpan]struct{}),
	}
}

// now returns microseconds since the trace started.
func (t *Tracer) now() int64 { return time.Since(t.start).Microseconds() }

// SetThreadName names a track (Perfetto shows it as the thread label).
func (t *Tracer) SetThreadName(tid int64, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.threads[tid] = name
	t.mu.Unlock()
}

// Instant records a zero-duration marker on a track.
func (t *Tracer) Instant(tid int64, name string, args map[string]any) {
	if t == nil {
		return
	}
	ev := TraceEvent{Name: name, Ph: "i", TS: t.now(), TID: tid, Args: args}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Counter records one sample of a named counter series on a track. Values
// render as a counter track in Perfetto ("C" phase); call it with the same
// name over time to build the series (the live power timeline does).
func (t *Tracer) Counter(tid int64, name string, value float64) {
	if t == nil {
		return
	}
	ev := TraceEvent{
		Name: name, Ph: "C", TS: t.now(), TID: tid,
		Args: map[string]any{"value": value},
	}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// complete appends one finished span.
func (t *Tracer) complete(tid int64, name, cat string, startUS, durUS int64, args map[string]any) {
	ev := TraceEvent{Name: name, Cat: cat, Ph: "X", TS: startUS, Dur: durUS, TID: tid, Args: args}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Events returns a snapshot of the buffered events (tests, reporting).
// Open spans are not included; see WriteJSON.
func (t *Tracer) Events() []TraceEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceEvent, len(t.events))
	copy(out, t.events)
	return out
}

// WriteJSON serializes the trace as a Chrome trace-event JSON object.
// Metadata (process and thread names) is emitted first, then the spans in
// start order; viewers accept any order, stable output just diffs better.
// Spans still open — a run interrupted mid-pipeline — are emitted as
// complete events running to the present moment with a "truncated" arg, so
// the file stays loadable instead of losing the spans that explain what
// the process was doing when it died.
func (t *Tracer) WriteJSON(w io.Writer) error {
	now := t.now()
	t.mu.Lock()
	events := make([]TraceEvent, 0, len(t.events)+len(t.open)+len(t.threads)+1)
	events = append(events, TraceEvent{
		Name: "process_name", Ph: "M", Args: map[string]any{"name": "softwatt"},
	})
	tids := make([]int64, 0, len(t.threads))
	for tid := range t.threads {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(a, b int) bool { return tids[a] < tids[b] })
	for _, tid := range tids {
		events = append(events, TraceEvent{
			Name: "thread_name", Ph: "M", TID: tid,
			Args: map[string]any{"name": t.threads[tid]},
		})
	}
	spans := make([]TraceEvent, len(t.events), len(t.events)+len(t.open))
	copy(spans, t.events)
	for os := range t.open {
		args := make(map[string]any, len(os.args)+1)
		for k, v := range os.args {
			args[k] = v
		}
		args["truncated"] = "true"
		spans = append(spans, TraceEvent{
			Name: os.name, Cat: os.cat, Ph: "X",
			TS: os.start, Dur: now - os.start, TID: os.tid, Args: args,
		})
	}
	t.mu.Unlock()

	sort.SliceStable(spans, func(a, b int) bool { return spans[a].TS < spans[b].TS })
	events = append(events, spans...)
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{DisplayTimeUnit: "ms", TraceEvents: events})
}

// global is the installed tracer (nil = tracing off).
var global atomic.Pointer[Tracer]

// SetTracer installs t as the process tracer (nil uninstalls).
func SetTracer(t *Tracer) { global.Store(t) }

// ActiveTracer returns the installed tracer, or nil.
func ActiveTracer() *Tracer { return global.Load() }

// Span is one in-flight traced operation. The zero Span (returned when no
// tracer is installed) no-ops on every method, so instrumented code needs
// no enabled-checks of its own.
type Span struct {
	t   *Tracer
	rec *openSpan
}

// StartSpan opens a span on track tid. When no tracer is installed the
// returned Span is inert and the call performs no allocation.
func StartSpan(tid int64, name, cat string) Span {
	t := global.Load()
	if t == nil {
		return Span{}
	}
	rec := &openSpan{tid: tid, start: t.now(), name: name, cat: cat}
	t.mu.Lock()
	t.open[rec] = struct{}{}
	t.mu.Unlock()
	return Span{t: t, rec: rec}
}

// Arg attaches a key/value argument to the span (shown in the Perfetto
// detail pane). No-op on an inert span.
func (s *Span) Arg(k, v string) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	if s.rec.args == nil {
		s.rec.args = make(map[string]any, 4)
	}
	s.rec.args[k] = v
	s.t.mu.Unlock()
}

// End closes the span and records it.
func (s *Span) End() {
	if s.t == nil {
		return
	}
	end := s.t.now()
	s.t.mu.Lock()
	delete(s.t.open, s.rec)
	s.t.mu.Unlock()
	s.t.complete(s.rec.tid, s.rec.name, s.rec.cat, s.rec.start, end-s.rec.start, s.rec.args)
	s.t = nil
}
