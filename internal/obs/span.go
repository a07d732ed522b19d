package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// Span is one recorded decision trace: the controller's (or simulator's)
// full reasoning for a single call, from prediction through the final
// pick. Timestamps are virtual (THours — the same clock the selection
// algorithm runs on), so a span log replays identically under a seed;
// wall-clock context, when a live component wants it, goes in an attr.
//
// The JSONL schema (one span per line) is stable and documented in
// DESIGN.md §11:
//
//	{"span":"via.choose","t_hours":12.5,"src":3,"dst":41,
//	 "stages":[{"stage":"predict","attrs":{"candidates":12}},
//	           {"stage":"prune","attrs":{"topk":4}},
//	           {"stage":"budget-gate","attrs":{"benefit":0.21}},
//	           {"stage":"ucb-pick","attrs":{}}],
//	 "outcome":"ucb-pick","option":"bounce(7)"}
type Span struct {
	Name    string  `json:"span"`
	THours  float64 `json:"t_hours"`
	Src     int32   `json:"src"`
	Dst     int32   `json:"dst"`
	Stages  []Stage `json:"stages,omitempty"`
	Outcome string  `json:"outcome"`
	Option  string  `json:"option,omitempty"`
}

// Stage is one step of a span. Attrs values are numeric so encoding/json
// renders them with sorted keys — span logs diff cleanly.
type Stage struct {
	Name  string             `json:"stage"`
	Attrs map[string]float64 `json:"attrs,omitempty"`
}

// AddStage appends a stage and returns the span for chaining. Nil-safe:
// instrumented code can thread a nil *Span through unconditionally.
func (s *Span) AddStage(name string, attrs map[string]float64) *Span {
	if s == nil {
		return nil
	}
	s.Stages = append(s.Stages, Stage{Name: name, Attrs: attrs})
	return s
}

// SpanSink serializes spans to an io.Writer as JSONL. A nil *SpanSink is
// a valid no-op sink, so callers guard with `if sink.Enabled()` only to
// skip building attr maps, never for correctness.
type SpanSink struct {
	mu  sync.Mutex
	w   io.Writer     // guarded by mu
	enc *json.Encoder // guarded by mu

	emitted atomic.Int64
	errs    atomic.Int64
}

// NewSpanSink builds a sink over w (typically an *os.File or a test
// buffer). The sink owns serialization, not the writer's lifetime; the
// caller closes w.
func NewSpanSink(w io.Writer) *SpanSink { //vialint:ignore deadexport span sink for per-call tracing (DESIGN §9)
	return &SpanSink{w: w, enc: json.NewEncoder(w)}
}

// Enabled reports whether emitting to this sink does anything — the
// cheap guard around span construction on hot paths.
func (s *SpanSink) Enabled() bool { return s != nil }

// Emit writes one span as a JSON line. Write failures are counted, not
// returned: telemetry must never fail the call it observes.
func (s *SpanSink) Emit(sp *Span) {
	if s == nil || sp == nil {
		return
	}
	s.mu.Lock()
	err := s.enc.Encode(sp)
	s.mu.Unlock()
	if err != nil {
		s.errs.Add(1)
		return
	}
	s.emitted.Add(1)
}

// Emitted returns how many spans have been written successfully.
func (s *SpanSink) Emitted() int64 { //vialint:ignore deadexport span sink for per-call tracing (DESIGN §9)
	if s == nil {
		return 0
	}
	return s.emitted.Load()
}

// Errors returns how many spans were lost to write failures.
func (s *SpanSink) Errors() int64 { //vialint:ignore deadexport span sink for per-call tracing (DESIGN §9)
	if s == nil {
		return 0
	}
	return s.errs.Load()
}
