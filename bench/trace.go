package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// Span names: one per layer boundary the benchmark can see from outside.
type spanName uint8

const (
	spSelectorChoose spanName = iota // bench loop around Selector.Choose
	spSelectorReport                 // bench loop around Selector.Report
	spClientChoose                   // ControlPlane wrapper around *controller.Client
	spClientReport
	spHandlerChoose // http.Handler middleware around Server.Handler()
	spHandlerReport
	spCoreChoose // core.Strategy decorator
	spCoreObserve
	spPacket      // media-relay ping: sender WriteTo → sink ReadFrom
	spRelayHandle // PacketConn wrapper: relay ReadFrom return → WriteTo entry
	spRelayWrite  // PacketConn wrapper: relay WriteTo
)

var spanNames = [...]string{
	spSelectorChoose: "client.selector.choose",
	spSelectorReport: "client.selector.report",
	spClientChoose:   "controller.client.choose",
	spClientReport:   "controller.client.report",
	spHandlerChoose:  "controller.handler.choose",
	spHandlerReport:  "controller.handler.report",
	spCoreChoose:     "core.choose",
	spCoreObserve:    "core.observe",
	spPacket:         "media.packet",
	spRelayHandle:    "relay.handle",
	spRelayWrite:     "relay.writeto",
}

// span is one timed interval. IDs are 1-based indices into the recorder's
// slice; parent 0 means "root" (or, for a core span recorded while two
// requests were in flight, "unknown" — see timedStrategy).
type span struct {
	parent     int32
	call       int32 // the call (or packet) this span belongs to
	name       spanName
	start, end int64 // ns since the recorder's base
}

// recorder keeps spans in a preallocated slice; nothing is written out
// until the workload has ended. begin/end are safe from several goroutines
// (each span slot is written only by the goroutine that began it). A nil
// recorder, and one that is not on, record nothing.
type recorder struct {
	base    time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64 // spans that did not fit the preallocation
	on      atomic.Bool
}

func newRecorder(capacity int) *recorder {
	return &recorder{base: time.Now(), spans: make([]span, capacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// begin opens a span and returns its id, or 0 when recording is off.
func (r *recorder) begin(name spanName, parent, call int32) int32 {
	if r == nil || !r.on.Load() {
		return 0
	}
	i := r.n.Add(1)
	if i > int64(len(r.spans)) {
		r.dropped.Add(1)
		return 0
	}
	s := &r.spans[i-1]
	s.parent, s.call, s.name = parent, call, name
	s.start = r.now()
	return int32(i)
}

func (r *recorder) end(id int32) {
	if id != 0 {
		r.spans[id-1].end = r.now()
	}
}

// recorded returns the spans begun so far. Call it only once every
// recording goroutine has stopped.
func (r *recorder) recorded() []span {
	n := r.n.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return r.spans[:n]
}

// selfTimes returns, for each span, its duration minus the part of its
// interval covered by its children (the union of the children's intervals,
// clipped to the parent). spans[i] has id i+1.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32) // parent id → child indices
	for i, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		cs := kids[int32(i+1)]
		if len(cs) == 0 {
			continue
		}
		sort.Slice(cs, func(a, b int) bool { return spans[cs[a]].start < spans[cs[b]].start })
		covered, edge := int64(0), s.start
		for _, c := range cs {
			lo, hi := spans[c].start, spans[c].end
			if lo < edge {
				lo = edge
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for i, s := range spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"call":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			i+1, s.parent, s.call, spanNames[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close() //vialint:ignore errwrap error path; the flush failure is already being returned
		return err
	}
	return f.Close()
}
