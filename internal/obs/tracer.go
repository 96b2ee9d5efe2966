package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Tracer receives query lifecycle events. Implementations must be safe
// for concurrent use: overlapping queries on different goroutines all
// call the same tracer.
//
// Tracing sits on the hot path of every page fault and node visit, so a
// tracer should do the minimum per event; the JSONL exporter below is the
// reference implementation.
type Tracer interface {
	// QueryStart fires when a query begins executing (after the facade
	// has assigned its ID, before any index work).
	QueryStart(q QueryInfo)
	// QueryFinish fires once per query with its final stats and error.
	QueryFinish(q QueryInfo, st Stats, err error)
	// PageFault fires for every buffer-pool miss the query causes.
	PageFault(q QueryInfo, page uint32)
	// NodeVisit fires for every index node page the query descends into.
	NodeVisit(q QueryInfo, page uint32)
}

// JSONLTracer writes one JSON object per event to an io.Writer — a
// trace any external tool can tail. A mutex serializes writers; events
// from concurrent queries interleave but individual lines never tear.
type JSONLTracer struct {
	mu  sync.Mutex
	w   io.Writer
	enc *json.Encoder
	err error
}

// NewJSONLTracer returns a tracer emitting JSON lines to w.
func NewJSONLTracer(w io.Writer) *JSONLTracer {
	return &JSONLTracer{w: w, enc: json.NewEncoder(w)}
}

// jsonlEvent is the wire format of one trace line.
type jsonlEvent struct {
	Event string `json:"event"`
	Query uint64 `json:"query"`
	Kind  string `json:"kind"`
	Time  string `json:"time"`

	// PageFault / NodeVisit detail.
	Page *uint32 `json:"page,omitempty"`

	// QueryFinish detail.
	Stats *Stats `json:"stats,omitempty"`
	Error string `json:"error,omitempty"`
}

func (t *JSONLTracer) emit(ev jsonlEvent) {
	ev.Time = time.Now().UTC().Format(time.RFC3339Nano)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	t.err = t.enc.Encode(ev)
}

// Err returns the first write error, after which the tracer drops events.
func (t *JSONLTracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// QueryStart implements Tracer.
func (t *JSONLTracer) QueryStart(q QueryInfo) {
	t.emit(jsonlEvent{Event: "query_start", Query: q.ID, Kind: q.Kind})
}

// QueryFinish implements Tracer.
func (t *JSONLTracer) QueryFinish(q QueryInfo, st Stats, err error) {
	ev := jsonlEvent{Event: "query_finish", Query: q.ID, Kind: q.Kind, Stats: &st}
	if err != nil {
		ev.Error = err.Error()
	}
	t.emit(ev)
}

// PageFault implements Tracer.
func (t *JSONLTracer) PageFault(q QueryInfo, page uint32) {
	t.emit(jsonlEvent{Event: "page_fault", Query: q.ID, Kind: q.Kind, Page: &page})
}

// NodeVisit implements Tracer.
func (t *JSONLTracer) NodeVisit(q QueryInfo, page uint32) {
	t.emit(jsonlEvent{Event: "node_visit", Query: q.ID, Kind: q.Kind, Page: &page})
}
