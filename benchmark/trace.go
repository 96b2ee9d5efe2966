package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Tracing is done from outside the program: the traced run replays a
// workload's stream once per depth, each pass entering the system one
// layer further down, and records a span around every call. Spans of
// one request share its op id across the passes, so a layer's self time
// for a request is its span minus the span one depth deeper.
const (
	depthClient  = 1 // api.Client over loopback HTTP
	depthHandler = 2 // Server.Handler().ServeHTTP on a recorder
	depthRouter  = 3 // Router.*Ctx
	depthFacade  = 4 // the covered Shard.DB().*Ctx, or DB.*Ctx in-process
	depthIndex   = 5 // DB.Index().*Obs
)

var depthNames = map[int]string{
	depthClient:  "client",
	depthHandler: "handler",
	depthRouter:  "router",
	depthFacade:  "facade",
	depthIndex:   "index",
}

// Span names, built once: naming a span must not allocate on the timed
// path.
var clientSpan, handlerSpan, routerSpan, facadeSpan, indexSpan = spanNames("api.request."), spanNames("api.handler."),
	spanNames("router."), spanNames("segdb."), spanNames("index.")

func spanNames(prefix string) (names [numOpKinds]string) {
	for k, q := range opKindNames {
		names[k] = prefix + q
	}
	return names
}

// span is one timed call. Start and End are nanoseconds since the span
// log was created; Parent is the depth whose call this one stands under.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Depth  int    `json:"depth"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps the spans of one traced run in memory until the run
// ends; every pass adds to it, so they share one time line.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (l *spanLog) add(name string, op, depth int, start time.Time, d time.Duration) {
	s := int64(start.Sub(l.t0))
	l.mu.Lock()
	l.spans = append(l.spans, span{Name: name, Op: op, Depth: depth, Parent: depth - 1, Start: s, End: s + int64(d)})
	l.mu.Unlock()
}

// writeJSONL writes one span per line.
func (l *spanLog) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
