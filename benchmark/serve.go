package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"segdb"
	"segdb/api"
	"segdb/internal/core"
	"segdb/internal/router"
)

// serveShards is the shard count of `lsdb serve`'s default.
const serveShards = 4

// serveInst is the serving tier over loopback HTTP: a 4-shard staged
// router, and for every round a fresh api.Server with the defaults of
// `lsdb serve` (512-entry result cache, quantum 256) on 127.0.0.1:0
// inside the benchmark process, driven by closed-loop clients that each
// own one keep-alive connection.
type serveInst struct {
	cfg     *config
	m       *segdb.MapData
	rt      *router.Router
	build   time.Duration
	streams [][]op
	lat     []int64
}

func setupServe(cfg *config, m *segdb.MapData, st *streams) (instance, error) {
	start := time.Now()
	rt, err := router.Build(segdb.RStarTree, m.Segments, serveShards, segdb.WithStagedIngest())
	if err != nil {
		return nil, err
	}
	return &serveInst{cfg: cfg, m: m, rt: rt, build: time.Since(start), streams: st.clients}, nil
}

func (si *serveInst) clients() int { return len(si.streams) }

func (si *serveInst) finish() (int, int, error) { return 0, 0, nil }

func (si *serveInst) buildStats() (int, time.Duration) { return len(si.m.Segments), si.build }

func (si *serveInst) footprint() (int64, int) {
	var bytes int64
	for i := 0; i < si.rt.Shards(); i++ {
		db := si.rt.Shard(i).DB()
		bytes += db.IndexSizeBytes() + db.TableSizeBytes()
	}
	return bytes, si.rt.Len()
}

func (si *serveInst) dropCaches() error {
	for i := 0; i < si.rt.Shards(); i++ {
		if err := si.rt.Shard(i).DB().DropCaches(); err != nil {
			return err
		}
	}
	return nil
}

// countingListener counts accepted connections: one per client if
// keep-alive works, one per request if it does not.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// liveServer is a fresh api.Server (empty result cache) listening on
// loopback.
type liveServer struct {
	srv    *api.Server
	base   string
	ln     *countingListener
	cancel context.CancelFunc
	done   chan error
}

func (si *serveInst) startServer() (*liveServer, error) {
	srv, err := api.NewServer(api.Config{Router: si.rt})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{srv: srv, base: "http://" + l.Addr().String(), ln: &countingListener{Listener: l}, done: make(chan error, 1)}
	ctx, cancel := context.WithCancel(context.Background())
	ls.cancel = cancel
	go func() { ls.done <- srv.Run(ctx, ls.ln) }()
	return ls, nil
}

// stop shuts the server down and waits for its goroutines.
func (ls *liveServer) stop() error {
	ls.cancel()
	return <-ls.done
}

// answer is what one request came back with, whichever way it was sent.
type answer struct {
	window  segdb.Rect // the snapped window the server says it served
	ids     []segdb.SegmentID
	dists   []float64
	hit     bool
	results int
}

func segmentIDs(segs []api.SegmentJSON) []segdb.SegmentID {
	ids := make([]segdb.SegmentID, len(segs))
	for i, s := range segs {
		ids[i] = segdb.SegmentID(s.ID)
	}
	return ids
}

func windowAnswer(r *api.WindowResponse) answer {
	return answer{
		window: segdb.RectOf(r.Window.X1, r.Window.Y1, r.Window.X2, r.Window.Y2),
		ids:    segmentIDs(r.Segments), hit: r.Cache == "hit", results: r.Count,
	}
}

func nearestAnswer(r *api.NearestResponse) answer {
	a := answer{hit: r.Cache == "hit", results: len(r.Results)}
	for _, h := range r.Results {
		a.dists = append(a.dists, h.DistSq)
	}
	return a
}

func incidentAnswer(r *api.IncidentResponse) answer {
	return answer{ids: segmentIDs(r.Segments), hit: r.Cache == "hit", results: r.Count}
}

// reply is the client's decoded response to one request.
type reply struct {
	window   *api.WindowResponse
	nearest  *api.NearestResponse
	incident *api.IncidentResponse
}

func (r reply) answer() answer {
	switch {
	case r.window != nil:
		return windowAnswer(r.window)
	case r.nearest != nil:
		return nearestAnswer(r.nearest)
	case r.incident != nil:
		return incidentAnswer(r.incident)
	}
	return answer{}
}

// hit reports whether the server's result cache answered.
func (r reply) hit() bool {
	switch {
	case r.window != nil:
		return r.window.Cache == "hit"
	case r.nearest != nil:
		return r.nearest.Cache == "hit"
	case r.incident != nil:
		return r.incident.Cache == "hit"
	}
	return false
}

// send issues one request through the Go client.
func send(ctx context.Context, c *api.Client, o *op) (r reply, err error) {
	switch o.Kind {
	case opWindow:
		r.window, err = c.Window(ctx, o.Rect.Min.X, o.Rect.Min.Y, o.Rect.Max.X, o.Rect.Max.Y)
	case opNearest:
		r.nearest, err = c.Nearest(ctx, o.P.X, o.P.Y, o.K)
	default:
		r.incident, err = c.Incident(ctx, o.P.X, o.P.Y)
	}
	return r, err
}

// requestPath is the URL path api.Client sends for o.
func requestPath(o *op) string {
	switch o.Kind {
	case opWindow:
		return fmt.Sprintf("/v1/window?x1=%d&y1=%d&x2=%d&y2=%d", o.Rect.Min.X, o.Rect.Min.Y, o.Rect.Max.X, o.Rect.Max.Y)
	case opNearest:
		return fmt.Sprintf("/v1/nearest?x=%d&y=%d&k=%d", o.P.X, o.P.Y, o.K)
	default:
		return fmt.Sprintf("/v1/incident?x=%d&y=%d", o.P.X, o.P.Y)
	}
}

// decodeReply parses a recorded response body as the client would.
func decodeReply(o *op, body []byte) (r reply, err error) {
	switch o.Kind {
	case opWindow:
		r.window = new(api.WindowResponse)
		err = json.Unmarshal(body, r.window)
	case opNearest:
		r.nearest = new(api.NearestResponse)
		err = json.Unmarshal(body, r.nearest)
	default:
		r.incident = new(api.IncidentResponse)
		err = json.Unmarshal(body, r.incident)
	}
	return r, err
}

// perClient runs fn once per client stream, each on its own goroutine,
// and waits for all of them.
func (si *serveInst) perClient(fn func(client int, ops []op)) {
	var wg sync.WaitGroup
	for ci, ops := range si.streams {
		wg.Add(1)
		go func(ci int, ops []op) {
			defer wg.Done()
			fn(ci, ops)
		}(ci, ops)
	}
	wg.Wait()
}

// overHTTP replays every client's stream against a fresh server from
// cold caches. each, when non-nil, sees every request (from the client's
// own goroutine).
func (si *serveInst) overHTTP(each func(client, i int, o *op, start time.Time, d time.Duration, r reply, err error)) (roundStats, int64, error) {
	if err := si.dropCaches(); err != nil {
		return roundStats{}, 0, err
	}
	ls, err := si.startServer()
	if err != nil {
		return roundStats{}, 0, err
	}
	n := len(si.streams[0])
	if cap(si.lat) < n*len(si.streams) {
		si.lat = make([]int64, n*len(si.streams))
	}
	lat := si.lat[:n*len(si.streams)]
	fails := make([]int, len(si.streams))
	m0 := si.rt.Metrics()
	start := time.Now()
	si.perClient(func(ci int, ops []op) {
		tr := &http.Transport{}
		defer tr.CloseIdleConnections()
		c := api.NewClient(ls.base, &http.Client{Transport: tr, Timeout: 30 * time.Second})
		ctx := context.Background()
		for i := range ops {
			t0 := time.Now()
			rp, err := send(ctx, c, &ops[i])
			d := time.Since(t0)
			lat[ci*n+i] = int64(d)
			if err != nil {
				fails[ci]++
			}
			if each != nil {
				each(ci, i, &ops[i], t0, d, rp, err)
			}
		}
	})
	r := roundStats{ops: len(lat), wall: time.Since(start), lat: lat}
	r.disk = si.rt.Metrics().Sub(m0).DiskAccesses
	for _, f := range fails {
		r.fails += f
	}
	conns := ls.ln.accepted.Load()
	return r, conns, ls.stop()
}

func (si *serveInst) round() (roundStats, error) {
	r, _, err := si.overHTTP(nil)
	return r, err
}

// warm replays the streams once and checks every stride-th response
// against the router asked directly for the window the server says it
// served, and against the scan.
func (si *serveInst) warm() (attempted, failed int, err error) {
	model := modelOf(si.m.Segments)
	ids := make([]segdb.SegmentID, len(model))
	for i := range ids {
		ids[i] = segdb.SegmentID(i) // router ids are positions in the map
	}
	stride := max(1, len(si.streams)*len(si.streams[0])/si.cfg.sz.checks)
	var bad atomic.Int64
	r, _, err := si.overHTTP(func(ci, i int, o *op, _ time.Time, _ time.Duration, rp reply, err error) {
		if err != nil || i%stride != 0 {
			return
		}
		a := rp.answer()
		ok := true
		switch o.Kind {
		case opWindow:
			direct, _, derr := si.rt.WindowAppendCtx(context.Background(), a.window, nil)
			ok = derr == nil && a.window.ContainsRect(o.Rect) && a.results == len(a.ids) &&
				sameIDs(a.ids, scanWindow(model, ids, a.window)) && sameIDs(hitIDs(direct), a.ids)
		case opNearest:
			ok = sameDists(a.dists, scanNearest(model, o.P, o.K))
		case opIncident:
			ok = sameIDs(a.ids, scanIncident(model, ids, o.P))
		}
		if !ok {
			bad.Add(1)
			fmt.Printf("FAILED client %d %s request %d\n", ci, opKindNames[o.Kind], i)
		}
	})
	if err != nil {
		return 0, 0, err
	}
	return r.ops, r.fails + int(bad.Load()), nil
}

// reqTrace is what the traced passes learn about one request.
type reqTrace struct {
	t      [depthIndex + 1]int64 // ns spent at depth 1..5 (0 where the request did not reach)
	hit    bool                  // served from the result cache at the handler pass
	window segdb.Rect            // snapped window (window requests)
	bytes  int                   // response body size
	shards int                   // shards the router call covers
	calls  []int64               // durations of the single shard calls at the facade pass
}

// depthShare is one row of the serve_browse attribution table.
type depthShare struct {
	Depth   int     `json:"depth"`
	Layer   string  `json:"layer"`
	TotalUS float64 `json:"total_us_per_req"`
	SelfUS  float64 `json:"self_us_per_req"`
	Share   float64 `json:"share"`
}

// covered lists the shards a routed request reaches, in the order the
// router visits them: coverage meets the window, holds the point, or,
// for nearest, ascending distance from the point.
func (si *serveInst) covered(o *op, window segdb.Rect) []*router.Shard {
	type cand struct {
		sh *router.Shard
		lb float64
	}
	var cs []cand
	for i := 0; i < si.rt.Shards(); i++ {
		sh := si.rt.Shard(i)
		cov, ok := sh.Coverage()
		if !ok {
			continue
		}
		switch o.Kind {
		case opWindow:
			if cov.Intersects(window) {
				cs = append(cs, cand{sh, 0})
			}
		case opIncident:
			if cov.ContainsPoint(o.P) {
				cs = append(cs, cand{sh, 0})
			}
		case opNearest:
			cs = append(cs, cand{sh, cov.DistSqToPoint(o.P)})
		}
	}
	if o.Kind == opNearest {
		sort.SliceStable(cs, func(i, j int) bool { return cs[i].lb < cs[j].lb })
	}
	out := make([]*router.Shard, len(cs))
	for i, c := range cs {
		out[i] = c.sh
	}
	return out
}

// shardScratch holds one goroutine's result buffers for direct calls.
type shardScratch struct {
	hits  []segdb.WindowHit
	nn    []segdb.NearestResult
	best  []float64
	visit func(segdb.SegmentID, segdb.Segment) bool
}

func newShardScratch() *shardScratch {
	s := new(shardScratch)
	s.visit = func(id segdb.SegmentID, sg segdb.Segment) bool {
		s.hits = append(s.hits, segdb.WindowHit{ID: id, Seg: sg})
		return true
	}
	return s
}

// direct makes the shard calls one routed request stands for, at the
// facade or (below) at the index, and returns each call's duration. The
// nearest fan stops as the router's does: once k results are held and
// the next shard's coverage lies farther than the k-th.
func (si *serveInst) direct(o *op, window segdb.Rect, below bool, s *shardScratch, each func(sh *router.Shard, start time.Time, d time.Duration, st segdb.QueryStats)) error {
	ctx := context.Background()
	s.best = s.best[:0]
	for _, sh := range si.covered(o, window) {
		if o.Kind == opNearest && len(s.best) >= o.K {
			cov, _ := sh.Coverage()
			if cov.DistSqToPoint(o.P) > s.best[o.K-1] {
				break
			}
		}
		db := sh.DB()
		var (
			st  segdb.QueryStats
			err error
		)
		s.hits, s.nn = s.hits[:0], s.nn[:0]
		t0 := time.Now()
		switch {
		case o.Kind == opWindow && below:
			err = db.Index().WindowObs(window, s.visit, nil)
		case o.Kind == opWindow:
			s.hits, st, err = db.WindowAppendCtx(ctx, window, s.hits)
		case o.Kind == opNearest && below:
			s.nn, err = db.Index().NearestKAppendObs(o.P, o.K, s.nn, nil)
		case o.Kind == opNearest:
			s.nn, st, err = db.NearestKAppendCtx(ctx, o.P, o.K, s.nn)
		case below:
			err = core.IncidentAtObs(db.Index(), o.P, s.visit, nil)
		default:
			st, err = db.IncidentAtCtx(ctx, o.P, s.visit)
		}
		d := time.Since(t0)
		if err != nil {
			return err
		}
		each(sh, t0, d, st)
		if o.Kind == opNearest {
			for _, r := range s.nn {
				s.best = append(s.best, r.DistSq)
			}
			sort.Float64s(s.best)
			if len(s.best) > o.K {
				s.best = s.best[:o.K]
			}
		}
	}
	return nil
}

// serveTrace is the state of serve_browse's traced run: what each depth's
// pass learned about every request.
type serveTrace struct {
	si     *serveInst
	c      *collector
	n      int // requests per client; request i of client ci has op id ci*n+i
	traces []reqTrace
	mu     sync.Mutex // guards what the client goroutines merge into below

	attempted, failed int
	samples           []*api.WindowResponse // uncached window responses, for the encode timing
	routerLat         [numOpKinds][]int64
	facade            [numOpKinds]opCell
	index             [numOpKinds][]int64
	shardCalls        []int64 // facade calls per shard
}

// layers replays the streams once per depth and attributes each
// request's time to the layers it passed through.
func (si *serveInst) layers(c *collector) (attempted, failed int, err error) {
	st := &serveTrace{si: si, c: c, n: len(si.streams[0]), shardCalls: make([]int64, si.rt.Shards())}
	st.traces = make([]reqTrace, st.n*len(si.streams))
	for _, pass := range []func() error{
		st.clientPass,
		st.handlerPass,
		st.routerPass,
		func() error { return st.shardPass(false) },
		func() error { return st.shardPass(true) },
		st.report,
	} {
		if err := pass(); err != nil {
			return 0, 0, err
		}
	}
	return st.attempted, st.failed, runMicro(si.cfg, c, microPool|microRTree, si.m.Segments, 0)
}

// clientPass is depth 1, the Go client over loopback, between two plain
// rounds: drift over the run then cancels out of the cost of recording
// spans.
func (st *serveTrace) clientPass() error {
	si, c := st.si, st.c
	count := func(r roundStats) float64 {
		st.attempted += r.ops
		st.failed += r.fails
		return float64(r.ops) / r.wall.Seconds()
	}
	plain, _, err := si.overHTTP(nil)
	if err != nil {
		return err
	}
	plainOps := count(plain)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var cacheHits atomic.Int64
	top, conns, err := si.overHTTP(func(ci, i int, o *op, t0 time.Time, d time.Duration, rp reply, _ error) {
		id := ci*st.n + i
		st.traces[id].t[depthClient] = int64(d)
		if rp.hit() {
			cacheHits.Add(1)
		}
		si.cfg.spans.add(clientSpan[o.Kind], id, depthClient, t0, d)
	})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	tracedOps := count(top)
	reqs := float64(top.ops)
	c.add("api.request_p99_us", summarize(top.lat).tail) // before the next round reuses the buffer
	c.add("api.allocs_per_req", float64(ms1.Mallocs-ms0.Mallocs)/reqs)
	c.add("api.cache_hit_ratio", float64(cacheHits.Load())/reqs)
	c.add("api.conns_per_req", float64(conns)/reqs)

	after, _, err := si.overHTTP(nil)
	if err != nil {
		return err
	}
	c.add("trace.overhead_frac", 1-tracedOps/((plainOps+count(after))/2))
	return nil
}

// handlerPass is depth 2: the handler tree on a recorder, with a fresh
// result cache. It also learns which requests the cache answers and which
// window the server serves for each.
func (st *serveTrace) handlerPass() error {
	si := st.si
	if err := si.dropCaches(); err != nil {
		return err
	}
	srv, err := api.NewServer(api.Config{Router: si.rt})
	if err != nil {
		return err
	}
	handler := srv.Handler()
	var bad atomic.Int64
	si.perClient(func(ci int, ops []op) {
		for i := range ops {
			o := &ops[i]
			req := httptest.NewRequest(http.MethodGet, requestPath(o), nil)
			rec := httptest.NewRecorder()
			t0 := time.Now()
			handler.ServeHTTP(rec, req)
			d := time.Since(t0)
			id := ci*st.n + i
			tr := &st.traces[id]
			tr.t[depthHandler] = int64(d)
			tr.bytes = rec.Body.Len()
			si.cfg.spans.add(handlerSpan[o.Kind], id, depthHandler, t0, d)
			rp, err := decodeReply(o, rec.Body.Bytes())
			if err != nil || rec.Code != http.StatusOK {
				bad.Add(1)
				continue
			}
			tr.hit = rp.hit()
			if o.Kind == opWindow {
				tr.window = rp.answer().window
				if !tr.hit && i%16 == 0 && rp.window.Count > 0 {
					st.mu.Lock()
					st.samples = append(st.samples, rp.window)
					st.mu.Unlock()
				}
			}
		}
	})
	st.attempted += len(st.traces)
	st.failed += int(bad.Load())
	return nil
}

// routerPass is depth 3. Like the deeper passes it replays only the
// requests the result cache did not answer: the others never reach the
// router.
func (st *serveTrace) routerPass() error {
	si := st.si
	if err := si.dropCaches(); err != nil {
		return err
	}
	var failure atomic.Value
	si.perClient(func(ci int, ops []op) {
		s := newShardScratch()
		ctx := context.Background()
		var local [numOpKinds][]int64
		for i := range ops {
			o := &ops[i]
			id := ci*st.n + i
			tr := &st.traces[id]
			if tr.hit {
				continue
			}
			var err error
			t0 := time.Now()
			switch o.Kind {
			case opWindow:
				s.hits, _, err = si.rt.WindowAppendCtx(ctx, tr.window, s.hits[:0])
			case opNearest:
				_, _, err = si.rt.NearestKCtx(ctx, o.P, o.K)
			default:
				s.hits = s.hits[:0]
				_, err = si.rt.IncidentAtCtx(ctx, o.P, s.visit)
			}
			d := time.Since(t0)
			if err != nil {
				failure.Store(err)
				return
			}
			tr.t[depthRouter] = int64(d)
			local[o.Kind] = append(local[o.Kind], int64(d))
			si.cfg.spans.add(routerSpan[o.Kind], id, depthRouter, t0, d)
		}
		st.mu.Lock()
		for k := range local {
			st.routerLat[k] = append(st.routerLat[k], local[k]...)
		}
		st.mu.Unlock()
	})
	err, _ := failure.Load().(error)
	return err
}

// shardPass is depth 4 (the covered shards' facades) or, below, depth 5
// (their indexes).
func (st *serveTrace) shardPass(below bool) error {
	si := st.si
	if err := si.dropCaches(); err != nil {
		return err
	}
	dbs := make([]*segdb.DB, si.rt.Shards())
	shardIndex := map[*router.Shard]int{}
	for i := range dbs {
		dbs[i] = si.rt.Shard(i).DB()
		shardIndex[si.rt.Shard(i)] = i
	}
	before := snapshotCaches(dbs...)
	depth, names := depthFacade, &facadeSpan
	if below {
		depth, names = depthIndex, &indexSpan
	}
	var failure atomic.Value
	si.perClient(func(ci int, ops []op) {
		s := newShardScratch()
		var (
			facade [numOpKinds]opCell
			index  [numOpKinds][]int64
			calls  = make([]int64, len(dbs))
		)
		for i := range ops {
			o := &ops[i]
			id := ci*st.n + i
			tr := &st.traces[id]
			if tr.hit {
				continue
			}
			err := si.direct(o, tr.window, below, s, func(sh *router.Shard, t0 time.Time, d time.Duration, qs segdb.QueryStats) {
				tr.t[depth] += int64(d)
				si.cfg.spans.add(names[o.Kind], id, depth, t0, d)
				if below {
					index[o.Kind] = append(index[o.Kind], int64(d))
					return
				}
				tr.shards++
				tr.calls = append(tr.calls, int64(d))
				calls[shardIndex[sh]]++
				facade[o.Kind].add(d, qs)
			})
			if err != nil {
				failure.Store(err)
				return
			}
		}
		st.mu.Lock()
		for k := range facade {
			st.facade[k].lat = append(st.facade[k].lat, facade[k].lat...)
			st.facade[k].disk += facade[k].disk
			st.facade[k].seg += facade[k].seg
			st.facade[k].nodes += facade[k].nodes
			st.index[k] = append(st.index[k], index[k]...)
		}
		for i, v := range calls {
			st.shardCalls[i] += v
		}
		st.mu.Unlock()
	})
	if !below {
		st.c.addCacheRatios(before, snapshotCaches(dbs...))
	}
	err, _ := failure.Load().(error)
	return err
}

// report reduces the per-request traces to the api, router, segdb and
// rstar metrics and to the attribution table.
func (st *serveTrace) report() error {
	si, c := st.si, st.c
	var (
		sum                  [depthIndex + 1]float64
		hitNs, missNs        float64
		hits, routed, shards float64
		bytes, overheadNs    float64
		facadeWin, indexWin  float64
		windowCalls          float64
		allCalls             []int64
	)
	for ci, ops := range si.streams {
		for i := range ops {
			tr := &st.traces[ci*st.n+i]
			for d := depthClient; d <= depthIndex; d++ {
				sum[d] += float64(tr.t[d])
			}
			bytes += float64(tr.bytes)
			if tr.hit {
				hits++
				hitNs += float64(tr.t[depthHandler])
				continue
			}
			missNs += float64(tr.t[depthHandler])
			routed++
			shards += float64(tr.shards)
			overheadNs += float64(tr.t[depthRouter] - tr.t[depthFacade])
			allCalls = append(allCalls, tr.calls...)
			if ops[i].Kind == opWindow {
				facadeWin += float64(tr.t[depthFacade])
				indexWin += float64(tr.t[depthIndex])
				windowCalls += float64(tr.shards)
			}
		}
	}
	reqs := float64(len(st.traces))
	perReq := func(ns float64) float64 { return ns / reqs / 1e3 }
	c.add("api.request_us", perReq(sum[depthClient]))
	c.add("api.handler_us", perReq(sum[depthHandler]))
	c.add("api.transport_us", perReq(sum[depthClient]-sum[depthHandler]))
	c.add("api.resp_bytes_per_op", bytes/reqs)
	if hits > 0 {
		c.add("api.cache_hit_us", hitNs/hits/1e3)
	}
	if routed > 0 {
		c.add("api.cache_miss_us", missNs/routed/1e3)
		c.add("router.overhead_us", overheadNs/routed/1e3)
		c.add("router.shards_per_op", shards/routed)
	}
	c.add("router.window_us", summarize(st.routerLat[opWindow]).p50)
	c.add("router.nearest_us", summarize(st.routerLat[opNearest]).p50)
	c.add("router.incident_us", summarize(st.routerLat[opIncident]).p50)
	c.add("router.build_s", si.build.Seconds())
	var maxCalls, totalCalls int64
	for _, v := range st.shardCalls {
		maxCalls = max(maxCalls, v)
		totalCalls += v
	}
	if totalCalls > 0 {
		c.add("router.shard_imbalance", float64(maxCalls)*float64(len(st.shardCalls))/float64(totalCalls))
	}
	c.add("segdb.window_us", summarize(st.facade[opWindow].lat).p50)
	c.add("segdb.nearest_us", summarize(st.facade[opNearest].lat).p50)
	c.add("segdb.read_p99_us", summarize(allCalls).tail)
	if windowCalls > 0 {
		c.add("segdb.overhead_ns_per_op", (facadeWin-indexWin)/windowCalls)
	}
	var calls, disk, seg, nodes float64
	for k := opKind(0); k < numOpKinds; k++ {
		if len(st.index[k]) > 0 {
			c.add("rstar."+opKindNames[k]+"_us", summarize(st.index[k]).p50)
		}
		cl := &st.facade[k]
		calls += float64(len(cl.lat))
		disk, seg, nodes = disk+float64(cl.disk), seg+float64(cl.seg), nodes+float64(cl.nodes)
	}
	if calls > 0 {
		c.add("rstar.disk_acc_per_op", disk/calls)
		c.add("rstar.seg_comps_per_op", seg/calls)
		c.add("rstar.node_comps_per_op", nodes/calls)
	}

	// What the server's encoder costs per segment, on the sampled responses.
	if len(st.samples) > 0 {
		segments := 0
		for _, r := range st.samples {
			segments += len(r.Segments)
		}
		enc := json.NewEncoder(io.Discard)
		var eerr error
		c.add("api.encode_ns_per_segment", timePerCall(si.cfg.microBudget, segments, func() {
			for _, r := range st.samples {
				if err := enc.Encode(r); err != nil {
					eerr = err
				}
			}
		}))
		if eerr != nil {
			return eerr
		}
	}

	// The attribution table: what each layer keeps of a request's time.
	for d := depthClient; d <= depthIndex; d++ {
		self := sum[d]
		if d < depthIndex {
			self -= sum[d+1]
		}
		c.attribution = append(c.attribution, depthShare{
			Depth: d, Layer: depthNames[d],
			TotalUS: perReq(sum[d]), SelfUS: perReq(self), Share: self / sum[depthClient],
		})
	}
	return nil
}
