package main

import (
	"fmt"
	"math/rand"

	"segdb"
	"segdb/api"
)

// opKind names the read operations the workloads send.
type opKind uint8

const (
	opWindow opKind = iota
	opNearest
	opIncident
	opOtherEnd
	opPolygon
	numOpKinds
)

var opKindNames = [numOpKinds]string{"window", "nearest", "incident", "otherend", "polygon"}

// op is one generated read. Which fields matter depends on Kind: Rect
// for a window; P (and K) for nearest, incident and polygon; Seg (an
// index into the map) with P, one of its endpoints, for other-endpoint.
type op struct {
	Kind opKind
	Rect segdb.Rect
	P    segdb.Point
	K    int
	Seg  int32
}

// writeOp is one generated write: an Add of Seg, or a Delete of the
// Ref-th segment added earlier in the same stream. The ids the database
// assigns are only known at run time, so deletes name their target by
// position.
type writeOp struct {
	Del bool
	Seg segdb.Segment
	Ref int32
}

// streams holds every input of one workload, all derived from the seed.
// The program under test sees only these.
type streams struct {
	reads   []op      // single-client read stream
	clients [][]op    // serve_browse: one stream per client
	writes  []writeOp // ingest workloads
}

// encode renders the streams as text, one op per line: the byte-identity
// the determinism test compares.
func (s *streams) encode() []byte {
	var b []byte
	for _, o := range s.reads {
		b = fmt.Appendf(b, "r %d %v %v %d %d\n", o.Kind, o.Rect, o.P, o.K, o.Seg)
	}
	for c, ops := range s.clients {
		for _, o := range ops {
			b = fmt.Appendf(b, "c%d %d %v %v %d\n", c, o.Kind, o.Rect, o.P, o.K)
		}
	}
	for _, w := range s.writes {
		b = fmt.Appendf(b, "w %v %v %d\n", w.Del, w.Seg, w.Ref)
	}
	return b
}

// workloadSalt separates the workloads' random streams, so two workloads
// run with one seed do not replay each other's coordinates.
func workloadSalt(name string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range []byte(name) {
		h = (h ^ int64(c)) * 1099511628211
	}
	return h
}

func randWindow(rng *rand.Rand, lo, hi int32) segdb.Rect {
	side := lo + rng.Int31n(hi-lo+1)
	x := rng.Int31n(segdb.WorldSize - side)
	y := rng.Int31n(segdb.WorldSize - side)
	return segdb.RectOf(x, y, x+side, y+side)
}

func randPoint(rng *rand.Rand) segdb.Point {
	return segdb.Pt(rng.Int31n(segdb.WorldSize), rng.Int31n(segdb.WorldSize))
}

// paperStream is the five-query mix of the paper: 70% windows of side
// 100..500, 15% nearest, 8% incident, 5% other-endpoint, 2% enclosing
// polygon. Polygon traces cost 30-60 windows each, so 2% of the ops is
// already about half of the round's time.
func paperStream(rng *rand.Rand, segs []segdb.Segment, n int) []op {
	// Polygon probes fall inside the map's extent. On the county that is
	// the world; on the prefix a quick run keeps it avoids tracing the
	// prefix's outline, thousands of edges long, from every point outside.
	extent := segs[0].Bounds()
	for _, s := range segs {
		extent = extent.Union(s.Bounds())
	}
	ops := make([]op, n)
	for i := range ops {
		switch roll := rng.Intn(100); {
		case roll < 70:
			ops[i] = op{Kind: opWindow, Rect: randWindow(rng, 100, 500)}
		case roll < 85:
			ops[i] = op{Kind: opNearest, P: randPoint(rng), K: 1}
		case roll < 93:
			ops[i] = op{Kind: opIncident, P: segs[rng.Intn(len(segs))].P1}
		case roll < 98:
			si := rng.Intn(len(segs))
			ops[i] = op{Kind: opOtherEnd, Seg: int32(si), P: segs[si].P1}
		default:
			ops[i] = op{Kind: opPolygon, P: segdb.Pt(
				extent.Min.X+rng.Int31n(extent.Max.X-extent.Min.X+1),
				extent.Min.Y+rng.Int31n(extent.Max.Y-extent.Min.Y+1))}
		}
	}
	return ops
}

// hotStream is 80% small windows and 20% k-nearest with k in {1,5,10}.
func hotStream(rng *rand.Rand, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		if rng.Intn(5) == 0 {
			ops[i] = op{Kind: opNearest, P: randPoint(rng), K: []int{1, 5, 10}[rng.Intn(3)]}
		} else {
			ops[i] = op{Kind: opWindow, Rect: randWindow(rng, 64, 256)}
		}
	}
	return ops
}

func windowStream(rng *rand.Rand, n int, lo, hi int32) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{Kind: opWindow, Rect: randWindow(rng, lo, hi)}
	}
	return ops
}

// browseEndpoints samples real segment endpoints for incidence probes,
// as `lsdb`'s own load driver does: a random point almost never has a
// segment ending on it.
func browseEndpoints(segs []segdb.Segment) []segdb.Point {
	pts := make([]segdb.Point, 0, 512)
	for i := 0; i < len(segs) && len(pts) < 512; i += len(segs)/512 + 1 {
		pts = append(pts, segs[i].P1)
	}
	return pts
}

// browseUsers is how many users share one client's connection, and
// browseSession how many requests a user sends before the next one takes
// over (the generator's own session length, so users alternate between
// pan/zoom bursts). Each user is one run of the serving tier's zipfian
// pan/zoom generator, with its own hot regions. A generator draws its
// hot regions once, and the top region takes two fifths of its sessions,
// so with a single user per client the seed decides little else than how
// dense the map is around two points: disk accesses per request then
// differ by a seventh from seed to seed.
const (
	browseUsers   = 8
	browseSession = 12
)

// browseStream draws n requests from browseUsers generators seeded from
// rng, taking turns session by session.
func browseStream(rng *rand.Rand, endpoints []segdb.Point, n int) []op {
	gens := make([]*api.LoadGen, browseUsers)
	for u := range gens {
		gens[u] = api.NewLoadGen(api.LoadConfig{Seed: rng.Int63(), Endpoints: endpoints, SessionLen: browseSession})
	}
	ops := make([]op, n)
	for i := range ops {
		gen := gens[i/browseSession%browseUsers]
		switch g := gen.Next(); g.Kind {
		case api.OpWindow:
			ops[i] = op{Kind: opWindow, Rect: segdb.RectOf(g.X1, g.Y1, g.X2, g.Y2)}
		case api.OpNearest:
			ops[i] = op{Kind: opNearest, P: segdb.Pt(g.X, g.Y), K: g.K}
		case api.OpIncident:
			ops[i] = op{Kind: opIncident, P: segdb.Pt(g.X, g.Y)}
		}
	}
	return ops
}

// writeStream is 90% Adds of short segments and 10% Deletes of a
// still-live earlier Add.
func writeStream(rng *rand.Rand, n int) []writeOp {
	ws := make([]writeOp, n)
	var live []int32 // positions (among the adds) not yet deleted
	adds := int32(0)
	for i := range ws {
		if len(live) > 0 && rng.Intn(10) == 0 {
			j := rng.Intn(len(live))
			ws[i] = writeOp{Del: true, Ref: live[j]}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		x := rng.Int31n(segdb.WorldSize - 257)
		y := rng.Int31n(segdb.WorldSize - 257)
		ws[i] = writeOp{Seg: segdb.Seg(x, y, x+rng.Int31n(255)+1, y+rng.Int31n(255)+1)}
		live = append(live, adds)
		adds++
	}
	return ws
}

// makeStreams generates the inputs of one workload from the seed.
func makeStreams(name string, seed int64, sz sizes, segs []segdb.Segment) (*streams, error) {
	rng := rand.New(rand.NewSource(seed ^ workloadSalt(name)))
	s := new(streams)
	switch name {
	case "paper_mix":
		s.reads = paperStream(rng, segs, sz.paperOps)
	case "rstar_hot":
		s.reads = hotStream(rng, sz.hotOps)
	case "pmr_compressed":
		s.reads = windowStream(rng, sz.pmrOps, 100, 500)
	case "serve_browse":
		endpoints := browseEndpoints(segs)
		for c := 0; c < serveClients; c++ {
			s.clients = append(s.clients, browseStream(rng, endpoints, sz.serveReqs))
		}
	case "ingest_staged", "ingest_inplace":
		// Both ingest workloads draw from the salt of ingest_staged, so
		// ingest_inplace replays the first writes of the very same stream.
		rng = rand.New(rand.NewSource(seed ^ workloadSalt("ingest_staged")))
		s.reads = windowStream(rng, sz.readerWindows, 100, 500)
		s.writes = writeStream(rng, sz.stagedWrites)
		if name == "ingest_inplace" {
			s.writes = s.writes[:sz.inplaceWrites]
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return s, nil
}
