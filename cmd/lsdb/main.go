// Command lsdb is an interactive front end to the segdb line segment
// database: generate synthetic counties, build any of the six indexes,
// and run the paper's five queries against them with full cost accounting.
//
// Usage:
//
//	lsdb counties
//	lsdb build   -county Baltimore -index pmr
//	lsdb query   -county Baltimore -index pmr -type nearest -x 8000 -y 8000
//	lsdb query   -county Charles   -index rstar -type polygon -x 4000 -y 9000
//	lsdb query   -county Cecil     -index rplus -type window -x 100 -y 100 -w 164 -h 164
//	lsdb query   -county Garrett   -index grid  -type incident -x 8000 -y 8000
//	lsdb verify  -load db.segdb
//	lsdb recover -dir /var/lib/segdb
//	lsdb serve   -county Baltimore -index rstar -shards 4 -addr 127.0.0.1:8080
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"segdb"
)

var indexKinds = map[string]segdb.Kind{
	"rstar": segdb.RStarTree,
	"rtree": segdb.ClassicRTree,
	"rplus": segdb.RPlusTree,
	"pmr":   segdb.PMRQuadtree,
	"kdb":   segdb.KDBTree,
	"grid":  segdb.UniformGrid,
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "counties":
		err = counties()
	case "build":
		err = build(os.Args[2:])
	case "query":
		err = query(os.Args[2:])
	case "verify":
		err = verify(os.Args[2:])
	case "recover":
		err = recoverCmd(os.Args[2:])
	case "compact":
		err = compactCmd(os.Args[2:])
	case "serve":
		err = serve(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsdb:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  lsdb counties
  lsdb build -county NAME -index rstar|rtree|rplus|pmr|kdb|grid [-save FILE]
  lsdb query -county NAME -index KIND -type nearest|polygon|window|incident -x X -y Y [-w W -h H] [-load FILE]
  lsdb verify [-load FILE | -county NAME -index KIND [-compress N]]
  lsdb recover -dir DIR [-scrub]
  lsdb compact -dir DIR
  lsdb serve -county NAME -index KIND -shards N -addr HOST:PORT [-cache N] [-quantum N] [-timeout D] [-staged=false]`)
}

func counties() error {
	fmt.Printf("%-14s %-10s %s\n", "county", "class", "segments")
	for _, name := range segdb.CountyNames() {
		m, err := segdb.GenerateCounty(name)
		if err != nil {
			return err
		}
		fmt.Printf("%-14s %-10s %d\n", m.Name, m.Class, len(m.Segments))
	}
	return nil
}

func load(county, index string) (*segdb.DB, error) {
	return loadLevel(county, index, 0)
}

// loadLevel is load at an explicit page-compression level.
func loadLevel(county, index string, compress int) (*segdb.DB, error) {
	kind, ok := indexKinds[index]
	if !ok {
		return nil, fmt.Errorf("unknown index %q (want rstar|rtree|rplus|pmr|kdb|grid)", index)
	}
	m, err := segdb.GenerateCounty(county)
	if err != nil {
		return nil, err
	}
	db, err := segdb.Open(kind, segdb.WithPageCompression(compress))
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if _, err := db.Load(m); err != nil {
		return nil, err
	}
	fmt.Printf("loaded %d segments of %s into a %v in %v\n",
		db.Len(), county, kind, time.Since(start).Round(time.Millisecond))
	return db, nil
}

func build(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	county := fs.String("county", "Charles", "county name")
	index := fs.String("index", "pmr", "index kind")
	save := fs.String("save", "", "write the built database to this file")
	fs.Parse(args)
	db, err := load(*county, *index)
	if err != nil {
		return err
	}
	fmt.Printf("index size: %d KB, segment table: %d KB\n",
		db.IndexSizeBytes()/1024, db.TableSizeBytes()/1024)
	m := db.Metrics()
	fmt.Printf("build cost: %d disk accesses, %d segment fetches, %.1f%% pool hit ratio\n",
		m.DiskAccesses, m.SegComps, 100*m.HitRatio())
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			return err
		}
		if err := db.Save(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		st, _ := os.Stat(*save)
		fmt.Printf("saved to %s (%d KB)\n", *save, st.Size()/1024)
	}
	return nil
}

// verify opens a database (a saved image via -load, or a freshly built
// county) and runs the full integrity check, printing every problem.
func verify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	county := fs.String("county", "Charles", "county name")
	index := fs.String("index", "pmr", "index kind")
	compress := fs.Int("compress", 0, "page compression level (0-1) when building")
	file := fs.String("load", "", "verify a saved database file instead of building one")
	fs.Parse(args)

	var db *segdb.DB
	var err error
	if *file != "" {
		f, ferr := os.Open(*file)
		if ferr != nil {
			return ferr
		}
		db, err = segdb.Load(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("load (corruption is detected here too): %w", err)
		}
		fmt.Printf("opened %s: %v with %d segments\n", *file, db.Kind(), db.Len())
	} else {
		db, err = loadLevel(*county, *index, *compress)
		if err != nil {
			return err
		}
	}
	rep := db.CheckIntegrity()
	fmt.Printf("kind %v, %d segments, %d index pages, %d table pages\n",
		rep.Kind, rep.Segments, rep.IndexPages, rep.TablePages)
	if stats, serr := db.PageFormatStats(); serr == nil && stats.Pages > 0 {
		fmt.Printf("page format: compression level %d, %d pages, %.0f bytes/page, leaf fanout %.1f\n",
			stats.Level, stats.Pages, stats.AvgBytesPerPage(), stats.AvgLeafFanout())
		for _, format := range []string{"v1", "v3", "v3-16"} {
			if n := stats.Formats[format]; n > 0 {
				fmt.Printf("  %-6s %d pages\n", format, n)
			}
		}
	}
	if rep.Healthy() {
		fmt.Println("integrity: OK (every check passed)")
		return nil
	}
	fmt.Printf("integrity: %d problem(s)\n", len(rep.Problems))
	for _, p := range rep.Problems {
		fmt.Println("  -", p)
	}
	return fmt.Errorf("database failed verification")
}

// recoverCmd replays a WAL directory (checkpoint + log) into a live
// database, reports what was rolled forward, optionally scrubs, and
// verifies the result.
func recoverCmd(args []string) error {
	fs := flag.NewFlagSet("recover", flag.ExitOnError)
	dir := fs.String("dir", "", "WAL directory (from segdb.Open with WithWAL)")
	scrub := fs.Bool("scrub", true, "verify page checksums and repair quarantined pages after recovery")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("recover: -dir is required")
	}
	db, rep, err := segdb.Recover(*dir)
	if err != nil {
		return err
	}
	fmt.Printf("recovered %v with %d segments from %s\n", db.Kind(), db.Len(), *dir)
	fmt.Printf("checkpoint: epoch %d, %d committed mutations\n", rep.CheckpointEpoch, rep.CheckpointSeq)
	fmt.Printf("rolled forward: %d transactions, %d operations re-executed (now at mutation %d)\n",
		rep.Transactions, rep.OpsReplayed, rep.Seq)
	if rep.TornTail {
		fmt.Println("log ended in a torn, uncommitted tail (discarded — expected after a crash)")
	}
	if *scrub {
		srep, err := db.Scrub()
		if err != nil {
			return err
		}
		fmt.Printf("scrub: %d pages checked, %d bad index pages, %d bad table pages, %d repaired, %d unrepairable\n",
			srep.CheckedPages, len(srep.BadIndexPages), len(srep.BadTablePages), srep.Repaired, srep.Unrepairable)
		if srep.Unrepairable > 0 {
			return fmt.Errorf("%d page(s) could not be repaired from the checkpoint and log", srep.Unrepairable)
		}
	}
	irep := db.CheckIntegrity()
	if !irep.Healthy() {
		for _, p := range irep.Problems {
			fmt.Println("  -", p)
		}
		return fmt.Errorf("recovered database failed verification")
	}
	fmt.Println("integrity: OK (every check passed)")
	return nil
}

// compactCmd folds a staged-ingest database's WAL tail into its disk
// index offline: recovery replays the staged operations into a bulk
// rebuild and cuts a fresh checkpoint, so the next open starts with an
// empty staging tier and an empty log.
func compactCmd(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	dir := fs.String("dir", "", "WAL directory (from segdb.Open with WithWAL)")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("compact: -dir is required")
	}
	db, rep, err := segdb.Recover(*dir, segdb.WithStagedIngest())
	if err != nil {
		return err
	}
	fmt.Printf("opened %v with %d segments from %s\n", db.Kind(), db.Len(), *dir)
	fmt.Printf("folded %d logged operation(s) into the disk index\n", rep.OpsReplayed)
	if err := db.Compact(); err != nil {
		return err
	}
	epoch, _ := db.Epoch()
	fmt.Printf("compacted: epoch %d, staging tier empty, checkpoint cut (WAL %d bytes)\n",
		epoch, db.WALSize())
	irep := db.CheckIntegrity()
	if !irep.Healthy() {
		for _, p := range irep.Problems {
			fmt.Println("  -", p)
		}
		return fmt.Errorf("compacted database failed verification")
	}
	fmt.Println("integrity: OK (every check passed)")
	return nil
}

func query(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	county := fs.String("county", "Charles", "county name")
	index := fs.String("index", "pmr", "index kind")
	qtype := fs.String("type", "nearest", "nearest|polygon|window|incident")
	x := fs.Int("x", 8192, "query x coordinate")
	y := fs.Int("y", 8192, "query y coordinate")
	w := fs.Int("w", 164, "window width (window query)")
	h := fs.Int("h", 164, "window height (window query)")
	file := fs.String("load", "", "open a saved database instead of building one")
	fs.Parse(args)

	var db *segdb.DB
	var err error
	if *file != "" {
		f, ferr := os.Open(*file)
		if ferr != nil {
			return ferr
		}
		db, err = segdb.Load(f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Printf("opened %s: %v with %d segments\n", *file, db.Kind(), db.Len())
	} else {
		db, err = load(*county, *index)
		if err != nil {
			return err
		}
	}
	p := segdb.Pt(int32(*x), int32(*y))
	ctx := context.Background()
	var cost segdb.QueryStats
	switch *qtype {
	case "nearest":
		var res segdb.NearestResult
		if res, cost, err = db.NearestCtx(ctx, p); err != nil {
			return err
		}
		if !res.Found {
			fmt.Println("no segments in the database")
			break
		}
		fmt.Printf("nearest segment #%d: %v (distance %.2f)\n",
			res.ID, res.Seg, math.Sqrt(res.DistSq))
	case "polygon":
		var poly segdb.Polygon
		if poly, cost, err = db.EnclosingPolygonCtx(ctx, p); err != nil {
			return err
		}
		fmt.Printf("enclosing polygon has %d boundary segments", poly.Size())
		if poly.Size() <= 16 {
			fmt.Printf(": %v", poly.IDs)
		}
		fmt.Println()
	case "window":
		r := segdb.RectOf(int32(*x), int32(*y), int32(*x+*w-1), int32(*y+*h-1))
		count := 0
		if cost, err = db.WindowCtx(ctx, r, func(segdb.SegmentID, segdb.Segment) bool {
			count++
			return true
		}); err != nil {
			return err
		}
		fmt.Printf("%d segments intersect window %v\n", count, r)
	case "incident":
		count := 0
		if cost, err = db.IncidentAtCtx(ctx, p, func(id segdb.SegmentID, s segdb.Segment) bool {
			count++
			fmt.Printf("  segment #%d: %v\n", id, s)
			return true
		}); err != nil {
			return err
		}
		fmt.Printf("%d segments incident at %v\n", count, p)
	default:
		return fmt.Errorf("unknown query type %q", *qtype)
	}
	fmt.Printf("cost: %d disk accesses, %d segment comparisons, %d bbox/bucket computations\n",
		cost.DiskAccesses(), cost.SegComps, cost.NodeComps)
	return nil
}
