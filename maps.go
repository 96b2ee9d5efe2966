package segdb

import (
	"fmt"
	"io"

	"segdb/internal/store"
	"segdb/internal/tiger"
	"segdb/internal/tigerline"
)

// MapData is a synthetic TIGER/Line-style polygonal map: a noded planar
// collection of road segments normalized to the 16K x 16K world.
type MapData struct {
	// Name of the county archetype.
	Name string
	// Class is "urban", "suburban" or "rural".
	Class string
	// Segments of the map, planar by construction.
	Segments []Segment
}

// CountyNames lists the six built-in synthetic counties standing in for
// the paper's Maryland TIGER/Line extracts (about 50,000 segments each).
func CountyNames() []string {
	var names []string
	for _, spec := range tiger.Counties() {
		names = append(names, spec.Name)
	}
	return names
}

// GenerateCounty deterministically generates one of the built-in counties
// by name (see CountyNames).
func GenerateCounty(name string) (*MapData, error) {
	spec, ok := tiger.CountyByName(name)
	if !ok {
		return nil, fmt.Errorf("segdb: unknown county %q (have %v)", name, CountyNames())
	}
	m, err := tiger.Generate(spec)
	if err != nil {
		return nil, err
	}
	return &MapData{Name: spec.Name, Class: spec.Kind.String(), Segments: m.Segments}, nil
}

// Load adds every segment of the map to the database, returning the
// assigned IDs (in input order). Segments are inserted one at a time,
// reproducing the paper's build costs (AddBatch is the bulk build). It
// holds the writer lock for the whole load, so queries never observe a
// half-loaded map. A segment outside the world rejects the whole map
// before any is added. In staged-ingest mode, where the disk index
// changes only by compaction, the map is staged and compacted as
// AddBatch does.
func (db *DB) Load(m *MapData) ([]SegmentID, error) {
	db.mu.Lock()
	defer db.unlock()
	if err := db.settleLocked(); err != nil {
		return nil, err
	}
	if err := checkSegments(m.Segments...); err != nil {
		return nil, err
	}
	if db.stagedMode() {
		return db.addBatchStagedLocked(m.Segments)
	}
	ids := make([]SegmentID, 0, len(m.Segments))
	ops := make([]store.WALStagedOp, 0, len(m.Segments))
	for _, s := range m.Segments {
		id, err := db.addLocked(s)
		if err != nil {
			return nil, db.failLocked(err)
		}
		ids = append(ids, id)
		ops = append(ops, addOp(id, s))
	}
	// One WAL commit seals the whole map: a crash mid-load rolls the
	// database back to its pre-load state.
	return ids, db.logLocked(ops...)
}

// ParseTIGER reads US Census TIGER/Line Record Type 1 data (the format
// the paper's maps came from), keeps the chains whose census feature
// class code starts with one of the prefixes (defaulting to "A", the road
// classes used in the paper), and normalizes them into the 16K x 16K
// world exactly as §6 describes: coordinates are scaled with respect to
// the minimum bounding square of the map.
func ParseTIGER(r io.Reader, cfccPrefixes ...string) (*MapData, error) {
	chains, err := tigerline.Parse(r)
	if err != nil {
		return nil, err
	}
	if len(cfccPrefixes) == 0 {
		cfccPrefixes = []string{"A"}
	}
	segs, err := tigerline.Normalize(tigerline.Filter(chains, cfccPrefixes...))
	if err != nil {
		return nil, err
	}
	return &MapData{Name: "TIGER import", Class: "imported", Segments: segs}, nil
}
