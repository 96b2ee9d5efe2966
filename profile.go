package segdb

import "segdb/internal/obs"

// queryKind indexes the per-kind profile slots.
type queryKind int

const (
	qkWindow queryKind = iota
	qkNearest
	qkNearestK
	qkIncidentAt
	qkOtherEndpoint
	qkEnclosingPolygon
	qkOverlay
	qkWindowBatch
	numQueryKinds
)

var queryKindNames = [numQueryKinds]string{
	qkWindow:           "window",
	qkNearest:          "nearest",
	qkNearestK:         "nearestk",
	qkIncidentAt:       "incident",
	qkOtherEndpoint:    "otherendpoint",
	qkEnclosingPolygon: "polygon",
	qkOverlay:          "overlay",
	qkWindowBatch:      "windowbatch",
}

// String returns the kind name used in QueryInfo.Kind and Profile.
func (k queryKind) String() string { return queryKindNames[k] }

// QueryKindProfile is one query kind's aggregate in a Profile snapshot:
// its name, how many queries completed and failed, and the distributions
// of their wall time (microseconds) and disk accesses.
type QueryKindProfile = obs.KindSnapshot

// Profile is a snapshot of the database's per-query-kind latency and
// disk-access distributions; see DB.Profile.
type Profile struct {
	// Queries holds one entry per query kind that has completed at
	// least once, in a fixed kind order.
	Queries []QueryKindProfile
}

// Profile snapshots the per-kind query profile accumulated since Open.
// Every query — context-threaded or legacy — is folded in on
// completion, so the histograms cover all traffic. Safe to call while
// queries are in flight; each kind's snapshot is internally consistent
// to within the queries completing during the call.
func (db *DB) Profile() Profile {
	return Profile{Queries: obs.Snapshot(db.prof[:], queryKindNames[:])}
}
