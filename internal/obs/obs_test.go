package obs

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

func TestNilOpIsInert(t *testing.T) {
	var o *Op
	if err := o.Canceled(); err != nil {
		t.Fatal(err)
	}
	o.PoolHits(1)
	o.PoolMiss(3)
	o.DiskWrite()
	o.SegComps(5)
	o.NodeComps(7)
	o.NodeVisit(1)
	if st := o.Stats(); st != (Stats{}) {
		t.Fatalf("nil op accumulated stats: %+v", st)
	}
	if st := o.Finish(nil); st != (Stats{}) {
		t.Fatalf("nil op finish: %+v", st)
	}
	if info := o.Info(); info != (QueryInfo{}) {
		t.Fatalf("nil op info: %+v", info)
	}
}

func TestOpAccounting(t *testing.T) {
	o := Begin(context.Background(), nil, QueryInfo{ID: 1, Kind: "window"})
	o.PoolHits(1)
	o.PoolHits(1)
	o.PoolMiss(9)
	o.DiskWrite()
	o.SegComps(3)
	o.NodeComps(4)
	st := o.Finish(nil)
	if st.PoolHits != 2 || st.DiskReads != 1 || st.PoolRequests != 3 {
		t.Fatalf("pool accounting wrong: %+v", st)
	}
	if st.DiskWrites != 1 || st.DiskAccesses() != 2 {
		t.Fatalf("disk accounting wrong: %+v", st)
	}
	if st.SegComps != 3 || st.NodeComps != 4 {
		t.Fatalf("comparison accounting wrong: %+v", st)
	}
	if st.Wall <= 0 {
		t.Fatalf("wall %v", st.Wall)
	}
	// Finish froze the clock.
	if again := o.Stats(); again.Wall != st.Wall {
		t.Fatalf("wall moved after Finish: %v then %v", st.Wall, again.Wall)
	}

	sum := st.Add(st)
	if sum.SegComps != 6 || sum.PoolRequests != 6 {
		t.Fatalf("Add wrong: %+v", sum)
	}
	if d := sum.Sub(st); d != st {
		t.Fatalf("Sub wrong: %+v", d)
	}
}

func TestOpCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	o := Begin(ctx, nil, QueryInfo{ID: 1, Kind: "window"})
	if err := o.Canceled(); err != nil {
		t.Fatalf("not canceled yet: %v", err)
	}
	cancel()
	if err := o.Canceled(); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// A background context never cancels.
	bg := Begin(context.Background(), nil, QueryInfo{})
	if err := bg.Canceled(); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBuckets(t *testing.T) {
	for _, tc := range []struct {
		v      uint64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 38, HistBuckets - 1}, {1 << 62, HistBuckets - 1},
	} {
		if got := bucketOf(tc.v); got != tc.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", tc.v, got, tc.bucket)
		}
	}

	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 100} {
		h.Record(v)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 106 {
		t.Fatalf("count %d sum %d", s.Count, s.Sum)
	}
	if s.Mean() != 106.0/5 {
		t.Fatalf("mean %v", s.Mean())
	}
	if s.Buckets[0] != 1 || s.Buckets[1] != 1 || s.Buckets[2] != 2 {
		t.Fatalf("buckets %v", s.Buckets[:4])
	}
	// Quantiles are bucket top edges: the median of {0,1,2,3,100} lies in
	// bucket 2 (values 2..3), whose top edge is 4.
	if q := s.Quantile(0.5); q != 4 {
		t.Fatalf("median %d, want 4", q)
	}
	if q := s.Quantile(1.0); q != 128 {
		t.Fatalf("max quantile %d, want 128", q)
	}
	if q := (HistogramSnapshot{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile %d", q)
	}
}

func TestJSONLTracerErrorPath(t *testing.T) {
	// A failing writer records its first error and goes quiet.
	tr := NewJSONLTracer(failWriter{})
	tr.QueryStart(QueryInfo{ID: 1, Kind: "window"})
	if tr.Err() == nil {
		t.Fatal("write error not recorded")
	}
	tr.QueryFinish(QueryInfo{ID: 1, Kind: "window"}, Stats{}, nil)

	var buf bytes.Buffer
	ok := NewJSONLTracer(&buf)
	ok.QueryFinish(QueryInfo{ID: 2, Kind: "nearest"}, Stats{SegComps: 1}, errors.New("boom"))
	line := buf.String()
	if !strings.Contains(line, `"event":"query_finish"`) || !strings.Contains(line, `"error":"boom"`) {
		t.Fatalf("bad finish line: %s", line)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("sink failed") }
