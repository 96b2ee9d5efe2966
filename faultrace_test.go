package segdb

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFaultPolicyAttachDetachRace audits the runtime policy hooks for
// data races: while goroutines hammer context-threaded queries (reading
// pages, counting retries, sharing one FaultPolicy's latched state),
// the main goroutine attaches and detaches fault and retry policies.
// The assertions are deliberately weak — queries either succeed or fail
// with an injected fault — because the property under test is that the
// race detector stays silent.
func TestFaultPolicyAttachDetachRace(t *testing.T) {
	db, err := Open(RStarTree, WithPoolPages(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range crashSegments(400, 5) {
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.DropCaches(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		wg        sync.WaitGroup
		completed atomic.Uint64
	)
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				r := RectOf(int32((g*997+i*131)%12000), int32((i*241)%12000), int32((g*997+i*131)%12000+3000), int32((i*241)%12000+3000))
				_, err := db.WindowCtx(ctx, r, func(SegmentID, Segment) bool { return true })
				if err == nil {
					_, _, err = db.NearestKAppendCtx(ctx, Pt(int32(i%16000), int32((i*7)%16000)), 2, nil)
				}
				switch {
				case err == nil:
					completed.Add(1)
				case errors.Is(err, ErrInjectedFault), errors.Is(err, context.Canceled):
					// Expected while a policy is attached or at shutdown.
				default:
					t.Errorf("query failed with unexpected error: %v", err)
					return
				}
			}
		}()
	}

	flaky := NewFaultPolicy(FaultConfig{Seed: 9, ReadErrorProb: 0.3})
	rp := &RetryPolicy{MaxAttempts: 3}
	for i := 0; i < 300; i++ {
		db.SetFaultPolicy(flaky)
		db.SetRetryPolicy(rp)
		db.SetDegradedReads(i%2 == 0)
		db.SetFaultPolicy(nil)
		db.SetRetryPolicy(nil)
		db.SetDegradedReads(false)
		if i%50 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	cancel()
	wg.Wait()
	if completed.Load() == 0 {
		t.Error("no query ever completed; the detach windows never let one through")
	}
	if r := db.CheckIntegrity(); !r.Healthy() {
		t.Fatalf("unhealthy after attach/detach storm: %v", r.Err())
	}
}
