package store

import (
	"context"
	"errors"
	"testing"
	"time"

	"segdb/internal/obs"
)

// retryDisk builds a one-page disk with known contents and the given
// fault and retry policies attached.
func retryDisk(t *testing.T, fp *FaultPolicy, rp *RetryPolicy) (*Disk, PageID) {
	t.Helper()
	d := NewDisk(128)
	id := d.allocate()
	page := fillPage(128, 9)
	if err := d.write(id, page); err != nil {
		t.Fatalf("seeding page: %v", err)
	}
	d.SetFaultPolicy(fp)
	d.SetRetryPolicy(rp)
	return d, id
}

func TestRetryAbsorbsTransientFaults(t *testing.T) {
	fp := NewFaultPolicy(FaultConfig{Seed: 1, ReadErrorProb: 0.5})
	d, id := retryDisk(t, fp, &RetryPolicy{MaxAttempts: 20})
	buf := make([]byte, 128)
	for i := 0; i < 50; i++ {
		if err := d.read(id, buf); err != nil {
			t.Fatalf("read %d failed despite retries: %v", i, err)
		}
	}
	if got := d.Stats().Retries; got == 0 {
		t.Error("no retries counted under 50% read faults")
	}
}

func TestRetryChargesObsOp(t *testing.T) {
	fp := NewFaultPolicy(FaultConfig{Seed: 3, ReadErrorProb: 0.5})
	d, id := retryDisk(t, fp, &RetryPolicy{MaxAttempts: 20})
	o := obs.Begin(context.Background(), nil, obs.QueryInfo{})
	buf := make([]byte, 128)
	for i := 0; i < 50; i++ {
		if err := d.readObs(id, buf, o); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	if st := o.Stats(); st.Retries == 0 {
		t.Error("op saw no retries under 50% read faults")
	}
}

func TestRetryExhaustionWrapsInjectedFault(t *testing.T) {
	fp := NewFaultPolicy(FaultConfig{Seed: 2, ReadErrorProb: 1})
	d, id := retryDisk(t, fp, &RetryPolicy{MaxAttempts: 4})
	err := d.read(id, make([]byte, 128))
	if err == nil {
		t.Fatal("read of always-failing page succeeded")
	}
	if !errors.Is(err, ErrInjectedFault) {
		t.Errorf("exhaustion error does not match ErrInjectedFault: %v", err)
	}
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Kind != FaultRead {
		t.Errorf("exhaustion error does not unwrap to a read FaultError: %v", err)
	}
	if got := d.Stats().Retries; got != 3 {
		t.Errorf("retries = %d, want 3 (4 attempts)", got)
	}
}

func TestRetryCancellationMidBackoff(t *testing.T) {
	fp := NewFaultPolicy(FaultConfig{Seed: 4, ReadErrorProb: 1})
	d, id := retryDisk(t, fp, &RetryPolicy{MaxAttempts: 10, Backoff: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	o := obs.Begin(ctx, nil, obs.QueryInfo{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := d.readObs(id, make([]byte, 128), o)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation did not interrupt the backoff (took %v)", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not match context.Canceled: %v", err)
	}
	if !errors.Is(err, ErrInjectedFault) {
		t.Errorf("error does not match ErrInjectedFault: %v", err)
	}
}

func TestRetryCancellationZeroBackoff(t *testing.T) {
	fp := NewFaultPolicy(FaultConfig{Seed: 5, ReadErrorProb: 1})
	d, id := retryDisk(t, fp, &RetryPolicy{MaxAttempts: 1 << 20})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: the zero-backoff path must still notice
	o := obs.Begin(ctx, nil, obs.QueryInfo{})
	err := d.readObs(id, make([]byte, 128), o)
	if !errors.Is(err, context.Canceled) || !errors.Is(err, ErrInjectedFault) {
		t.Errorf("canceled zero-backoff retry = %v, want both context.Canceled and ErrInjectedFault", err)
	}
}

func TestRetryOpTimeout(t *testing.T) {
	fp := NewFaultPolicy(FaultConfig{Seed: 6, ReadErrorProb: 1})
	d, id := retryDisk(t, fp, &RetryPolicy{
		MaxAttempts: 1 << 20,
		Backoff:     time.Millisecond,
		MaxBackoff:  time.Millisecond,
		OpTimeout:   20 * time.Millisecond,
	})
	start := time.Now()
	err := d.read(id, make([]byte, 128))
	if err == nil {
		t.Fatal("read succeeded under permanent faults")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("OpTimeout did not bound the operation (took %v)", elapsed)
	}
	if !errors.Is(err, ErrInjectedFault) {
		t.Errorf("timeout error does not match ErrInjectedFault: %v", err)
	}
}

// TestRetryDoesNotRetryChecksum pins that corruption is never retried:
// the same bytes would fail again, and hammering a corrupt page hides
// the real problem.
func TestRetryDoesNotRetryChecksum(t *testing.T) {
	d, id := retryDisk(t, nil, &RetryPolicy{MaxAttempts: 10})
	if err := d.CorruptPage(id, 12); err != nil {
		t.Fatal(err)
	}
	err := d.read(id, make([]byte, 128))
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt read = %v, want ErrChecksum", err)
	}
	if got := d.Stats().Retries; got != 0 {
		t.Errorf("checksum failure was retried %d times", got)
	}
}

// TestRetryDoesNotRetryCrash pins that the post-crash state is terminal.
func TestRetryDoesNotRetryCrash(t *testing.T) {
	fp := NewFaultPolicy(FaultConfig{Seed: 7, CrashAfterWrites: 1})
	d, id := retryDisk(t, nil, &RetryPolicy{MaxAttempts: 10})
	d.SetFaultPolicy(fp)
	if err := d.write(id, fillPage(128, 1)); err == nil {
		t.Fatal("crashing write succeeded")
	}
	before := d.Stats().Retries
	if err := d.read(id, make([]byte, 128)); err == nil {
		t.Fatal("read on crashed disk succeeded")
	}
	if got := d.Stats().Retries; got != before {
		t.Errorf("crash fault was retried %d times", got-before)
	}
}

func TestRetryBackoffSchedule(t *testing.T) {
	rp := &RetryPolicy{Backoff: 10 * time.Millisecond, MaxBackoff: 35 * time.Millisecond}
	want := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		35 * time.Millisecond, // 40ms capped
		35 * time.Millisecond,
	}
	for i, w := range want {
		if got := rp.backoffFor(i + 1); got != w {
			t.Errorf("backoffFor(%d) = %v, want %v", i+1, got, w)
		}
	}
	var zero *RetryPolicy
	if zero.attempts() != 1 {
		t.Error("nil policy attempts != 1")
	}
}

// fillPage builds a deterministic page image of the given size.
func fillPage(size int, fill byte) []byte {
	data := make([]byte, size)
	for i := range data {
		data[i] = fill + byte(i%7)
	}
	return data
}
