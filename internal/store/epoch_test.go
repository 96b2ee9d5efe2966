package store

import "testing"

func TestEpochPinUnpin(t *testing.T) {
	e := NewEpoch(7)
	if e.ID() != 7 {
		t.Fatalf("ID = %d, want 7", e.ID())
	}
	e.Pin()
	e.Pin()
	if got := e.Pins(); got != 2 {
		t.Fatalf("Pins = %d, want 2", got)
	}
	e.Unpin()
	e.Unpin()
	if got := e.Pins(); got != 0 {
		t.Fatalf("Pins = %d, want 0", got)
	}
}

// TestEpochReleaseAfterRetireWithNoPins checks that retiring an
// unpinned epoch marks it retired.
func TestEpochReleaseAfterRetireWithNoPins(t *testing.T) {
	e := NewEpoch(1)
	if e.Retired() {
		t.Fatal("Retired = true before Retire")
	}
	e.Retire()
	if !e.Retired() {
		t.Fatal("Retired = false after Retire")
	}
}

// TestEpochReleaseDeferredUntilLastUnpin checks that Retire leaves the
// pins of readers still on the epoch alone, and that they drain as
// usual afterwards.
func TestEpochReleaseDeferredUntilLastUnpin(t *testing.T) {
	e := NewEpoch(1)
	e.Pin()
	e.Pin()
	e.Retire()
	if !e.Retired() || e.Pins() != 2 {
		t.Fatalf("after Retire: Retired = %v, Pins = %d; want true, 2", e.Retired(), e.Pins())
	}
	e.Unpin()
	e.Unpin()
	if got := e.Pins(); got != 0 {
		t.Fatalf("Pins = %d after the last Unpin, want 0", got)
	}
}
