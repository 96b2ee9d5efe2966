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

// TestEpochReleaseDeferredUntilLastUnpin checks that the pins of readers
// still on a superseded epoch drain as usual.
func TestEpochReleaseDeferredUntilLastUnpin(t *testing.T) {
	e := NewEpoch(1)
	e.Pin()
	e.Pin()
	if got := e.Pins(); got != 2 {
		t.Fatalf("Pins = %d, want 2", got)
	}
	e.Unpin()
	e.Unpin()
	if got := e.Pins(); got != 0 {
		t.Fatalf("Pins = %d after the last Unpin, want 0", got)
	}
}
