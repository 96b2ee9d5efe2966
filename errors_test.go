package segdb

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"segdb/internal/store"
)

// TestErrorCodeTable pins the error → wire-code mapping. The codes are
// part of the HTTP protocol (clients switch on them), so a change here
// is a breaking wire change: extend the table for new errors, never
// remap an existing one.
func TestErrorCodeTable(t *testing.T) {
	table := []struct {
		name string
		err  error
		code ErrCode
		http int
	}{
		{"nil", nil, CodeOK, 200},
		{"context.Canceled", context.Canceled, CodeCanceled, 499},
		{"context.DeadlineExceeded", context.DeadlineExceeded, CodeDeadline, 504},
		{"ErrInvalidArgument", ErrInvalidArgument, CodeInvalid, 400},
		{"ErrPageUnavailable", ErrPageUnavailable, CodeUnavailable, 503},
		{"ErrAllPinned", ErrAllPinned, CodePoolExhausted, 503},
		{"ErrChecksum", ErrChecksum, CodeChecksum, 500},
		{"ErrInjectedFault", ErrInjectedFault, CodeIOFault, 500},
		{"ErrBadPage", ErrBadPage, CodeBadPage, 500},
		{"ErrNoWAL", ErrNoWAL, CodeNoWAL, 500},
		{"ErrWALCrash", ErrWALCrash, CodeWALCrash, 500},
		{"unknown", errors.New("boom"), CodeInternal, 500},
		// Wrapped forms classify like their sentinels.
		{"wrapped ChecksumError", &ChecksumError{Page: 3}, CodeChecksum, 500},
		{"fmt-wrapped invalid", fmt.Errorf("add: %w", ErrInvalidArgument), CodeInvalid, 400},
		{"deep-wrapped deadline", fmt.Errorf("query: %w", fmt.Errorf("fetch: %w", context.DeadlineExceeded)), CodeDeadline, 504},
		// A quarantined page whose root cause is corruption classifies by
		// the caller-visible condition (unavailable), not the cause.
		{"unavailable over checksum", &PageUnavailableError{Page: 7, Err: &store.ChecksumError{Page: 7}}, CodeUnavailable, 503},
	}
	for _, tc := range table {
		if got := ErrorCode(tc.err); got != tc.code {
			t.Errorf("ErrorCode(%s) = %q, want %q", tc.name, got, tc.code)
		}
		if got := ErrorCode(tc.err).HTTPStatus(); got != tc.http {
			t.Errorf("ErrorCode(%s).HTTPStatus() = %d, want %d", tc.name, got, tc.http)
		}
	}
}

// TestErrorCodeStrings pins the wire spelling of every code: these
// strings travel in JSON error responses and must never change.
func TestErrorCodeStrings(t *testing.T) {
	want := map[ErrCode]string{
		CodeOK:            "ok",
		CodeCanceled:      "canceled",
		CodeDeadline:      "deadline_exceeded",
		CodeInvalid:       "invalid_argument",
		CodeUnavailable:   "unavailable",
		CodeChecksum:      "checksum",
		CodeIOFault:       "io_fault",
		CodePoolExhausted: "pool_exhausted",
		CodeBadPage:       "bad_page",
		CodeNoWAL:         "no_wal",
		CodeWALCrash:      "wal_crash",
		CodeInternal:      "internal",
	}
	for code, s := range want {
		if string(code) != s {
			t.Errorf("code %q drifted from pinned spelling %q", code, s)
		}
	}
}
