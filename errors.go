// Typed errors of the public API, consolidated in one place, plus the
// stable wire classification the serving tier maps onto HTTP status
// codes.
//
// Every sentinel and error type the facade can surface — from the
// storage layer, the durability layer, or the query engine — is
// declared (or re-exported) here and classified by ErrorCode. The code
// table is frozen by TestErrorCodeTable: codes are part of the wire
// protocol (api clients switch on them), so an existing error may never
// change its code, and a new error must extend the table and the test
// together.
package segdb

import (
	"context"
	"errors"

	"segdb/internal/store"
)

// Error types re-exported from internal/store so facade users can
// construct policies and match typed errors without reaching into
// internal packages.
type (
	// ChecksumError reports a page whose contents no longer match its
	// recorded CRC32; it matches ErrChecksum via errors.Is.
	ChecksumError = store.ChecksumError
	// FaultError reports an injected read/write/crash fault; it matches
	// ErrInjectedFault via errors.Is.
	FaultError = store.FaultError
	// PageUnavailableError reports a page skipped in degraded-read mode;
	// it matches ErrPageUnavailable via errors.Is.
	PageUnavailableError = store.PageUnavailableError
)

// Error sentinels surfaced by database operations, Load, CheckIntegrity,
// and the durability layer; match with errors.Is.
var (
	// ErrChecksum marks detected page corruption.
	ErrChecksum = store.ErrChecksum
	// ErrInjectedFault marks an error produced by a FaultPolicy.
	ErrInjectedFault = store.ErrInjectedFault
	// ErrAllPinned marks a buffer pool with no evictable frame.
	ErrAllPinned = store.ErrAllPinned
	// ErrBadPage marks an out-of-range page reference in a restored
	// image.
	ErrBadPage = store.ErrBadPage
	// ErrPageUnavailable marks a quarantined page skipped by a
	// degraded-mode query.
	ErrPageUnavailable = store.ErrPageUnavailable
	// ErrWALCrash marks operations against a MemWALFS after its
	// simulated power loss fired.
	ErrWALCrash = store.ErrWALCrash
	// ErrNoWAL is returned by Checkpoint and Scrub on a database opened
	// without a write-ahead log.
	ErrNoWAL = errors.New("segdb: database has no write-ahead log (open with WithWAL)")
	// ErrInvalidArgument marks a request the database rejected before
	// doing any work: coordinates outside the 16384x16384 world, a
	// malformed rectangle, a nonexistent segment ID.
	ErrInvalidArgument = errors.New("segdb: invalid argument")
)

// ErrCode is the stable wire classification of an error: a short
// lower_snake string carried in API error responses and mapped to an
// HTTP status by the serving tier. Codes are append-only — the mapping
// from error to code is pinned by a test and never changes for an
// existing error.
type ErrCode string

// The error code table. HTTPStatus defines the wire status each code
// travels as.
const (
	// CodeOK classifies a nil error.
	CodeOK ErrCode = "ok"
	// CodeCanceled classifies context.Canceled: the client went away.
	CodeCanceled ErrCode = "canceled"
	// CodeDeadline classifies context.DeadlineExceeded: the per-request
	// timeout expired and the query was aborted at page-fetch
	// granularity.
	CodeDeadline ErrCode = "deadline_exceeded"
	// CodeInvalid classifies ErrInvalidArgument: the request was
	// malformed and no work was done.
	CodeInvalid ErrCode = "invalid_argument"
	// CodeUnavailable classifies ErrPageUnavailable: a quarantined page
	// made (part of) the data temporarily unreadable.
	CodeUnavailable ErrCode = "unavailable"
	// CodeChecksum classifies ErrChecksum: detected page corruption.
	CodeChecksum ErrCode = "checksum"
	// CodeIOFault classifies ErrInjectedFault: a (simulated) device
	// fault that was not absorbed by the retry policy.
	CodeIOFault ErrCode = "io_fault"
	// CodePoolExhausted classifies ErrAllPinned: every buffer frame was
	// pinned, a transient overload condition.
	CodePoolExhausted ErrCode = "pool_exhausted"
	// CodeBadPage classifies ErrBadPage: an out-of-range page reference,
	// i.e. structural corruption.
	CodeBadPage ErrCode = "bad_page"
	// CodeNoWAL classifies ErrNoWAL: a durability operation on a
	// database opened without a log.
	CodeNoWAL ErrCode = "no_wal"
	// CodeWALCrash classifies ErrWALCrash: the crash-injection
	// filesystem fired (harnesses only).
	CodeWALCrash ErrCode = "wal_crash"
	// CodeInternal classifies every error the table does not name.
	CodeInternal ErrCode = "internal"
)

// ErrorCode classifies err into the stable code table. Wrapped errors
// are matched with errors.Is, outermost semantic first: a
// PageUnavailableError whose cause is a checksum failure classifies as
// CodeUnavailable (the caller-visible condition), not CodeChecksum.
// Unrecognized errors classify as CodeInternal.
func ErrorCode(err error) ErrCode {
	switch {
	case err == nil:
		return CodeOK
	case errors.Is(err, context.Canceled):
		return CodeCanceled
	case errors.Is(err, context.DeadlineExceeded):
		return CodeDeadline
	case errors.Is(err, ErrInvalidArgument):
		return CodeInvalid
	case errors.Is(err, ErrPageUnavailable):
		return CodeUnavailable
	case errors.Is(err, ErrChecksum):
		return CodeChecksum
	case errors.Is(err, ErrInjectedFault):
		return CodeIOFault
	case errors.Is(err, ErrAllPinned):
		return CodePoolExhausted
	case errors.Is(err, ErrBadPage):
		return CodeBadPage
	case errors.Is(err, ErrNoWAL):
		return CodeNoWAL
	case errors.Is(err, ErrWALCrash):
		return CodeWALCrash
	default:
		return CodeInternal
	}
}

// HTTPStatus returns the HTTP status code a response carrying this
// error code travels with. Client conditions map to 4xx (499 is the
// de-facto "client closed request" status), data-corruption and
// internal conditions to 5xx, and transient overload or quarantine to
// 503 so clients know a retry may succeed.
func (c ErrCode) HTTPStatus() int {
	switch c {
	case CodeOK:
		return 200
	case CodeInvalid:
		return 400
	case CodeCanceled:
		return 499
	case CodeDeadline:
		return 504
	case CodeUnavailable, CodePoolExhausted:
		return 503
	case CodeChecksum, CodeIOFault, CodeBadPage, CodeNoWAL, CodeWALCrash, CodeInternal:
		return 500
	}
	return 500
}
