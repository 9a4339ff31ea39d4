// Package client is the Go client for mctserved: a connection pool over
// the internal/wire protocol with health-checked checkout, per-call
// deadlines, and a DB facade mirroring colorful.DB's Query/Prepare API.
//
// Typed errors survive the network: a degraded server's write refusal
// arrives as an error satisfying errors.Is(err, colorful.ErrReadOnly), and a
// database closed underneath the server as one satisfying
// errors.Is(err, colorful.ErrClosed).
package client

import (
	"errors"
	"fmt"

	"colorfulxml/colorful"
	"colorfulxml/internal/wire"
)

// ErrClosed is reported by every operation on a closed DB or pool.
var ErrClosed = errors.New("client: closed")

// ErrDraining is reported when the server announced shutdown on the
// connection that carried the call. The request was NOT processed; callers
// that must not lose work should re-submit elsewhere, not on this pool:
// during a drain every pooled connection is about to die, and the dial for
// a fresh one would fail anyway.
var ErrDraining = errors.New("client: server is draining")

// errConnBroken marks a connection unusable after a transport fault; the
// pool destroys it instead of parking it.
var errConnBroken = errors.New("client: connection broken")

// ServerError is a typed failure the server sent back. Unwrap maps the
// wire code onto the matching colorful sentinel, so errors.Is works across
// the network.
type ServerError struct {
	Code wire.ErrCode
	Msg  string
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("client: server error (%s): %s", e.Code, e.Msg)
}

func (e *ServerError) Unwrap() error {
	switch e.Code {
	case wire.CodeReadOnly:
		return colorful.ErrReadOnly
	case wire.CodeFailed:
		return colorful.ErrFailed
	case wire.CodeSessionClosed:
		return colorful.ErrSessionClosed
	case wire.CodeClosed:
		return colorful.ErrClosed
	}
	return nil
}
