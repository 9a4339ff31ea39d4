package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"colorfulxml/colorful"
	"colorfulxml/internal/obs"
	"colorfulxml/internal/wire"
)

// conn is one client connection. Everything except the atomic counter and
// wakeMu is owned by the handler goroutine; the session, statement table and
// payload buffer never cross goroutines.
type conn struct {
	s  *Server
	nc net.Conn
	r  *wire.Reader
	w  *wire.Writer

	sess     *colorful.Session
	stmts    map[uint64]*colorful.Stmt
	nextStmt uint64
	// payload is the Items frame being built, reused across frames and
	// requests.
	payload []byte

	stmtsOpen atomic.Int64

	// wakeMu serializes read-deadline updates between the handler (arming a
	// blocking read) and Shutdown (waking it with a past deadline), closing
	// the race where a wake lands between the drain check and the arm. Leaf
	// lock: nothing else is acquired while it is held.
	wakeMu sync.Mutex
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		s:     s,
		nc:    nc,
		r:     wire.NewReader(nc),
		w:     wire.NewWriter(nc),
		stmts: map[uint64]*colorful.Stmt{},
	}
}

// armRead prepares the next blocking read. Under wakeMu: if the server is
// already draining the deadline is set in the past, so the read returns
// immediately instead of blocking until the client's next frame.
func (c *conn) armRead(timeout time.Duration) {
	c.wakeMu.Lock()
	defer c.wakeMu.Unlock()
	switch {
	case c.s.draining.Load():
		c.nc.SetReadDeadline(time.Unix(1, 0))
	case timeout > 0:
		c.nc.SetReadDeadline(time.Now().Add(timeout))
	default:
		c.nc.SetReadDeadline(time.Time{})
	}
}

// wake unblocks the handler's pending read during Shutdown.
func (c *conn) wake() {
	c.wakeMu.Lock()
	defer c.wakeMu.Unlock()
	c.nc.SetReadDeadline(time.Unix(1, 0))
}

// run is the connection handler: handshake, then a strict request/response
// loop. The drain invariant lives here — once a request frame has been
// fully read, its response is always written before the connection closes.
func (c *conn) run() {
	defer c.nc.Close()
	c.sess = c.s.db.Session()
	defer c.sess.Close()
	defer func() {
		obsStmtsOpen.Add(-c.stmtsOpen.Load())
		c.stmtsOpen.Store(0)
	}()

	if err := c.handshake(); err != nil {
		obsHandshakeFailures.Inc()
		c.s.logf("%s: handshake failed: %v", c.nc.RemoteAddr(), err)
		return
	}

	for {
		c.armRead(0)
		typ, payload, err := c.r.ReadFrame()
		if err != nil {
			if isDeadlineErr(err) && c.s.draining.Load() {
				c.sendDrain("server shutting down")
			} else if !errors.Is(err, io.EOF) {
				c.s.logf("%s: read: %v", c.nc.RemoteAddr(), err)
			}
			return
		}
		c.s.requests.Add(1)
		obsRequests.Inc()
		if err := c.handle(typ, payload); err != nil {
			c.s.logf("%s: write: %v", c.nc.RemoteAddr(), err)
			return
		}
		c.s.responses.Add(1)
		obsResponses.Inc()
		if c.s.draining.Load() {
			c.sendDrain("server shutting down")
			return
		}
	}
}

// handshake expects Hello as the very first frame and answers Welcome.
func (c *conn) handshake() error {
	c.armRead(defaultHandshakeTimeout)
	typ, payload, err := c.r.ReadFrame()
	if err != nil {
		return err
	}
	if typ != wire.TypeHello {
		c.writeError(wire.CodeProtocol, fmt.Sprintf("first frame must be Hello, got %v", typ))
		return fmt.Errorf("first frame %v", typ)
	}
	hello, err := wire.DecodeHello(payload)
	if err != nil {
		c.writeError(wire.CodeProtocol, err.Error())
		return err
	}
	if hello.Proto != wire.ProtoVersion {
		c.writeError(wire.CodeProtocol, fmt.Sprintf("protocol version %d not supported (server speaks %d)", hello.Proto, wire.ProtoVersion))
		return fmt.Errorf("protocol version %d", hello.Proto)
	}
	return c.w.WriteFrame(wire.TypeWelcome, wire.Welcome{Proto: wire.ProtoVersion, Server: c.s.opts.Name}.Encode())
}

// sendDrain tells the client no further requests will be read, half-closes
// the write side so everything already written is delivered, and briefly
// drains the read side so closing the socket cannot reset undelivered
// responses.
func (c *conn) sendDrain(reason string) {
	if err := c.w.WriteFrame(wire.TypeDrain, wire.Drain{Reason: reason}.Encode()); err != nil {
		return
	}
	if tc, ok := c.nc.(*net.TCPConn); ok {
		tc.CloseWrite() //nolint:errcheck // best effort: the conn closes right after
		c.nc.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		io.Copy(io.Discard, c.nc) //nolint:errcheck // discarding until EOF or deadline
	}
}

// handle dispatches one request and writes its complete response. The
// returned error is transport-level only; request failures become Error
// frames and return nil.
func (c *conn) handle(typ wire.Type, payload []byte) error {
	sw := obs.Start()
	var err error
	switch typ {
	case wire.TypeQuery:
		err = c.handleQuery(payload)
		obsQueryNanos.Observe(sw.ElapsedNanos())
	case wire.TypePrepare:
		err = c.handlePrepare(payload)
		obsPrepareNanos.Observe(sw.ElapsedNanos())
	case wire.TypeExecute:
		err = c.handleExecute(payload)
		obsExecuteNanos.Observe(sw.ElapsedNanos())
	case wire.TypeCloseStmt:
		err = c.handleCloseStmt(payload)
	case wire.TypeUpdate:
		err = c.handleUpdate(payload)
		obsUpdateNanos.Observe(sw.ElapsedNanos())
	case wire.TypePing:
		err = c.w.WriteFrame(wire.TypePong, nil)
		obsPingNanos.Observe(sw.ElapsedNanos())
	case wire.TypeHealth:
		err = c.handleHealth()
		obsHealthNanos.Observe(sw.ElapsedNanos())
	case wire.TypeStats:
		err = c.handleStats()
		obsStatsNanos.Observe(sw.ElapsedNanos())
	default:
		err = c.writeError(wire.CodeBadRequest, fmt.Sprintf("unexpected frame type %v", typ))
	}
	return err
}

// writeError answers the current request with a typed Error frame.
func (c *conn) writeError(code wire.ErrCode, msg string) error {
	c.s.errorResp.Add(1)
	obsErrorResponses.Inc()
	return c.w.WriteFrame(wire.TypeError, wire.ErrorMsg{Code: code, Msg: msg}.Encode())
}

// errCode classifies an execution error for the wire, so the typed
// sentinels survive the network.
func errCode(err error) wire.ErrCode {
	switch {
	case errors.Is(err, colorful.ErrReadOnly) || errors.Is(err, colorful.ErrDegraded):
		return wire.CodeReadOnly
	case errors.Is(err, colorful.ErrFailed):
		return wire.CodeFailed
	case errors.Is(err, colorful.ErrSessionClosed):
		return wire.CodeSessionClosed
	case errors.Is(err, colorful.ErrClosed):
		return wire.CodeClosed
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return wire.CodeCanceled
	default:
		return wire.CodeQuery
	}
}

// reqCtx derives the request context from the deadline budget the client
// sent. Zero means no deadline.
func reqCtx(deadlineMillis uint64) (context.Context, context.CancelFunc) {
	if deadlineMillis == 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), time.Duration(deadlineMillis)*time.Millisecond)
}

// maxKeptPayload bounds the payload buffer a connection keeps between
// requests, so one large result does not pin its frame for the connection's
// lifetime.
const maxKeptPayload = 64 << 10

// writeItemsStream answers a Query or Execute: rows in Items frames of at
// most ChunkItems each, the last with More == false. Each frame is encoded
// straight from the result — ids, colours and the values' stored bytes —
// into the connection's payload buffer; no Item or value string is built. A
// value that cannot be read ends the stream with an Error frame in place of
// the frame it belonged to.
func (c *conn) writeItemsStream(rows colorful.Rows) error {
	defer func() {
		if cap(c.payload) > maxKeptPayload {
			c.payload = nil
		}
	}()
	n := rows.Len()
	appendItem := func(node colorful.NodeID, color colorful.Color, value []byte) {
		c.payload = wire.AppendItem(c.payload, uint64(node), string(color), value)
	}
	for off := 0; ; {
		end := min(off+c.s.opts.ChunkItems, n)
		more := end < n
		c.payload = wire.AppendItemsHeader(c.payload[:0], uint64(n), more, end-off)
		if err := rows.Each(off, end, appendItem); err != nil {
			return c.writeError(errCode(err), err.Error())
		}
		if err := c.w.WriteFrame(wire.TypeItems, c.payload); err != nil {
			return err
		}
		if !more {
			return nil
		}
		off = end
	}
}

func (c *conn) handleQuery(payload []byte) error {
	q, err := wire.DecodeQuery(payload)
	if err != nil {
		return c.writeError(wire.CodeBadRequest, err.Error())
	}
	ctx, cancel := reqCtx(q.DeadlineMillis)
	defer cancel()
	rows, err := c.sess.QueryRows(ctx, q.Src)
	if err != nil {
		return c.writeError(errCode(err), err.Error())
	}
	return c.writeItemsStream(rows)
}

// maxStmtsPerConn bounds the statements one connection may hold open, so a
// client cannot grow the server's statement table without limit. Requests
// already run one at a time per connection; with this cap, what a
// connection holds is bounded too.
const maxStmtsPerConn = 1024

func (c *conn) handlePrepare(payload []byte) error {
	p, err := wire.DecodePrepare(payload)
	if err != nil {
		return c.writeError(wire.CodeBadRequest, err.Error())
	}
	if len(c.stmts) >= maxStmtsPerConn {
		return c.writeError(wire.CodeBadRequest, fmt.Sprintf("connection holds %d statements, the limit; close one first", maxStmtsPerConn))
	}
	st, err := c.sess.Prepare(p.Src)
	if err != nil {
		return c.writeError(errCode(err), err.Error())
	}
	c.nextStmt++
	c.stmts[c.nextStmt] = st
	c.stmtsOpen.Add(1)
	obsStmtsOpen.Add(1)
	return c.w.WriteFrame(wire.TypePrepared, wire.Prepared{Stmt: c.nextStmt}.Encode())
}

func (c *conn) handleExecute(payload []byte) error {
	e, err := wire.DecodeExecute(payload)
	if err != nil {
		return c.writeError(wire.CodeBadRequest, err.Error())
	}
	st, ok := c.stmts[e.Stmt]
	if !ok {
		return c.writeError(wire.CodeUnknownHandle, fmt.Sprintf("unknown statement handle %d", e.Stmt))
	}
	ctx, cancel := reqCtx(e.DeadlineMillis)
	defer cancel()
	rows, err := st.QueryRows(ctx)
	if err != nil {
		return c.writeError(errCode(err), err.Error())
	}
	return c.writeItemsStream(rows)
}

func (c *conn) handleCloseStmt(payload []byte) error {
	cs, err := wire.DecodeCloseStmt(payload)
	if err != nil {
		return c.writeError(wire.CodeBadRequest, err.Error())
	}
	st, ok := c.stmts[cs.Stmt]
	if !ok {
		return c.writeError(wire.CodeUnknownHandle, fmt.Sprintf("unknown statement handle %d", cs.Stmt))
	}
	st.Close()
	delete(c.stmts, cs.Stmt)
	c.stmtsOpen.Add(-1)
	obsStmtsOpen.Add(-1)
	return c.w.WriteFrame(wire.TypeAck, nil)
}

func (c *conn) handleUpdate(payload []byte) error {
	u, err := wire.DecodeUpdate(payload)
	if err != nil {
		return c.writeError(wire.CodeBadRequest, err.Error())
	}
	res, err := c.s.db.Update(u.Src)
	if err != nil {
		return c.writeError(errCode(err), err.Error())
	}
	return c.w.WriteFrame(wire.TypeUpdated, wire.Updated{Tuples: uint64(res.Tuples), NodesTouched: uint64(res.NodesTouched)}.Encode())
}

func (c *conn) handleHealth() error {
	info := c.s.db.HealthInfo()
	msg := wire.HealthInfo{State: uint8(info.State), Cause: info.Cause, Degrades: info.Degrades, Heals: info.Heals}
	return c.w.WriteFrame(wire.TypeHealthInfo, msg.Encode())
}

func (c *conn) handleStats() error {
	st := c.s.Stats()
	msg := wire.StatsInfo{
		Connections: st.Connections,
		Open:        uint64(st.Open),
		Requests:    st.Requests,
		Responses:   st.Responses,
		Errors:      st.Errors,
		StmtsOpen:   uint64(st.StmtsOpen),
		Draining:    st.Draining,
	}
	return c.w.WriteFrame(wire.TypeStatsInfo, msg.Encode())
}
