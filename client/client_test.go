package client_test

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"colorfulxml/client"
	"colorfulxml/colorful"
	"colorfulxml/internal/wire"
)

// connHandler answers post-handshake frames for one fake connection.
type connHandler func(typ wire.Type, payload []byte, w *wire.Writer) error

// fakeServer is a minimal wire-speaking peer for exercising pool and error
// behavior without a real database. Each accepted connection gets its own
// handler instance, so per-connection scripting (fail twice, then drain) is
// just closure state.
type fakeServer struct {
	ln      net.Listener
	stopCh  chan struct{}
	wg      sync.WaitGroup
	newConn func() connHandler

	conns atomic.Int64
	pings atomic.Int64
}

func startFake(t *testing.T, newConn func() connHandler) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{ln: ln, stopCh: make(chan struct{}), newConn: newConn}
	fs.wg.Add(1)
	go fs.acceptLoop()
	t.Cleanup(func() {
		close(fs.stopCh)
		fs.ln.Close()
		fs.wg.Wait()
	})
	return fs
}

func (fs *fakeServer) addr() string { return fs.ln.Addr().String() }

func (fs *fakeServer) acceptLoop() {
	defer fs.wg.Done()
	for {
		select {
		case <-fs.stopCh:
			return
		default:
		}
		nc, err := fs.ln.Accept()
		if err != nil {
			return // listener closed by the cleanup
		}
		fs.conns.Add(1)
		fs.wg.Add(1)
		go fs.serveConn(nc)
	}
}

func (fs *fakeServer) serveConn(nc net.Conn) {
	defer fs.wg.Done()
	defer nc.Close()
	r, w := wire.NewReader(nc), wire.NewWriter(nc)

	typ, payload, err := r.ReadFrame()
	if err != nil || typ != wire.TypeHello {
		return
	}
	if _, err := wire.DecodeHello(payload); err != nil {
		return
	}
	if err := w.WriteFrame(wire.TypeWelcome, wire.Welcome{Proto: wire.ProtoVersion, Server: "fake"}.Encode()); err != nil {
		return
	}

	handle := fs.newConn()
	for {
		// A bounded read keeps this goroutine from outliving the test if a
		// client parks the connection; the stop channel owns real shutdown.
		select {
		case <-fs.stopCh:
			return
		default:
		}
		nc.SetReadDeadline(time.Now().Add(time.Second)) //nolint:errcheck // net.Conn deadlines do not fail
		typ, payload, err := r.ReadFrame()
		if err != nil {
			return
		}
		if typ == wire.TypePing {
			fs.pings.Add(1)
			if err := w.WriteFrame(wire.TypePong, nil); err != nil {
				return
			}
			continue
		}
		if err := handle(typ, payload, w); err != nil {
			return
		}
	}
}

// oneItem answers every Query with a single canned item.
func oneItem() connHandler {
	return func(typ wire.Type, payload []byte, w *wire.Writer) error {
		if typ != wire.TypeQuery {
			return w.WriteFrame(wire.TypeError, wire.ErrorMsg{Code: wire.CodeBadRequest, Msg: "fake server only answers Query"}.Encode())
		}
		items := wire.Items{Items: []wire.Item{{Node: 1, Color: "red", Value: "ok"}}}
		return w.WriteFrame(wire.TypeItems, items.Encode())
	}
}

func TestPoolReusesConnections(t *testing.T) {
	fs := startFake(t, oneItem)
	cdb, err := client.OpenOptions(fs.addr(), client.Options{PoolSize: 4, IdlePingAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cdb.Close()

	for i := 0; i < 10; i++ {
		items, err := cdb.Query("q")
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(items) != 1 || items[0].Value != "ok" {
			t.Fatalf("query %d returned %+v", i, items)
		}
	}
	// Sequential load keeps returning the same connection to the idle list:
	// one dial (made by OpenOptions' validation) serves everything.
	if n := fs.conns.Load(); n != 1 {
		t.Fatalf("sequential queries used %d connections, want 1", n)
	}
}

func TestPoolBlocksAtCapacity(t *testing.T) {
	fs := startFake(t, oneItem)
	cdb, err := client.OpenOptions(fs.addr(), client.Options{PoolSize: 1, IdlePingAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cdb.Close()
	pool := cdb.Pool()

	c1, err := pool.Get(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// The single slot is out: a bounded Get must time out, not dial.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := pool.Get(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Get at capacity: err = %v, want DeadlineExceeded", err)
	}

	c1.Release()
	c2, err := pool.Get(context.Background())
	if err != nil {
		t.Fatalf("Get after release: %v", err)
	}
	if c2 != c1 {
		t.Fatal("released connection was not the one handed back out")
	}
	c2.Release()
	if n := fs.conns.Load(); n != 1 {
		t.Fatalf("capacity-1 pool dialed %d connections, want 1", n)
	}
}

func TestReadOnlyIsNotRetried(t *testing.T) {
	var queries atomic.Int64
	fs := startFake(t, func() connHandler {
		return func(typ wire.Type, payload []byte, w *wire.Writer) error {
			queries.Add(1)
			return w.WriteFrame(wire.TypeError, wire.ErrorMsg{Code: wire.CodeReadOnly, Msg: "degraded"}.Encode())
		}
	})
	cdb, err := client.OpenOptions(fs.addr(), client.Options{IdlePingAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cdb.Close()

	_, err = cdb.Update("u")
	if !errors.Is(err, colorful.ErrReadOnly) {
		t.Fatalf("err = %v, want ErrReadOnly", err)
	}
	if n := queries.Load(); n != 1 {
		t.Fatalf("server saw %d attempts, want 1 (the client retries nothing)", n)
	}
}

func TestDrainNoticeBreaksConnection(t *testing.T) {
	fs := startFake(t, func() connHandler {
		served := 0
		base := oneItem()
		return func(typ wire.Type, payload []byte, w *wire.Writer) error {
			if typ == wire.TypeQuery && served == 0 {
				served++
				return base(typ, payload, w)
			}
			// Second request on this connection: refuse with a drain notice.
			w.WriteFrame(wire.TypeDrain, wire.Drain{Reason: "going away"}.Encode()) //nolint:errcheck // conn closes next
			return errors.New("draining")
		}
	})
	cdb, err := client.OpenOptions(fs.addr(), client.Options{IdlePingAfter: -1, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cdb.Close()

	// Pings are answered outside the handler, so the sequence on the single
	// pooled connection is deterministic: first query served, second refused
	// with a Drain notice.
	if _, err := cdb.Query("q"); err != nil {
		t.Fatalf("first query: %v", err)
	}
	_, err = cdb.Query("q")
	if !errors.Is(err, client.ErrDraining) {
		t.Fatalf("second query: err = %v, want ErrDraining", err)
	}
	// The drained connection must not be reused: the next call dials fresh
	// (a new handler instance) and succeeds.
	if _, err := cdb.Query("q"); err != nil {
		t.Fatalf("query after drain: %v", err)
	}
	if fs.conns.Load() != 2 {
		t.Fatalf("client made %d dials, want 2 (drained connection discarded)", fs.conns.Load())
	}
}

// TestErrorFrameEndsStream: a server that fails to read a value in the
// middle of a result ends the stream with an Error frame in place of the
// next Items frame. The client returns the typed error, and the connection
// stays in protocol: the next request on it succeeds.
func TestErrorFrameEndsStream(t *testing.T) {
	fs := startFake(t, func() connHandler {
		served := 0
		base := oneItem()
		return func(typ wire.Type, payload []byte, w *wire.Writer) error {
			if served++; served > 1 {
				return base(typ, payload, w)
			}
			first := wire.Items{Rows: 2, More: true, Items: []wire.Item{{Node: 1, Color: "red", Value: "ok"}}}
			if err := w.WriteFrame(wire.TypeItems, first.Encode()); err != nil {
				return err
			}
			return w.WriteFrame(wire.TypeError, wire.ErrorMsg{Code: wire.CodeQuery, Msg: "page read failed"}.Encode())
		}
	})
	cdb, err := client.OpenOptions(fs.addr(), client.Options{PoolSize: 1, IdlePingAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cdb.Close()

	items, err := cdb.Query("q")
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeQuery || items != nil {
		t.Fatalf("broken stream: %v, %v; want a CodeQuery ServerError and no items", items, err)
	}
	if items, err := cdb.Query("q"); err != nil || len(items) != 1 || items[0].Value != "ok" {
		t.Fatalf("next request: %v, %v", items, err)
	}
	if n := fs.conns.Load(); n != 1 {
		t.Fatalf("client dialed %d connections, want the one it kept", n)
	}
}

func TestIdleCheckoutPings(t *testing.T) {
	fs := startFake(t, oneItem)
	cdb, err := client.OpenOptions(fs.addr(), client.Options{PoolSize: 1, IdlePingAfter: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cdb.Close()

	if _, err := cdb.Query("q"); err != nil {
		t.Fatal(err)
	}
	before := fs.pings.Load()
	time.Sleep(30 * time.Millisecond)
	if _, err := cdb.Query("q"); err != nil {
		t.Fatal(err)
	}
	if fs.pings.Load() <= before {
		t.Fatal("checkout after idle period skipped the health ping")
	}
}

func TestClosedClientRefusesCalls(t *testing.T) {
	fs := startFake(t, oneItem)
	cdb, err := client.OpenOptions(fs.addr(), client.Options{IdlePingAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := cdb.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cdb.Query("q"); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("query on closed client: err = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	if err := cdb.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsDeadAddress(t *testing.T) {
	// A listener that is closed immediately: Open's validation dial fails
	// instead of returning a half-dead client.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := client.OpenOptions(addr, client.Options{DialTimeout: time.Second}); err == nil {
		t.Fatal("Open succeeded against a dead address")
	}
}
