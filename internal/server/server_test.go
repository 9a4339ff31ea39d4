package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"colorfulxml/client"
	"colorfulxml/colorful"
	"colorfulxml/internal/experiment"
	"colorfulxml/internal/server"
	"colorfulxml/internal/vfs"
	"colorfulxml/internal/wire"
)

// startServer boots srv on an ephemeral loopback port and tears it down
// with the test. It returns the server and its dialable address.
func startServer(t testing.TB, db *colorful.DB, opts server.Options) (*server.Server, string) {
	t.Helper()
	srv := server.New(db, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// catalogQueries is the catalog read mix: a full scan, an equality lookup,
// and a cross-hierarchy navigation.
var catalogQueries = []string{
	`document("db")/{red}descendant::item/{red}child::name`,
	`document("db")/{red}descendant::item[{red}child::name = "Item 7"]/{red}child::name`,
	`for $i in document("db")/{green}descendant::item return $i/{green}child::votes`,
}

// startCatalog serves a fresh in-memory catalog store of the given scale.
func startCatalog(t testing.TB, scale int, opts server.Options) (*colorful.DB, *server.Server, string) {
	t.Helper()
	db, err := experiment.NewCatalogDB(scale)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	srv, addr := startServer(t, db, opts)
	return db, srv, addr
}

// TestServeSmoke drives every client-visible operation against a live
// server and cross-checks query results with the in-process engine.
func TestServeSmoke(t *testing.T) {
	db, srv, addr := startCatalog(t, 50, server.Options{})
	cdb, err := client.Open(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cdb.Close()

	ctx := context.Background()
	if err := cdb.Ping(ctx); err != nil {
		t.Fatalf("ping: %v", err)
	}

	for _, q := range catalogQueries {
		want, err := db.Query(q)
		if err != nil {
			t.Fatalf("in-process %q: %v", q, err)
		}
		got, err := cdb.Query(q)
		if err != nil {
			t.Fatalf("over wire %q: %v", q, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%q: wire returned %d items, in-process %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i].Value != want[i].Value || got[i].Color != string(want[i].Color) {
				t.Fatalf("%q item %d: wire %+v, in-process {%s %q}", q, i, got[i], want[i].Color, want[i].Value)
			}
		}
	}

	// Prepared path returns the same rows as one-shot.
	q := catalogQueries[0]
	st, err := cdb.Prepare(q)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	defer st.Close()
	oneShot, err := cdb.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := st.Query()
	if err != nil {
		t.Fatalf("prepared query: %v", err)
	}
	if len(prepared) != len(oneShot) {
		t.Fatalf("prepared returned %d items, one-shot %d", len(prepared), len(oneShot))
	}

	// Update over the wire mutates the served store.
	res, err := cdb.Update(`
for $i in document("db")/{red}descendant::item[{red}child::name = "Item 7"]
update $i { insert <flag>1</flag> }`)
	if err != nil {
		t.Fatalf("update over wire: %v", err)
	}
	if res.Tuples == 0 {
		t.Fatal("update matched no tuples")
	}
	hits, err := cdb.Query(`document("db")/{red}descendant::flag`)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatalf("inserted flag count = %d, want 1", len(hits))
	}

	h, err := cdb.Health(ctx)
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	if h.State != colorful.Healthy {
		t.Fatalf("health state = %v, want Healthy", h.State)
	}

	stats, err := cdb.ServerStats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	// The Stats request itself is mid-flight when the snapshot is taken, so
	// it is counted as read but not yet answered.
	if stats.Requests == 0 || stats.Responses != stats.Requests-1 {
		t.Fatalf("server stats requests=%d responses=%d, want responses = requests-1", stats.Requests, stats.Responses)
	}
	if stats.Draining {
		t.Fatal("server reports draining mid-test")
	}
	_ = srv
}

// TestLedgerAcrossConnections reads the server's request/response ledger
// from one connection while the others are mid-query. A response is counted
// once its write has returned, so the ledger runs behind by the Stats request
// that reads it and by at most one request on each other connection: a
// client can hold a response its handler has not counted yet.
func TestLedgerAcrossConnections(t *testing.T) {
	const conns, ops = 4, 40
	_, _, addr := startCatalog(t, 300, server.Options{})
	cs := make([]*client.Conn, conns)
	for i := range cs {
		c, err := client.Dial(addr, client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cs[i] = c
	}
	ctx := context.Background()
	// answered counts the requests whose responses a client has read.
	var answered atomic.Uint64
	check := func(when string) {
		t.Helper()
		before := answered.Load()
		st, err := cs[0].Stats(ctx)
		if err != nil {
			t.Fatalf("%s: stats: %v", when, err)
		}
		if st.Open != conns {
			t.Fatalf("%s: server has %d connections open, want %d", when, st.Open, conns)
		}
		if st.Requests <= before {
			t.Fatalf("%s: server read %d requests, clients had %d answered plus the Stats", when, st.Requests, before)
		}
		if gap := st.Requests - st.Responses; gap < 1 || gap > conns {
			t.Fatalf("%s: server answered %d of %d requests over %d connections", when, st.Responses, st.Requests, conns)
		}
	}

	var wg sync.WaitGroup
	errc := make(chan error, conns)
	for i, c := range cs[1:] {
		wg.Add(1)
		go func(i int, c *client.Conn) {
			defer wg.Done()
			for n := 0; n < ops; n++ {
				if _, err := c.Query(ctx, catalogQueries[(i+n)%len(catalogQueries)]); err != nil {
					errc <- err
					return
				}
				answered.Add(1)
			}
		}(i, c)
	}
	for n := 0; n < ops; n++ {
		if _, err := cs[0].Query(ctx, catalogQueries[n%len(catalogQueries)]); err != nil {
			t.Fatal(err)
		}
		answered.Add(1)
		check(fmt.Sprintf("under load, round %d", n))
		answered.Add(1) // the Stats request itself
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	check("after load")
}

// TestBigBatchSpansFrames forces a tiny server chunk size so a full scan
// streams across many Items frames, and checks nothing is lost or
// reordered at the seams.
func TestBigBatchSpansFrames(t *testing.T) {
	db, _, addr := startCatalog(t, 300, server.Options{ChunkItems: 7})
	cdb, err := client.Open(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cdb.Close()

	q := `document("db")/{red}descendant::item/{red}child::name`
	want, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 100 {
		t.Fatalf("scan too small to span frames: %d items", len(want))
	}
	got, err := cdb.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("wire scan returned %d items, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Value != want[i].Value {
			t.Fatalf("item %d = %q, want %q (chunk seam reorder?)", i, got[i].Value, want[i].Value)
		}
	}

	// A prepared execution streams the same frames, in the same order.
	st, err := cdb.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	prepared, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	if len(prepared) != len(want) {
		t.Fatalf("prepared stream returned %d items, want %d", len(prepared), len(want))
	}
	for i := range prepared {
		if prepared[i].Value != want[i].Value {
			t.Fatalf("prepared item %d = %q, want %q (chunk seam reorder?)", i, prepared[i].Value, want[i].Value)
		}
	}
}

// TestWarmStmtIsOneRequest: once a statement is prepared on the pooled
// connection, executing it costs the server exactly one request, however
// small its result, and an empty result is an empty slice, not nil.
func TestWarmStmtIsOneRequest(t *testing.T) {
	_, srv, addr := startCatalog(t, 50, server.Options{})
	cdb, err := client.OpenOptions(addr, client.Options{PoolSize: 1, IdlePingAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cdb.Close()

	point, err := cdb.Prepare(`document("db")/{red}descendant::item[{red}child::name = "Item 7"]/{red}child::name`)
	if err != nil {
		t.Fatal(err)
	}
	defer point.Close()
	before := srv.Stats().Requests
	got, err := point.Query()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Value != "Item 7" {
		t.Fatalf("point statement returned %+v, want one row \"Item 7\"", got)
	}
	if n := srv.Stats().Requests - before; n != 1 {
		t.Fatalf("a warm prepared execution cost %d requests, want 1", n)
	}

	none, err := cdb.Prepare(`document("db")/{red}descendant::item[{red}child::name = "no such item"]/{red}child::name`)
	if err != nil {
		t.Fatal(err)
	}
	defer none.Close()
	empty, err := none.Query()
	if err != nil {
		t.Fatal(err)
	}
	if empty == nil || len(empty) != 0 {
		t.Fatalf("empty prepared result = %#v, want a non-nil empty slice", empty)
	}
}

// TestClosedOverWire closes a served durable database underneath the server
// and checks a wire Update reports the typed colorful.ErrClosed.
func TestClosedOverWire(t *testing.T) {
	db, err := colorful.Open(filepath.Join(t.TempDir(), "db"), "red")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddElement(db.Document(), "movie", "red"); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, db, server.Options{})
	cdb, err := client.OpenOptions(addr, client.Options{IdlePingAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cdb.Close()

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = cdb.Update(`
for $m in document("db")/{red}descendant::movie
update $m { insert <late>1</late> }`)
	if !errors.Is(err, colorful.ErrClosed) {
		t.Fatalf("wire error = %v, want ErrClosed", err)
	}
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeClosed {
		t.Fatalf("wire error = %v, want ServerError{CodeClosed}", err)
	}
}

// TestStmtCapPerConn fills one connection's statement table and checks the
// next Prepare is refused with CodeBadRequest while the connection keeps
// serving, and that closing a statement makes room again.
func TestStmtCapPerConn(t *testing.T) {
	const limit = 1024
	_, srv, addr := startCatalog(t, 10, server.Options{})
	c := dialRaw(t, addr)
	q := `document("db")/{red}descendant::item[{red}child::name = "Item 7"]/{red}child::name`
	prepare := wire.Prepare{Src: q}.Encode()

	handles := make([]uint64, 0, limit)
	for len(handles) < limit {
		p, err := wire.DecodePrepared(c.ask(wire.TypePrepare, prepare, wire.TypePrepared))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, p.Stmt)
	}
	typ, rp := c.send(wire.TypePrepare, prepare)
	if typ != wire.TypeError {
		t.Fatalf("prepare %d: response %v, want Error", limit+1, typ)
	}
	em, err := wire.DecodeError(rp)
	if err != nil {
		t.Fatal(err)
	}
	if em.Code != wire.CodeBadRequest || !strings.Contains(em.Msg, fmt.Sprint(limit)) {
		t.Fatalf("prepare %d refused with %v %q, want bad-request naming %d", limit+1, em.Code, em.Msg, limit)
	}
	if n := srv.Stats().StmtsOpen; n != limit {
		t.Fatalf("after the refusal: stmts=%d, want %d", n, limit)
	}

	// The connection keeps serving what it holds.
	items, err := wire.DecodeItems(c.ask(wire.TypeExecute, wire.Execute{Stmt: handles[0]}.Encode(), wire.TypeItems))
	if err != nil {
		t.Fatal(err)
	}
	if len(items.Items) != 1 || items.Items[0].Value != "Item 7" {
		t.Fatalf("earlier handle executed to %+v, want one row \"Item 7\"", items.Items)
	}

	// One CloseStmt makes room for one Prepare.
	c.ask(wire.TypeCloseStmt, wire.CloseStmt{Stmt: handles[1]}.Encode(), wire.TypeAck)
	c.ask(wire.TypePrepare, prepare, wire.TypePrepared)
	if n := srv.Stats().StmtsOpen; n != limit {
		t.Fatalf("after close and re-prepare: stmts=%d, want %d", n, limit)
	}
}

// TestDegradedReadOnlyOverWire degrades a durable store with an injected
// disk outage and checks a wire Update is refused with a typed ErrReadOnly.
func TestDegradedReadOnlyOverWire(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	ffs := vfs.NewFaultFS(vfs.OS, 42)
	db, err := colorful.OpenOptions(dir, colorful.Options{
		FS: ffs,
		Retry: &vfs.RetryPolicy{
			MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond,
			Budget: time.Second, Seed: 7, Sleep: func(time.Duration) {},
		},
		ProbeInterval: time.Hour, // probe effectively disabled
	}, "red", "green")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.AddElement(db.Document(), "movie", "red"); err != nil {
		t.Fatal(err)
	}

	_, addr := startServer(t, db, server.Options{})
	cdb, err := client.Open(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cdb.Close()

	// Healthy first: the same update applies over the wire.
	if _, err := cdb.Update(`
for $m in document("db")/{red}descendant::movie
update $m { insert <ok>1</ok> }`); err != nil {
		t.Fatalf("update on healthy store: %v", err)
	}

	// Disk outage: every durability operation fails hard.
	ffs.SetStanding(vfs.Permanent(vfs.ErrIO))
	_, err = cdb.Update(`
for $m in document("db")/{red}descendant::movie
update $m { insert <late>1</late> }`)
	if err == nil {
		t.Fatal("update acknowledged over the wire during a disk outage")
	}
	if !errors.Is(err, colorful.ErrReadOnly) {
		t.Fatalf("wire error = %v, want ErrReadOnly", err)
	}

	// Reads keep serving, and Health reports the degraded state remotely.
	if _, err := cdb.Query(`document("db")/{red}descendant::movie`); err != nil {
		t.Fatalf("read during degraded mode: %v", err)
	}
	h, err := cdb.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.State != colorful.DegradedReadOnly {
		t.Fatalf("remote health = %v, want DegradedReadOnly", h.State)
	}
}

// TestDisconnectFreesHandles prepares a statement over raw wire frames,
// executes it, reads only the first of its Items frames and kills the
// socket mid-stream, then checks the server frees the session's statement
// and its registry slot.
func TestDisconnectFreesHandles(t *testing.T) {
	_, srv, addr := startCatalog(t, 300, server.Options{ChunkItems: 7})
	c := dialRaw(t, addr)

	q := `document("db")/{red}descendant::item/{red}child::name`
	prepared, err := wire.DecodePrepared(c.ask(wire.TypePrepare, wire.Prepare{Src: q}.Encode(), wire.TypePrepared))
	if err != nil {
		t.Fatal(err)
	}
	first, err := wire.DecodeItems(c.ask(wire.TypeExecute, wire.Execute{Stmt: prepared.Stmt}.Encode(), wire.TypeItems))
	if err != nil {
		t.Fatal(err)
	}
	if first.Rows != 300 || !first.More || len(first.Items) != 7 {
		t.Fatalf("first frame: rows=%d more=%v items=%d, want 7 of 300 with more to come", first.Rows, first.More, len(first.Items))
	}

	if st := srv.Stats(); st.StmtsOpen != 1 {
		t.Fatalf("before disconnect: stmts=%d, want 1", st.StmtsOpen)
	}
	c.nc.Close() // raw socket close mid-stream: no CloseStmt

	deadline := time.Now().Add(10 * time.Second)
	for {
		st := srv.Stats()
		if st.Open == 0 && st.StmtsOpen == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never freed handles: open=%d stmts=%d", st.Open, st.StmtsOpen)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// rawConn is a handshaken connection that speaks raw wire frames, for tests
// that need the protocol without the client package in between.
type rawConn struct {
	t  testing.TB
	nc net.Conn
	w  *wire.Writer
	r  *wire.Reader
}

// dialRaw connects to addr and completes the handshake; the connection
// closes with the test.
func dialRaw(t testing.TB, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	c := &rawConn{t: t, nc: nc, w: wire.NewWriter(nc), r: wire.NewReader(nc)}
	c.ask(wire.TypeHello, wire.Hello{Proto: wire.ProtoVersion, Client: "raw"}.Encode(), wire.TypeWelcome)
	return c
}

// send writes one request frame and returns the first response frame.
func (c *rawConn) send(typ wire.Type, payload []byte) (wire.Type, []byte) {
	c.t.Helper()
	if err := c.w.WriteFrame(typ, payload); err != nil {
		c.t.Fatal(err)
	}
	rtyp, rp, err := c.r.ReadFrame()
	if err != nil {
		c.t.Fatal(err)
	}
	return rtyp, rp
}

// ask is send that fails the test unless the response is a want frame, and
// returns its payload.
func (c *rawConn) ask(typ wire.Type, payload []byte, want wire.Type) []byte {
	c.t.Helper()
	rtyp, rp := c.send(typ, payload)
	if rtyp == wire.TypeError {
		em, _ := wire.DecodeError(rp)
		c.t.Fatalf("%v request failed: %v %s", typ, em.Code, em.Msg)
	}
	if rtyp != want {
		c.t.Fatalf("%v response = %v, want %v", typ, rtyp, want)
	}
	return rp
}

// TestGracefulDrainZeroDrop runs client load, shuts the server down in the
// middle of it, and verifies the drain invariant: every request the server
// read got its response (client- and server-side counts agree), and no
// connection was closed hard.
func TestGracefulDrainZeroDrop(t *testing.T) {
	db, err := experiment.NewCatalogDB(200)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := server.New(db, server.Options{DrainTimeout: 10 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	cdb, err := client.OpenOptions(ln.Addr().String(), client.Options{PoolSize: 4, IdlePingAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cdb.Close()

	const clients = 4
	q := `document("db")/{red}descendant::item/{red}child::name`
	var (
		succeeded atomic.Int64
		drained   atomic.Int64
		badErr    atomic.Value
		wg        sync.WaitGroup
	)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, err := cdb.Query(q)
				switch {
				case err == nil:
					succeeded.Add(1)
				case errors.Is(err, client.ErrDraining):
					drained.Add(1)
					return
				default:
					// After the listener closes, fresh dials are refused;
					// that is expected shutdown noise, not a drop.
					var ne net.Error
					if errors.As(err, &ne) || errors.Is(err, client.ErrClosed) {
						drained.Add(1)
						return
					}
					badErr.Store(err)
					return
				}
			}
		}()
	}

	// Let the load get going, then drain mid-flight.
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown forced connections closed: %v", err)
	}
	wg.Wait()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if v := badErr.Load(); v != nil {
		t.Fatalf("query dropped during drain: %v", v)
	}
	if succeeded.Load() == 0 {
		t.Fatal("no query succeeded before the drain")
	}

	st := srv.Stats()
	if st.Requests != st.Responses {
		t.Fatalf("drain dropped requests: read %d, answered %d", st.Requests, st.Responses)
	}
	if st.Open != 0 {
		t.Fatalf("connections still open after drain: %d", st.Open)
	}
}

// TestHandshakeRejectsBadClients speaks raw wire frames to check protocol
// policing: wrong first frame and wrong version both earn a typed Error.
func TestHandshakeRejectsBadClients(t *testing.T) {
	_, _, addr := startCatalog(t, 10, server.Options{})

	check := func(name string, typ wire.Type, payload []byte) {
		t.Helper()
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		nc.SetDeadline(time.Now().Add(5 * time.Second))
		w, r := wire.NewWriter(nc), wire.NewReader(nc)
		if err := w.WriteFrame(typ, payload); err != nil {
			t.Fatal(err)
		}
		rtyp, rp, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("%s: reading response: %v", name, err)
		}
		if rtyp != wire.TypeError {
			t.Fatalf("%s: response type = %v, want Error", name, rtyp)
		}
		em, err := wire.DecodeError(rp)
		if err != nil {
			t.Fatal(err)
		}
		if em.Code != wire.CodeProtocol {
			t.Fatalf("%s: code = %v, want CodeProtocol", name, em.Code)
		}
	}

	check("ping before hello", wire.TypePing, nil)
	check("version 1", wire.TypeHello, wire.Hello{Proto: 1, Client: "cursor era"}.Encode())
	check("future version", wire.TypeHello, wire.Hello{Proto: 99, Client: "time traveler"}.Encode())
}

// TestRowsOverWireMatchQuery: the server encodes each frame straight from a
// result's Rows, and what the client decodes is what Query returns in
// process — node id, colour and value, item for item, in order — on every
// route a value can take: the snapshot (a leaf output, here spanning five
// 7-item frames), core (a container and an attribute projection), the
// evaluator (order by) and a constructor, plus an empty result. One-shot and
// prepared executions stream the same frames.
func TestRowsOverWireMatchQuery(t *testing.T) {
	db, _, addr := startCatalog(t, 30, server.Options{ChunkItems: 7})
	items, err := db.Query(`document("db")/{red}descendant::item`)
	if err != nil || len(items) != 30 {
		t.Fatalf("%d items, %v", len(items), err)
	}
	for i, it := range items {
		if _, err := db.SetAttribute(it.Node, "id", fmt.Sprint("i", i)); err != nil {
			t.Fatal(err)
		}
	}
	cdb, err := client.OpenOptions(addr, client.Options{PoolSize: 1, IdlePingAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cdb.Close()
	sess := db.Session()
	defer sess.Close()

	for _, tc := range []struct {
		route, text string
		rows        int
	}{
		{"snapshot", `document("db")/{red}descendant::item/{red}child::name`, 30},
		{"core", `document("db")/{green}descendant::item`, 10},
		{"core", `for $i in document("db")/{red}descendant::item return $i/{red}attribute::id`, 30},
		{"evaluator", `for $i in document("db")/{green}descendant::item order by $i/{green}child::votes return $i/{green}child::votes`, 10},
		{"constructor", `for $i in document("db")/{green}descendant::item return createColor(black, <m>{ string($i/{red}child::name) }</m>)`, 10},
		{"snapshot", `document("db")/{red}descendant::item[{red}child::name = "no such item"]/{red}child::name`, 0},
	} {
		before := sess.Stats()
		want, err := sess.Query(tc.text)
		if err != nil {
			t.Fatalf("in process %s: %v", tc.text, err)
		}
		after := sess.Stats()
		switch tc.route {
		case "evaluator":
			if after.Fallbacks == before.Fallbacks {
				t.Fatalf("%s did not take the evaluator route", tc.text)
			}
		case "constructor":
			if after.Constructors == before.Constructors {
				t.Fatalf("%s did not take the constructor route", tc.text)
			}
		default:
			ex, err := db.Explain(tc.text)
			if err != nil || !strings.HasSuffix(ex, "values from "+tc.route+"\n") {
				t.Fatalf("%s does not read its values from %s: %v\n%s", tc.text, tc.route, err, ex)
			}
		}
		if len(want) != tc.rows {
			t.Fatalf("%s: %d rows in process, want %d", tc.text, len(want), tc.rows)
		}
		st, err := cdb.Prepare(tc.text)
		if err != nil {
			t.Fatal(err)
		}
		oneShot, err := cdb.Query(tc.text)
		if err != nil {
			t.Fatalf("over the wire %s: %v", tc.text, err)
		}
		prepared, err := st.Query()
		if err != nil {
			t.Fatalf("prepared over the wire %s: %v", tc.text, err)
		}
		st.Close()
		for how, got := range map[string][]client.Item{"one-shot": oneShot, "prepared": prepared} {
			if len(got) != len(want) {
				t.Fatalf("%s %s: %d items over the wire, %d in process", how, tc.text, len(got), len(want))
			}
			for i, w := range want {
				g := got[i]
				var node colorful.NodeID
				if w.Node != nil {
					node = w.Node.ID()
				}
				if tc.route == "constructor" {
					// Each run constructs its own nodes: same colour and value,
					// and an id the database knows.
					if g.Node == 0 || db.NodeByID(colorful.NodeID(g.Node)) == nil {
						t.Fatalf("%s %s item %d: constructed node %d is not in the database", how, tc.text, i, g.Node)
					}
					node = colorful.NodeID(g.Node)
				}
				if colorful.NodeID(g.Node) != node || g.Color != string(w.Color) || g.Value != w.Value {
					t.Fatalf("%s %s item %d: wire {%d %s %q}, in process {%d %s %q}", how, tc.text, i,
						g.Node, g.Color, g.Value, node, w.Color, w.Value)
				}
			}
		}
	}
}
