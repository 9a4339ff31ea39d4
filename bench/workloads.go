package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"colorfulxml/client"
	"colorfulxml/colorful"
	"colorfulxml/internal/server"
	"colorfulxml/internal/vfs"
)

// spec is one workload. An op is one pass over a fixed sequence of calls,
// so every op of a workload does the same work and its latency
// distribution has one mode.
type spec struct {
	name    string
	items   int
	clients int // closed-loop clients, each with its own connection
	warmOps int // untimed ops per client before the timed region
	// spansPerOp sizes the traced run's span buffer: the op's own span plus
	// one per call.
	spansPerOp int
	setup      func(sp spec, cfg config) (*instance, error)
}

var specs = []spec{
	{name: "net-point", items: 20000, clients: 2, warmOps: 8000, spansPerOp: 3, setup: setupNetPoint},
	{name: "embed-scan", items: 20000, clients: 1, warmOps: 20, spansPerOp: 6, setup: setupEmbedScan},
	{name: "net-mixed", items: 5000, clients: 2, warmOps: 40, spansPerOp: 9, setup: setupNetMixed},
	{name: "embed-write", items: 1500, clients: 1, warmOps: 100, spansPerOp: 5, setup: setupEmbedWrite},
}

// smoke shrinks a workload so that the manifest test can run all of them in
// a few seconds; the numbers it prints mean nothing.
func (sp spec) smoke() spec {
	sp.items /= 20
	sp.warmOps = max(tagLag+1, sp.warmOps/50)
	return sp
}

// schedLen is the length of every pre-rendered schedule; op i uses slot
// i mod schedLen. It is long enough that the 10 % uniform point keys of one
// cycle overflow the 256-entry plan cache, so they miss on every cycle.
const schedLen = 8192

// instance is one set-up workload: a populated database plus whatever
// serves and calls it.
type instance struct {
	db *colorful.DB
	// op runs op i of client c under the span parent and checks every
	// result; any error or wrong answer fails the op.
	op func(c, i int, tr *tracer, parent int32) error
	// verify checks the database against the schedule's model once client c
	// has completed done[c] ops. It may reopen the database.
	verify func(done []int) error
	// stop ends serving (clients, server); the database stays open.
	stop func() error
	// closeDB closes the database and removes what it left on disk.
	closeDB func() error
	// device times the fsyncs of a durable database; nil when there is none.
	device *syncTimer

	userBytesPerOp float64 // bytes of user data the updates of one op write
	updatesPerOp   int
	populateS      float64
	recoverMs      float64
	recoverRecords int
}

func noop() error { return nil }

// deviceWait is the time the workload has spent inside fsync so far. Only a
// single-client workload may have a device: the closed loop charges the wait
// to the op that was running.
func (inst *instance) deviceWait() time.Duration {
	if inst.device == nil {
		return 0
	}
	return time.Duration(inst.device.wait.Load())
}

// --- result checks -----------------------------------------------------------

func wantOne(n int, value, want string, err error) error {
	if err != nil {
		return err
	}
	if n != 1 || value != want {
		return fmt.Errorf("got %d rows (first %q), want 1 row %q", n, value, want)
	}
	return nil
}

func embeddedOne(items []colorful.Item, err error, want string) error {
	v := ""
	if len(items) > 0 {
		v = items[0].Value
	}
	return wantOne(len(items), v, want, err)
}

func wireOne(items []client.Item, err error, want string) error {
	v := ""
	if len(items) > 0 {
		v = items[0].Value
	}
	return wantOne(len(items), v, want, err)
}

func wantRows(n int, err error, want int) error {
	if err != nil {
		return err
	}
	if n != want {
		return fmt.Errorf("got %d rows, want %d", n, want)
	}
	return nil
}

func wantUpdated(tuples, touched int, err error) error {
	if err != nil {
		return err
	}
	if tuples != 1 || touched != 1 {
		return fmt.Errorf("update matched %d tuples and touched %d nodes, want 1 and 1", tuples, touched)
	}
	return nil
}

// row is a result item in the form both routes can produce.
type row struct {
	node  uint64
	color string
	value string
}

func embeddedRows(items []colorful.Item) []row {
	out := make([]row, len(items))
	for i, it := range items {
		out[i] = row{color: string(it.Color), value: it.Value}
		if it.Node != nil {
			out[i].node = uint64(it.Node.ID())
		}
	}
	return out
}

func values(items []colorful.Item) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = it.Value
	}
	return out
}

// checkClasses runs every read class in-process, checks its cardinality
// against the generator, and — when a wire route is given — requires the
// wire to return the identical item list.
func checkClasses(items int, db *colorful.DB, wire *client.DB) error {
	texts := classTexts(items)
	k := 3 * (items / 6)
	wantN := map[string]int{
		"point": 1, "pathscan": items, "predjoin": 1, "flwor": featuredCount(items),
		"crosscolor": crosscolorCount(items, 7), "hop": 1,
	}
	wantFirst := map[string]string{"point": itemName(k), "predjoin": itemName(k), "hop": strconv.Itoa(k % 50)}
	for _, class := range classNames {
		got, err := db.Query(texts[class])
		if err != nil {
			return fmt.Errorf("%s: %w", class, err)
		}
		if len(got) != wantN[class] {
			return fmt.Errorf("%s: %d rows, want %d", class, len(got), wantN[class])
		}
		if w, ok := wantFirst[class]; ok && got[0].Value != w {
			return fmt.Errorf("%s: got %q, want %q", class, got[0].Value, w)
		}
		if wire == nil {
			continue
		}
		remote, err := wire.Query(texts[class])
		if err != nil {
			return fmt.Errorf("%s over the wire: %w", class, err)
		}
		local := embeddedRows(got)
		if len(remote) != len(local) {
			return fmt.Errorf("%s: wire returned %d rows, in-process %d", class, len(remote), len(local))
		}
		for i, r := range remote {
			if (row{r.Node, r.Color, r.Value}) != local[i] {
				return fmt.Errorf("%s: row %d differs: wire %+v, in-process %+v", class, i, r, local[i])
			}
		}
	}
	return nil
}

// --- serving -----------------------------------------------------------------

// served is an in-process internal/server on a loopback listener: a real
// TCP socket and the full wire path.
type served struct {
	srv  *server.Server
	addr string
	done chan error
}

func serve(db *colorful.DB) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{srv: server.New(db, server.Options{Name: "bench"}), addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *served) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; err == nil {
		err = serr
	}
	return err
}

func dial(addr string) (*client.DB, error) {
	return client.OpenOptions(addr, client.Options{PoolSize: 1, ClientName: "bench"})
}

func newCatalog(items int) (*colorful.DB, float64, error) {
	t0 := time.Now()
	db := colorful.New("red", "green")
	if err := populate(db, items); err != nil {
		return nil, 0, err
	}
	populateS := time.Since(t0).Seconds()
	return db, populateS, db.Refresh()
}

// --- net-point ---------------------------------------------------------------

// setupNetPoint: op = one one-shot point query plus one prepared point
// statement. The result is one item from an index probe, so client, wire,
// server, session kernel and plan cache do nearly all the work.
func setupNetPoint(sp spec, cfg config) (*instance, error) {
	db, populateS, err := newCatalog(sp.items)
	if err != nil {
		return nil, err
	}
	srv, err := serve(db)
	if err != nil {
		return nil, err
	}
	type conn struct {
		cdb      *client.DB
		sched    []call
		stmts    []*client.Stmt
		stmtWant []string
	}
	conns := make([]*conn, sp.clients)
	for c := range conns {
		cn := &conn{}
		if cn.cdb, err = dial(srv.addr); err != nil {
			return nil, err
		}
		var hot []int
		cn.sched, hot = pointSchedule(rand.New(rand.NewSource(cfg.seed*int64(sp.clients)+int64(c))), sp.items, schedLen)
		for j := 0; j < min(stmtKeys, len(hot)); j++ {
			st, err := cn.cdb.Prepare(qPoint(hot[j]))
			if err != nil {
				return nil, err
			}
			cn.stmts = append(cn.stmts, st)
			cn.stmtWant = append(cn.stmtWant, itemName(hot[j]))
		}
		conns[c] = cn
	}
	if err := checkClasses(sp.items, db, conns[0].cdb); err != nil {
		return nil, err
	}
	return &instance{
		db: db, populateS: populateS,
		op: func(c, i int, tr *tracer, parent int32) error {
			cn := conns[c]
			call := &cn.sched[i%len(cn.sched)]
			s := tr.begin("client.query", parent, int64(i))
			got, err := cn.cdb.Query(call.text)
			tr.end(s)
			if err := wireOne(got, err, call.want); err != nil {
				return fmt.Errorf("point: %w", err)
			}
			j := i % len(cn.stmts)
			s = tr.begin("client.stmt", parent, int64(i))
			got, err = cn.stmts[j].Query()
			tr.end(s)
			if err := wireOne(got, err, cn.stmtWant[j]); err != nil {
				return fmt.Errorf("prepared point: %w", err)
			}
			return nil
		},
		verify: func([]int) error { return nil },
		stop: func() error {
			for _, cn := range conns {
				cn.cdb.Close()
			}
			return srv.stop()
		},
		closeDB: db.Close,
	}, nil
}

// --- embed-scan --------------------------------------------------------------

// setupEmbedScan: one session, no network; op = one pass over five prepared
// scan-heavy statements. Engine, join, storage, pagestore and result
// mapping do nearly all the work.
func setupEmbedScan(sp spec, cfg config) (*instance, error) {
	db, populateS, err := newCatalog(sp.items)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	k := 3 * rng.Intn(featuredCount(sp.items))
	v := rng.Intn(50)
	sess := db.Session()
	type prepared struct {
		class string
		span  string
		st    *colorful.Stmt
		rows  int
		want  string // expected single value when rows == 1
	}
	plan := []prepared{
		{class: "pathscan", rows: sp.items},
		{class: "predjoin", rows: 1, want: itemName(k)},
		{class: "flwor", rows: featuredCount(sp.items)},
		{class: "crosscolor", rows: crosscolorCount(sp.items, v)},
		{class: "hop", rows: 1, want: strconv.Itoa(k % 50)},
	}
	texts := map[string]string{"pathscan": qPathscan, "predjoin": qPredjoin(k), "flwor": qFlwor, "crosscolor": qCrosscolor(v), "hop": qHop(k)}
	for i := range plan {
		plan[i].span = "colorful.stmt." + plan[i].class
		if plan[i].st, err = sess.Prepare(texts[plan[i].class]); err != nil {
			return nil, err
		}
	}
	if err := checkClasses(sp.items, db, nil); err != nil {
		return nil, err
	}
	return &instance{
		db: db, populateS: populateS,
		op: func(_, i int, tr *tracer, parent int32) error {
			for _, p := range plan {
				s := tr.begin(p.span, parent, int64(i))
				got, err := p.st.Query()
				tr.end(s)
				if p.want != "" {
					err = embeddedOne(got, err, p.want)
				} else {
					err = wantRows(len(got), err, p.rows)
				}
				if err != nil {
					return fmt.Errorf("%s: %w", p.class, err)
				}
			}
			return nil
		},
		verify:  func([]int) error { return nil },
		stop:    sess.Close,
		closeDB: db.Close,
	}, nil
}

// --- net-mixed ---------------------------------------------------------------

// pointsPerMixedOp is the number of one-shot point queries in a net-mixed op.
const pointsPerMixedOp = 4

// setupNetMixed: two connections, each closed-loop; op = 4 one-shot point
// queries, prepared predjoin, flwor and crosscolor, and one vote update.
// Every op commits, so reads pay snapshot clone/apply/publish, a cold page
// pool after each publish, and evaluator fallbacks while a refresh runs.
//
// Votes only touch items whose generated votes are ≥ 25 and write values
// ≥ 50, while crosscolor only asks for values < 25, so every read keeps a
// cardinality the generator can state; the two connections vote on
// disjoint items, so the final census does not depend on their interleaving.
func setupNetMixed(sp spec, cfg config) (*instance, error) {
	db, populateS, err := newCatalog(sp.items)
	if err != nil {
		return nil, err
	}
	srv, err := serve(db)
	if err != nil {
		return nil, err
	}
	type conn struct {
		cdb                     *client.DB
		points                  []call
		votes                   []voteStep
		predjoin, flwor, cross  *client.Stmt
		predjoinWant            string
		crossRows, featuredRows int
	}
	conns := make([]*conn, sp.clients)
	voteScheds := make([][]voteStep, sp.clients)
	for c := range conns {
		rng := rand.New(rand.NewSource(cfg.seed*int64(sp.clients) + int64(c)))
		cn := &conn{featuredRows: featuredCount(sp.items)}
		if cn.cdb, err = dial(srv.addr); err != nil {
			return nil, err
		}
		cn.points, _ = pointSchedule(rng, sp.items, pointsPerMixedOp*schedLen)
		cn.votes = voteSchedule(rng, sp.items, schedLen, func(k int) bool {
			return k%50 >= 25 && (k/3)%sp.clients == c
		})
		voteScheds[c] = cn.votes
		k, v := rng.Intn(sp.items), rng.Intn(25)
		cn.predjoinWant, cn.crossRows = itemName(k), crosscolorCount(sp.items, v)
		if cn.predjoin, err = cn.cdb.Prepare(qPredjoin(k)); err != nil {
			return nil, err
		}
		if cn.flwor, err = cn.cdb.Prepare(qFlwor); err != nil {
			return nil, err
		}
		if cn.cross, err = cn.cdb.Prepare(qCrosscolor(v)); err != nil {
			return nil, err
		}
		conns[c] = cn
	}
	if err := checkClasses(sp.items, db, conns[0].cdb); err != nil {
		return nil, err
	}
	return &instance{
		db: db, populateS: populateS, updatesPerOp: 1, userBytesPerOp: 2,
		op: func(c, i int, tr *tracer, parent int32) error {
			cn := conns[c]
			slot := i % schedLen
			for _, call := range cn.points[pointsPerMixedOp*slot : pointsPerMixedOp*(slot+1)] {
				s := tr.begin("client.query", parent, int64(i))
				got, err := cn.cdb.Query(call.text)
				tr.end(s)
				if err := wireOne(got, err, call.want); err != nil {
					return fmt.Errorf("point: %w", err)
				}
			}
			s := tr.begin("client.stmt.predjoin", parent, int64(i))
			got, err := cn.predjoin.Query()
			tr.end(s)
			if err := wireOne(got, err, cn.predjoinWant); err != nil {
				return fmt.Errorf("predjoin: %w", err)
			}
			s = tr.begin("client.stmt.flwor", parent, int64(i))
			got, err = cn.flwor.Query()
			tr.end(s)
			if err := wantRows(len(got), err, cn.featuredRows); err != nil {
				return fmt.Errorf("flwor: %w", err)
			}
			s = tr.begin("client.stmt.crosscolor", parent, int64(i))
			got, err = cn.cross.Query()
			tr.end(s)
			if err := wantRows(len(got), err, cn.crossRows); err != nil {
				return fmt.Errorf("crosscolor: %w", err)
			}
			s = tr.begin("client.update", parent, int64(i))
			res, err := cn.cdb.Update(cn.votes[slot].text)
			tr.end(s)
			if err := wantUpdated(res.Tuples, res.NodesTouched, err); err != nil {
				return fmt.Errorf("vote: %w", err)
			}
			return nil
		},
		verify: func(done []int) error {
			if err := db.Validate(); err != nil {
				return err
			}
			return checkVotes(embeddedQuery(db), votesModel(sp.items, voteScheds, done))
		},
		stop: func() error {
			for _, cn := range conns {
				cn.cdb.Close()
			}
			return srv.stop()
		},
		closeDB: db.Close,
	}, nil
}

func embeddedQuery(db *colorful.DB) func(string) ([]string, error) {
	return func(text string) ([]string, error) {
		items, err := db.Query(text)
		return values(items), err
	}
}

// --- embed-write -------------------------------------------------------------

// syncTimer is the real file system with a clock around every fsync. The
// sandbox's shared disk takes between 0.15 and 2.6 ms for the same fsync,
// for minutes at a time; what the program does between two fsyncs is what a
// change to it can move, so the time metrics leave the wait out and the
// traced run reports it (vfs.sync_wait_us, wal.fsyncs_per_update).
type syncTimer struct {
	vfs.FS
	wait atomic.Int64 // ns inside File.Sync and SyncDir
}

func (t *syncTimer) timed(sync func() error) error {
	t0 := time.Now()
	err := sync()
	t.wait.Add(int64(time.Since(t0)))
	return err
}

func (t *syncTimer) Create(name string) (vfs.File, error) {
	f, err := t.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return timedFile{f, t}, nil
}

func (t *syncTimer) SyncDir(dir string) error {
	return t.timed(func() error { return t.FS.SyncDir(dir) })
}

type timedFile struct {
	vfs.File
	t *syncTimer
}

func (f timedFile) Sync() error { return f.t.timed(f.File.Sync) }

// setupEmbedWrite: a durable database in a fresh directory, populated
// through the facade mutators (every statement a WAL commit), closed and
// reopened, so set-up time is dominated by recovery replay; op = vote +
// tag-add + tag-del + one read-your-write content probe. Core mutation,
// change log, WAL append+fsync and clone/apply/publish dominate.
func setupEmbedWrite(sp spec, cfg config) (*instance, error) {
	dir, err := os.MkdirTemp(cfg.dir, "embed-write-")
	if err != nil {
		return nil, err
	}
	device := &syncTimer{FS: vfs.OS}
	open := func() (*colorful.DB, error) {
		return colorful.OpenOptions(dir, colorful.Options{FS: device}, "red", "green")
	}
	t0 := time.Now()
	db, err := open()
	if err != nil {
		return nil, err
	}
	if err := populate(db, sp.items); err != nil {
		return nil, err
	}
	if err := db.Close(); err != nil {
		return nil, err
	}
	populateS := time.Since(t0).Seconds()
	t0 = time.Now()
	if db, err = open(); err != nil {
		return nil, fmt.Errorf("recovering: %w", err)
	}
	recoverMs := float64(time.Since(t0)) / 1e6
	if err := checkClasses(sp.items, db, nil); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	votes := voteSchedule(rng, sp.items, schedLen, func(int) bool { return true })
	tags := tagSchedule(rng, sp.items, schedLen)
	userBytes := 0
	for i := range tags {
		userBytes += len(votes[i].val) + tags[i].userBytes
	}
	inst := &instance{
		db: db, device: device, populateS: populateS, recoverMs: recoverMs, recoverRecords: db.Recovery().RecordsReplayed,
		updatesPerOp: 3, userBytesPerOp: float64(userBytes) / schedLen,
		stop: noop,
	}
	update := func(span, text string, tr *tracer, parent int32, i int) error {
		s := tr.begin(span, parent, int64(i))
		res, err := inst.db.Update(text)
		tr.end(s)
		if err := wantUpdated(res.Tuples, res.NodesTouched, err); err != nil {
			return fmt.Errorf("%s: %w", span, err)
		}
		return nil
	}
	inst.op = func(_, i int, tr *tracer, parent int32) error {
		slot := i % schedLen
		if err := update("colorful.update.vote", votes[slot].text, tr, parent, i); err != nil {
			return err
		}
		if err := update("colorful.update.tag-add", tags[slot].add, tr, parent, i); err != nil {
			return err
		}
		// The first ops of the warm-up have nothing to delete yet; the
		// warm-up is longer than tagLag, so every timed op deletes.
		if i >= tagLag {
			if err := update("colorful.update.tag-del", tags[(i-tagLag)%schedLen].del, tr, parent, i); err != nil {
				return err
			}
		}
		s := tr.begin("colorful.query.tag", parent, int64(i))
		got, err := inst.db.Query(tags[slot].probe.text)
		tr.end(s)
		if err := embeddedOne(got, err, tags[slot].probe.want); err != nil {
			return fmt.Errorf("read-your-write: %w", err)
		}
		return nil
	}
	census := func(done int) error {
		if err := checkVotes(embeddedQuery(inst.db), votesModel(sp.items, [][]voteStep{votes}, []int{done})); err != nil {
			return err
		}
		return checkTags(embeddedQuery(inst.db), tags, done)
	}
	// Every acknowledged write must be readable after a restart.
	inst.verify = func(done []int) error {
		if err := inst.db.Validate(); err != nil {
			return err
		}
		if err := census(done[0]); err != nil {
			return err
		}
		if err := inst.db.Close(); err != nil {
			return err
		}
		if inst.db, err = open(); err != nil {
			return fmt.Errorf("reopening: %w", err)
		}
		if err := census(done[0]); err != nil {
			return fmt.Errorf("after restart: %w", err)
		}
		return nil
	}
	inst.closeDB = func() error {
		err := inst.db.Close()
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
		return err
	}
	return inst, nil
}
