package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"

	"colorfulxml/colorful"
	"colorfulxml/internal/btree"
	"colorfulxml/internal/core"
	"colorfulxml/internal/engine"
	"colorfulxml/internal/pagestore"
	"colorfulxml/internal/plan"
	"colorfulxml/internal/storage"
	"colorfulxml/internal/vfs"
	"colorfulxml/internal/wal"
	"colorfulxml/internal/wire"
)

// The layer probes call each layer's public functions in isolation, on the
// workload's own data, with a span around every call (ns-scale calls are
// timed a batch per span). A time metric is the median per-call duration of
// the spans that carry its name. They run after the workload has been
// verified, because some of them mutate the database.

// probePrefix keeps probe spans apart from the workload's spans of the same
// layer in the trace file.
const probePrefix = "probe/"

// prober records probe spans. Its error is sticky, like the wire decoder's:
// after the first failure every further probe is skipped, and the caller
// checks err once.
type prober struct {
	tr   *tracer
	root int32
	div  int // iteration divisor: 1, or more in smoke mode
	err  error
	// workload holds the traced run's own spans. A call the workload made
	// itself is not probed again: its metric comes from those spans.
	workload []*tracer
	covered  map[string]bool
	derived  map[string]float64 // metrics that are not plain span medians
}

func newProber(smoke bool, workload []*tracer) *prober {
	p := &prober{tr: newTracer(1 << 15), div: 1, workload: workload, covered: map[string]bool{}, derived: map[string]float64{}}
	if smoke {
		p.div = 50
	}
	for _, tr := range workload {
		for _, s := range tr.spans {
			p.covered[s.name] = true
		}
	}
	// The server overheads subtract an idle in-process query from an idle
	// query over the wire, so that one is probed whatever the workload did.
	delete(p.covered, "client.query")
	p.root = p.tr.begin("probes", -1, -1)
	return p
}

func (p *prober) iters(n int) int { return max(3, n/p.div) }

func (p *prober) fail(name string, err error) {
	if p.err == nil && err != nil {
		p.err = fmt.Errorf("probe %s: %w", name, err)
	}
}

// batch times calls back-to-back calls of fn as one span.
func (p *prober) batch(name string, calls int, fn func() error) {
	if p.err != nil || p.covered[name] {
		return
	}
	s := p.tr.begin(probePrefix+name, p.root, -1)
	for b := 0; b < calls && p.err == nil; b++ {
		p.fail(name, fn())
	}
	p.tr.end(s)
	p.tr.spans[s].calls = int32(calls)
}

// span times one call of fn.
func (p *prober) span(name string, fn func() error) { p.batch(name, 1, fn) }

// time records iters spans (fewer in smoke mode) of calls calls each.
func (p *prober) time(name string, iters, calls int, fn func() error) {
	for n := p.iters(iters); n > 0; n-- {
		p.batch(name, calls, fn)
	}
}

func (p *prober) perCall(name string) []float64 { return p.tr.perCall(probePrefix + name) }

// p50 is the median per-call duration in ns of the probe spans named name.
func (p *prober) p50(name string) float64 { return quantile(p.perCall(name), 0.5) }

// inWorkload returns the sorted durations in ns of the calls named name that
// the workload itself made in the traced half of the run — under its
// contention, on its keys — or, when it makes no such call, of the probe's.
func (p *prober) inWorkload(name string) []float64 {
	var out []float64
	for _, tr := range p.workload {
		out = append(out, tr.perCall(name)...)
	}
	if len(out) == 0 {
		return p.perCall(name)
	}
	sort.Float64s(out)
	return out
}

// sink keeps results alive so the compiler cannot drop the probed calls.
var sink any

// --- the two floors ------------------------------------------------------------

// probeLoopback measures a bare TCP echo of a ping-sized frame on the
// loopback interface: the floor under every client call.
func (p *prober) probeLoopback() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.fail("net.loopback_rtt", err)
		return
	}
	echoed := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		_, err = io.Copy(nc, nc)
		nc.Close()
		echoed <- err
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close() // fails the pending Accept, which ends the echo goroutine
		<-echoed
		p.fail("net.loopback_rtt", err)
		return
	}
	frame := wire.AppendFrame(nil, wire.TypePing, nil)
	back := make([]byte, len(frame))
	p.time("net.loopback_rtt", 2000, 1, func() error {
		if _, err := nc.Write(frame); err != nil {
			return err
		}
		_, err := io.ReadFull(nc, back)
		return err
	})
	nc.Close()
	ln.Close()
	p.fail("net.loopback_rtt", <-echoed)
}

// voteDelta is the change record one vote produces.
func voteDelta(elem core.NodeID) []core.Change {
	return []core.Change{{Kind: core.ChangeContent, Elem: elem, Content: "57"}}
}

// probeAppendSync measures wal.Writer.Append under SyncAlways (one write
// plus one fsync) of a vote-sized payload in the benchmark directory: the
// floor under every durable commit.
func (p *prober) probeAppendSync(dir string) {
	name := filepath.Join(dir, "probe.wal")
	f, err := vfs.OS.Create(name)
	if err != nil {
		p.fail("wal.append_sync", err)
		return
	}
	defer os.Remove(name)
	w := wal.NewWriter(f, name, 1, wal.SyncAlways)
	payload := wal.EncodeChanges(voteDelta(12345))
	p.time("wal.append_sync", 200, 1, func() error {
		_, err := w.Append(payload)
		return err
	})
	p.fail("wal.append_sync", w.Close())
}

// --- the layers ----------------------------------------------------------------

// probeLayers runs every remaining probe against the workload's database.
func (p *prober) probeLayers(db *colorful.DB, items int) {
	texts := classTexts(items)
	k := 3 * (items / 6) // the key classTexts uses
	point, pointWant := texts["point"], itemName(k)
	p.probeSession(db, point, pointWant)
	p.probeClient(db, point, pointWant, uVote(k, "77"))
	p.probeWire(db, point)

	// A store loaded from the same data, as a snapshot rebuild would load it.
	var st *storage.Store
	p.time("storage.load", 3, 1, func() (err error) {
		st, err = storage.Load(db.Database, 0)
		return err
	})
	votes, err := db.Query(texts["hop"])
	if err == nil && (len(votes) != 1 || votes[0].Node == nil) {
		err = fmt.Errorf("%d rows", len(votes))
	}
	p.fail("hop", err)
	if p.err != nil {
		return
	}
	votesNode := votes[0].Node
	p.probePlanEngine(st, texts)
	p.probeStorage(st, db.NumNodes(), items, pointWant, voteDelta(votesNode.ID()))
	p.probeUpdates(db, k, votesNode)
}

// probeSession: the session kernel, in-process.
func (p *prober) probeSession(db *colorful.DB, point, want string) {
	sess := db.Session()
	defer sess.Close()
	p.time("colorful.session_query", 2000, 1, func() error {
		got, err := sess.Query(point)
		return embeddedOne(got, err, want)
	})
	stmt, err := sess.Prepare(point)
	if err != nil {
		p.fail("colorful.stmt_query", err)
		return
	}
	p.time("colorful.stmt_query", 2000, 1, func() error {
		got, err := stmt.Query()
		return embeddedOne(got, err, want)
	})
}

// probeClient: the same text against the same database, over the wire.
func (p *prober) probeClient(db *colorful.DB, point, want, vote string) {
	srv, err := serve(db)
	if err != nil {
		p.fail("client", err)
		return
	}
	defer func() { p.fail("server drain", srv.stop()) }()
	cdb, err := dial(srv.addr)
	if err != nil {
		p.fail("client", err)
		return
	}
	defer cdb.Close()
	p.time("client.query", 2000, 1, func() error {
		got, err := cdb.Query(point)
		return wireOne(got, err, want)
	})
	cst, err := cdb.Prepare(point)
	if err != nil {
		p.fail("client.stmt", err)
		return
	}
	p.time("client.stmt", 2000, 1, func() error {
		got, err := cst.Query()
		return wireOne(got, err, want)
	})
	p.time("client.ping", 2000, 1, func() error { return cdb.Ping(context.Background()) })
	p.time("client.update", 9, 1, func() error {
		res, err := cdb.Update(vote)
		return wantUpdated(res.Tuples, res.NodesTouched, err)
	})
}

// probeWire: the codecs on the workload's real payloads.
func (p *prober) probeWire(db *colorful.DB, point string) {
	flwor, err := db.Query(qFlwor)
	if err != nil || len(flwor) == 0 {
		p.fail("wire", fmt.Errorf("flwor returned %d rows: %v", len(flwor), err))
		return
	}
	items := make([]wire.Item, len(flwor))
	for i, r := range embeddedRows(flwor) {
		items[i] = wire.Item{Node: r.node, Color: r.color, Value: r.value}
	}
	queryPayload := wire.Query{Src: point}.Encode()
	itemPayload := wire.Items{Items: items[:1]}.Encode()
	var frames []byte
	p.time("wire.frame_encode", 200, 256, func() error {
		frames = wire.AppendFrame(frames[:0], wire.TypeQuery, queryPayload)
		frames = wire.AppendFrame(frames, wire.TypeItems, itemPayload)
		return nil
	})
	p.time("wire.frame_decode", 200, 256, func() error {
		_, _, next, err := wire.DecodeFrame(frames, 0)
		if err != nil {
			return err
		}
		_, _, _, err = wire.DecodeFrame(frames, next)
		return err
	})
	p.time("wire.items_codec", 15, 1, func() error {
		_, err := wire.DecodeItems(wire.Items{Items: items}.Encode())
		return err
	})
	p.derived["wire.items_codec_ns_per_item"] = p.p50("wire.items_codec") / float64(len(items))
}

// probePlanEngine compiles every class text (counting the ones the compiler
// refuses) and executes a clone of each compiled plan on the loaded store.
func (p *prober) probePlanEngine(st *storage.Store, texts map[string]string) {
	opt := plan.Options{Catalog: plan.StoreCatalog{Store: st}}
	compiled := map[string]*plan.Compiled{}
	compileUs := 0.0
	for _, class := range classNames {
		c, err := plan.CompileQuery(texts[class], opt)
		if errors.Is(err, plan.ErrUnsupported) {
			p.derived["plan.unsupported"]++
			continue
		}
		p.fail("plan.compile."+class, err)
		compiled[class] = c
		p.time("plan.compile."+class, 200, 1, func() error {
			_, err := plan.CompileQuery(texts[class], opt)
			return err
		})
		compileUs += p.p50("plan.compile."+class) / 1e3
	}
	p.derived["plan.compile_us"] = compileUs / float64(len(classNames))
	if p.err != nil {
		return
	}
	cache := plan.NewCache(0)
	for j := 0; j < plan.DefaultCacheSize; j++ {
		cache.Put(qPoint(j), opt, st.StatsEpoch(), compiled["point"])
	}
	p.time("plan.cache_get", 200, 256, func() error {
		if _, ok := cache.Get(qPoint(7), opt, st.StatsEpoch()); !ok {
			return errors.New("cached plan not found")
		}
		return nil
	})

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0, execs := ms.Mallocs, 0
	for _, class := range classNames {
		c := compiled[class]
		if c == nil {
			continue
		}
		iters, calls := 15, 1
		if class == "point" {
			iters, calls = 200, 64
		}
		p.time("engine.exec."+class, iters, calls, func() error {
			execs++
			_, err := engine.ExecBatchesPooled(context.Background(), st, c.Mem, c.Root.Clone(), func(*engine.Batch) error { return nil })
			return err
		})
	}
	runtime.ReadMemStats(&ms)
	p.derived["engine.mallocs_per_exec"] = float64(ms.Mallocs-mallocs0) / float64(max(1, execs))
	if c := compiled["hop"]; c != nil {
		p.time("engine.clone", 200, 64, func() error {
			sink = c.Root.Clone()
			return nil
		})
	}
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(b []byte) (int, error) {
	w.n += int64(len(b))
	return len(b), nil
}

// probeStorage: access paths, clone, delta apply, checkpoint, WAL encoding;
// a btree and a page store of the benchmark's own.
func (p *prober) probeStorage(st *storage.Store, nodes, items int, name string, delta []core.Change) {
	p.time("storage.eqcontent", 200, 64, func() error {
		found, err := st.EqContent("red", "name", name)
		if err == nil && len(found) != 1 {
			err = fmt.Errorf("%d nodes", len(found))
		}
		return err
	})
	p.time("storage.scantag", 15, 1, func() error {
		found, err := st.ScanTag("red", "item")
		sink = found
		return err
	})
	for n := p.iters(9); n > 0; n-- {
		var clone *storage.Store
		p.span("storage.clone", func() error {
			clone = st.Clone()
			return nil
		})
		p.span("storage.apply", func() error { return clone.ApplyChanges(delta) })
	}
	var cw countingWriter
	p.time("storage.checkpoint", 3, 1, func() error {
		cw.n = 0
		return st.WriteCheckpoint(&cw)
	})
	p.derived["storage.checkpoint_bytes_per_node"] = float64(cw.n) / float64(nodes)
	p.time("wal.encode", 200, 256, func() error {
		sink = wal.EncodeChanges(delta)
		return nil
	})

	tree := btree.New()
	for j := 0; j < items; j++ {
		tree.Insert(itemName(j), uint64(j))
	}
	p.time("btree.get", 200, 256, func() error {
		if len(tree.Get(name)) != 1 {
			return errors.New("key not found")
		}
		return nil
	})
	pages := pagestore.NewStore(0)
	rid, err := pages.AppendRecord(pages.CreateFile(), []byte("probe"))
	p.fail("pagestore.pin", err)
	p.time("pagestore.pin", 200, 256, func() error {
		_, err := pages.Pin(rid.PageID)
		pages.Unpin(rid.PageID)
		return err
	})
}

// probeUpdates: one update class per span, and the refresh a commit forces —
// a facade mutator commits without refreshing, so the Refresh after it is
// exactly clone + apply + publish.
func (p *prober) probeUpdates(db *colorful.DB, k int, votesNode *colorful.Node) {
	update := func(text string) func() error {
		return func() error {
			res, err := db.Update(text)
			return wantUpdated(res.Tuples, res.NodesTouched, err)
		}
	}
	for n := p.iters(9); n > 0; n-- {
		v, tag := strconv.Itoa(50+n), "probe"+strconv.Itoa(n)
		p.span("colorful.update.vote", update(uVote(k, v)))
		p.span("colorful.update.tag-add", update(uTagAdd(k, tag)))
		p.span("colorful.update.tag-del", update(uTagDel(k, tag)))
		p.fail("colorful.refresh", db.SetText(votesNode, v))
		p.span("colorful.refresh", db.Refresh)
	}
	p.time("colorful.update.subtree-add", 3, 1, update(uSubtreeAdd))
}
