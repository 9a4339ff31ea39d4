package colorful_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"colorfulxml/colorful"
	"colorfulxml/internal/core"
	"colorfulxml/internal/mcxquery"
	"colorfulxml/internal/pathexpr"
	"colorfulxml/internal/vfs"
	"colorfulxml/internal/wal"
)

// buildMovies applies the same small workload to any DB — used to grow both
// a durable database and its in-memory twin for isomorphism checks.
func buildMovies(t *testing.T, db *colorful.DB) {
	t.Helper()
	doc := db.Document()
	genres, err := db.AddElement(doc, "movie-genres", "red")
	if err != nil {
		t.Fatal(err)
	}
	comedy, err := db.AddElement(genres, "movie-genre", "red")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddElementText(comedy, "name", "red", "Comedy"); err != nil {
		t.Fatal(err)
	}
	movie, err := db.AddElement(comedy, "movie", "red")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddElementText(movie, "name", "red", "All About Eve"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SetAttribute(movie, "year", "1950"); err != nil {
		t.Fatal(err)
	}
	awards, err := db.AddElement(doc, "movie-awards", "green")
	if err != nil {
		t.Fatal(err)
	}
	oscar, err := db.AddElement(awards, "movie-award", "green")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Adopt(oscar, movie, "green"); err != nil {
		t.Fatal(err)
	}
}

func reopen(t *testing.T, dir string, colors ...colorful.Color) *colorful.DB {
	t.Helper()
	db, err := colorful.Open(dir, colors...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestOpenPersistsAcrossReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := colorful.Open(dir, "red", "green")
	if err != nil {
		t.Fatal(err)
	}
	buildMovies(t, db)
	// Update-language mutation commits through the same WAL hook.
	if _, err := db.Update(`
for $m in document("db")/{green}descendant::movie
update $m { insert <votes>14</votes> }`); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	twin := colorful.New("red", "green")
	buildMovies(t, twin)
	if _, err := twin.Update(`
for $m in document("db")/{green}descendant::movie
update $m { insert <votes>14</votes> }`); err != nil {
		t.Fatal(err)
	}

	got := reopen(t, dir)
	defer got.Close()
	if !got.Recovery().TornTail && got.Recovery().RecordsReplayed == 0 && !got.Recovery().CheckpointLoaded {
		t.Fatalf("nothing recovered: %+v", got.Recovery())
	}
	if ok, why := colorful.Isomorphic(twin, got); !ok {
		t.Fatalf("recovered database differs: %s", why)
	}
	// The recovered database keeps serving queries.
	out, err := got.Query(`for $v in document("db")/{green}descendant::votes return $v`)
	if err != nil || len(out) != 1 || out[0].Value != "14" {
		t.Fatalf("votes after recovery = %v, %v", out, err)
	}
}

// TestLargeCommitSurvivesReopen: a commit bigger than 64 MiB is one WAL
// record like any other, and neither it nor the commit after it is lost on
// reopen. Checkpoints are off, so the log is the only copy. The commit is one
// attach of 9 600 elements with 7 000-byte texts: the store holds no record
// larger than a page, so no single text can be that large.
func TestLargeCommitSurvivesReopen(t *testing.T) {
	const elems, textBytes = 9600, 7000
	dir := filepath.Join(t.TempDir(), "db")
	db, err := colorful.OpenOptions(dir, colorful.Options{NoSync: true, CheckpointBytes: -1}, "red")
	if err != nil {
		t.Fatal(err)
	}
	big, err := db.NewElement("big", "red") // built detached, then attached in one commit
	if err != nil {
		t.Fatal(err)
	}
	text := strings.Repeat("x", textBytes)
	for i := 0; i < elems; i++ {
		if _, err := db.AddElementText(big, "t", "red", text); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Append(db.Document(), big, "red"); err != nil {
		t.Fatal(err)
	}
	if wal := db.DurabilityStats().WALBytes; wal <= 64<<20 {
		t.Fatalf("the log holds %d bytes, want a record over 64 MiB", wal)
	}
	if _, err := db.AddElementText(db.Document(), "after", "red", "next"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	got := reopen(t, dir)
	defer got.Close()
	if r := got.Recovery(); r.TornTail || r.CheckpointLoaded {
		t.Fatalf("recovery %+v, want the whole log replayed", r)
	}
	out, err := got.Query(`document("db")/{red}child::big/{red}child::t`)
	if err != nil || len(out) != elems || out[0].Value != text || out[elems-1].Value != text {
		t.Fatalf("the large commit after reopen: %d texts, err %v", len(out), err)
	}
	if out, err := got.Query(`document("db")/{red}child::after`); err != nil || len(out) != 1 || out[0].Value != "next" {
		t.Fatalf("the commit after it, after reopen: %v, %v", out, err)
	}
}

func TestConstructorQueryIsDurable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := colorful.Open(dir, "red", "green")
	if err != nil {
		t.Fatal(err)
	}
	buildMovies(t, db)
	if _, err := db.Query(`
for $m in document("db")/{red}descendant::movie[contains({red}child::name, "Eve")]
return createColor(black, <m-name>{ $m/{red}child::name }</m-name>)`); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	got := reopen(t, dir)
	defer got.Close()
	if !got.HasColor("black") {
		t.Fatalf("constructor-created color lost; colors = %v", got.Colors())
	}
	out, err := got.Query(`for $n in document("db")/{black}child::m-name return $n`)
	if err != nil || len(out) != 1 || out[0].Value != "All About Eve" {
		t.Fatalf("constructed node after recovery = %v, %v", out, err)
	}
}

// compiledAnswers runs each query through the compiled route and holds its
// values, in order, to the evaluator's.
func compiledAnswers(t *testing.T, db *colorful.DB, queries ...string) [][]string {
	t.Helper()
	var out [][]string
	for _, q := range queries {
		if _, err := db.Explain(q); err != nil {
			t.Fatalf("%s does not compile: %v", q, err)
		}
		items, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := mcxquery.NewEvaluator(db.Database).Query(q)
		if err != nil {
			t.Fatal(err)
		}
		var compiled, evaluated []string
		for _, it := range items {
			compiled = append(compiled, it.Value)
		}
		for _, it := range seq {
			evaluated = append(evaluated, pathexpr.ItemString(it))
		}
		if fmt.Sprint(compiled) != fmt.Sprint(evaluated) {
			t.Fatalf("%s: compiled %v, evaluator %v", q, compiled, evaluated)
		}
		out = append(out, compiled)
	}
	return out
}

// listOrder renders the children of the red list, in order, as tag=value.
func listOrder(t *testing.T, db *colorful.DB) string {
	t.Helper()
	lists, err := db.Query(`document("db")/{red}child::list`)
	if err != nil || len(lists) != 1 {
		t.Fatalf("list = %v, %v", lists, err)
	}
	var b strings.Builder
	for _, k := range core.Children(lists[0].Node, "red") {
		v, _ := core.StringValue(k, "red")
		fmt.Fprintf(&b, "%s=%s ", k.Name(), v)
	}
	return b.String()
}

// buildList makes a red list of items b, c and d, each with a name; c is
// green too, under a green featured root, and so a multi-color sibling.
func buildList(t *testing.T, db *colorful.DB) {
	t.Helper()
	list, err := db.AddElement(db.Document(), "list", "red")
	if err != nil {
		t.Fatal(err)
	}
	featured, err := db.AddElement(db.Document(), "featured", "green")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"b", "c", "d"} {
		item, err := db.AddElement(list, "item", "red")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.AddElementText(item, "name", "red", v); err != nil {
			t.Fatal(err)
		}
		if v == "c" {
			if err := db.Adopt(featured, item, "green"); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// insertA is the paper's positional insert: a new item a before item b,
// displacing b, c and d.
const insertA = `for $l in document("db")/{red}child::list, $b in $l/{red}child::item[{red}child::name = "b"]
update $l { insert <item><name>a</name></item> before $b }`

// TestPositionalInsertAndRenameAreLogged: a positional insert and an element
// rename are each one WAL record like any other commit — no checkpoint, no
// full snapshot rebuild — and a reopened directory replays both and answers
// like the database that wrote it, in sibling order, names and compiled
// answers, each held to the evaluator.
func TestPositionalInsertAndRenameAreLogged(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := colorful.Open(dir, "red", "green")
	if err != nil {
		t.Fatal(err)
	}
	buildList(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = reopen(t, dir, "red", "green")
	replayed := db.Recovery().RecordsReplayed
	if err := db.Refresh(); err != nil {
		t.Fatal(err)
	}
	rebuilds := db.MaintStats().FullRebuilds

	if res, err := db.Update(insertA); err != nil || res.Tuples != 1 {
		t.Fatalf("insert before: %+v, %v", res, err)
	}
	featured, err := db.Query(`document("db")/{green}child::featured/{green}child::item`)
	if err != nil || len(featured) != 1 {
		t.Fatalf("featured items = %v, %v", featured, err)
	}
	if err := db.Rename(featured[0].Node, "pick"); err != nil { // red and green, with a name child
		t.Fatal(err)
	}
	queries := []string{
		`document("db")/{red}child::list/{red}child::item/{red}child::name`,
		`document("db")/{red}child::list/{red}child::pick/{red}child::name`,
		`document("db")/{green}child::featured/{green}child::pick`,
		`document("db")/{red}descendant::name`,
	}
	before, order := compiledAnswers(t, db, queries...), listOrder(t, db)
	if want := `[["a" "b" "d"] ["c"] [""] ["a" "b" "c" "d"]]`; fmt.Sprintf("%q", before) != want {
		t.Fatalf("answers %v, want %s", before, want)
	}
	if want := "item=a item=b pick=c item=d "; order != want {
		t.Fatalf("list children %q, want %q", order, want)
	}
	if got := db.DurabilityStats().Checkpoints; got != 0 {
		t.Errorf("the insert and the rename took %d checkpoints", got)
	}
	if got := db.MaintStats().FullRebuilds; got != rebuilds {
		t.Errorf("the insert and the rename rebuilt the snapshot: %d full rebuilds, want %d", got, rebuilds)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	got := reopen(t, dir, "red", "green")
	defer got.Close()
	if r := got.Recovery(); r.CheckpointLoaded || r.RecordsReplayed != replayed+2 {
		t.Fatalf("recovery %+v, want the %d records before the two commits and one each", r, replayed)
	}
	if after := compiledAnswers(t, got, queries...); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("after Open %v, before Close %v", after, before)
	}
	if after := listOrder(t, got); after != order {
		t.Fatalf("after Open the list is %q, before Close %q", after, order)
	}
}

// TestPositionalInsertRolledBackOnFailedSync: a positional insert whose WAL
// fsync fails is rolled back — the displaced siblings included — and the
// database degrades to read-only serving of the state before it. Healed by
// the probe, or by Close before any probe runs, it leaves a directory that
// reopens to that state too, in the list and in the compiled answers: the
// heal's checkpoint puts the segment holding the rolled-back record below the
// epoch.
func TestPositionalInsertRolledBackOnFailedSync(t *testing.T) {
	for _, byProbe := range []bool{true, false} {
		t.Run(map[bool]string{true: "probe-heals", false: "close-heals"}[byProbe], func(t *testing.T) {
			probe := time.Hour // no heal runs before Close
			if byProbe {
				probe = 2 * time.Millisecond
			}
			db, ffs, dir := openFaulty(t, probe)
			buildList(t, db)
			const q = `document("db")/{red}child::list/{red}child::item/{red}child::name`
			before, order := compiledAnswers(t, db, q), listOrder(t, db)

			ffs.Schedule(ffs.Ops()+1, vfs.Fault{Err: vfs.Permanent(vfs.ErrIO)}) // the append's write, then its fsync
			if _, err := db.Update(insertA); !errors.Is(err, colorful.ErrReadOnly) {
				t.Fatalf("insert before with a failing fsync: %v, want ErrReadOnly", err)
			}
			if got := compiledAnswers(t, db, q); fmt.Sprint(got) != fmt.Sprint(before) {
				t.Fatalf("after the rollback %v, before the insert %v", got, before)
			}
			if got := listOrder(t, db); got != order {
				t.Fatalf("after the rollback the list is %q, before the insert %q", got, order)
			}
			if byProbe {
				awaitHealth(t, db, colorful.Healthy)
				if info := db.HealthInfo(); info.Degrades != 1 || info.Heals != 1 {
					t.Fatalf("health info = %+v, want one degrade and one heal", info)
				}
			}
			if err := db.Close(); err != nil {
				t.Errorf("Close once the disk works: %v", err)
			}
			got := reopen(t, dir, "red", "green")
			defer got.Close()
			if after := compiledAnswers(t, got, q); fmt.Sprint(after) != fmt.Sprint(before) {
				t.Errorf("after Open %v, before the insert %v", after, before)
			}
			if after := listOrder(t, got); after != order {
				t.Errorf("after Open the list is %q, before the insert %q", after, order)
			}
		})
	}
}

// TestDisplacingInsertIsOneRecord: an insert before the first of 8 300
// items logs each displaced item leaving and arriving again, 16 601 changes,
// and commits them as one WAL record like any other commit: no checkpoint
// is taken, and a reopened directory answers alike. A WAL write fault during
// it rolls it back and degrades the database; the probe heals it, and a
// reopened directory holds the state before the insert.
func TestDisplacingInsertIsOneRecord(t *testing.T) {
	for _, walFault := range []bool{false, true} {
		t.Run(map[bool]string{false: "acknowledged", true: "wal-fault"}[walFault], func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "db")
			ffs := vfs.NewFaultFS(vfs.OS, 42)
			db, err := colorful.OpenOptions(dir, colorful.Options{
				FS: ffs, NoSync: true, CheckpointBytes: -1, Retry: quickPolicy(), ProbeInterval: 2 * time.Millisecond,
			}, "red")
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			list, err := db.NewElement("list", "red") // built detached, then attached in one commit
			if err != nil {
				t.Fatal(err)
			}
			var first *colorful.Node
			for k := 0; k < 8300; k++ {
				item, err := db.AddElementText(list, "item", "red", fmt.Sprint(k))
				if err != nil {
					t.Fatal(err)
				}
				if k == 0 {
					first = item
				}
			}
			if err := db.Append(db.Document(), list, "red"); err != nil {
				t.Fatal(err)
			}
			const q = `document("db")/{red}child::list/{red}child::item`
			want := compiledAnswers(t, db, q)
			item, err := db.NewElement("item", "red")
			if err != nil {
				t.Fatal(err)
			}
			if walFault {
				ffs.Schedule(ffs.Ops(), vfs.Fault{Err: vfs.Permanent(vfs.ErrIO)}) // the append's write
				if err := db.InsertBefore(list, item, first, "red"); !errors.Is(err, colorful.ErrReadOnly) {
					t.Fatalf("insert with a failing WAL write: %v, want ErrReadOnly", err)
				}
				if got := compiledAnswers(t, db, q); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("after the rollback %d items, before the insert %d", len(got[0]), len(want[0]))
				}
				awaitHealth(t, db, colorful.Healthy)
			} else {
				if err := db.InsertBefore(list, item, first, "red"); err != nil {
					t.Fatal(err)
				}
				if got := db.DurabilityStats().Checkpoints; got != 0 {
					t.Fatalf("an insert displacing 8 300 items took %d checkpoints, want 0", got)
				}
				want = compiledAnswers(t, db, q)
				if items := want[0]; len(items) != 8301 || items[0] != "" || items[1] != "0" || items[8300] != "8299" {
					t.Fatalf("%d items, first %q, %q, last %q", len(items), items[0], items[1], items[len(items)-1])
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			got := reopen(t, dir)
			defer got.Close()
			if r := got.Recovery(); r.CheckpointLoaded == !walFault {
				t.Fatalf("recovery stats %+v after the insert (heal's checkpoint: %v)", r, walFault)
			}
			if after := compiledAnswers(t, got, q); fmt.Sprint(after) != fmt.Sprint(want) {
				t.Fatalf("after Open %d items, before Close %d", len(after[0]), len(want[0]))
			}
		})
	}
}

// TestTagAddLogsOnlyItsLeaf: a tag-add builds <tag>t5</tag> detached and
// gives it its text before attaching it, and a detached element's text is
// no change to the store: the update's WAL record holds exactly the one
// ChangeInsertLeaf that brings the tag, its text included, into the tree.
func TestTagAddLogsOnlyItsLeaf(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := colorful.OpenOptions(dir, colorful.Options{NoSync: true, CheckpointBytes: -1}, "red")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	item, err := db.AddElement(db.Document(), "item", "red")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddElementText(item, "name", "red", "Item 5"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Update(`for $n in document("db")/{red}descendant::name[. = "Item 5"], $i in $n/{red}parent::item update $i { insert <tag>t5</tag> }`)
	if err != nil || res.NodesTouched != 1 {
		t.Fatalf("tag-add touched %d nodes, err %v", res.NodesTouched, err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("WAL segments %v, err %v", segs, err)
	}
	data, err := os.ReadFile(segs[len(segs)-1])
	if err != nil {
		t.Fatal(err)
	}
	seg, err := wal.ReadSegment(data, segs[len(segs)-1], true)
	if err != nil || len(seg.Records) == 0 {
		t.Fatalf("segment: %+v, err %v", seg, err)
	}
	got, err := wal.DecodeChanges(seg.Records[len(seg.Records)-1].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("the tag-add's record holds %d changes, want its one leaf: %+v", len(got), got)
	}
	want := core.Change{Kind: core.ChangeInsertLeaf, Elem: got[0].Elem, Parent: item.ID(), Color: "red", Tag: "tag", Content: "t5"}
	if !reflect.DeepEqual(got[0], want) {
		t.Fatalf("the tag-add logged %+v, want %+v", got[0], want)
	}
}

func TestExplicitCheckpointTruncatesWAL(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := colorful.Open(dir, "red", "green")
	if err != nil {
		t.Fatal(err)
	}
	buildMovies(t, db)
	before := db.DurabilityStats().WALBytes
	if before == 0 {
		t.Fatal("workload wrote no WAL bytes")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := db.DurabilityStats()
	if after.WALBytes != 0 || after.Checkpoints != 1 {
		t.Fatalf("after checkpoint: %+v (WAL before: %d)", after, before)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	got := reopen(t, dir)
	defer got.Close()
	st := got.Recovery()
	if !st.CheckpointLoaded || st.RecordsReplayed != 0 {
		t.Fatalf("recovery after clean checkpoint: %+v", st)
	}
	twin := colorful.New("red", "green")
	buildMovies(t, twin)
	if ok, why := colorful.Isomorphic(twin, got); !ok {
		t.Fatalf("recovered database differs: %s", why)
	}
}

func TestClosedDatabaseRejectsMutations(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := colorful.Open(dir, "red")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := db.AddElement(db.Document(), "x", "red"); !errors.Is(err, colorful.ErrClosed) {
		t.Fatalf("mutation on closed DB: %v, want ErrClosed", err)
	}
	if err := db.Checkpoint(); !errors.Is(err, colorful.ErrClosed) {
		t.Fatalf("checkpoint on closed DB: %v, want ErrClosed", err)
	}
	if db.DurabilityStats().Durable {
		t.Fatal("closed DB still reports durable")
	}
}

// TestAutoCheckpointByWALSize: the commit that takes the WAL past
// CheckpointBytes installs the checkpoint before it returns — the count moves
// and the log is empty right then, not at some later point.
func TestAutoCheckpointByWALSize(t *testing.T) {
	const threshold = 2048
	dir := filepath.Join(t.TempDir(), "db")
	db, err := colorful.OpenOptions(dir, colorful.Options{CheckpointBytes: threshold}, "red")
	if err != nil {
		t.Fatal(err)
	}
	root, err := db.AddElement(db.Document(), "list", "red")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		before := db.DurabilityStats()
		if _, err := db.AddElementText(root, "item", "red", "payload-payload-payload"); err != nil {
			t.Fatal(err)
		}
		after := db.DurabilityStats()
		if after.WALBytes >= threshold {
			t.Fatalf("commit %d left %d WAL bytes, at or past the %d-byte threshold", i, after.WALBytes, threshold)
		}
		if crossed := after.WALBytes < before.WALBytes; crossed != (after.Checkpoints == before.Checkpoints+1) {
			t.Fatalf("commit %d: WAL %d -> %d bytes but checkpoints %d -> %d", i,
				before.WALBytes, after.WALBytes, before.Checkpoints, after.Checkpoints)
		}
		if after.Checkpoints > before.Checkpoints && after.WALBytes != 0 {
			t.Fatalf("commit %d checkpointed but left %d WAL bytes", i, after.WALBytes)
		}
	}
	// 200 * ~40-byte records far exceeds the 2 KiB threshold.
	if db.DurabilityStats().Checkpoints == 0 {
		t.Fatal("auto-checkpoint never fired")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	got := reopen(t, dir)
	defer got.Close()
	if !got.Recovery().CheckpointLoaded {
		t.Fatalf("recovery found no checkpoint: %+v", got.Recovery())
	}
	out, err := got.Query(`for $i in document("db")/{red}child::list/{red}child::item return $i`)
	if err != nil || len(out) != 200 {
		t.Fatalf("items after recovery = %d, %v", len(out), err)
	}
}

// TestReopenPublishesRecoveredStore: Open publishes the store recovery
// rebuilt (checkpoint plus WAL replay) as the first snapshot, with no second
// Load of the reconstructed core, and that snapshot answers as the database
// did before it closed and serves as the base of the next incremental apply.
func TestReopenPublishesRecoveredStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := colorful.Open(dir, "red", "green")
	if err != nil {
		t.Fatal(err)
	}
	doc := db.Document()
	genres, err := db.AddElement(doc, "movie-genres", "red")
	if err != nil {
		t.Fatal(err)
	}
	awards, err := db.AddElement(doc, "movie-awards", "green")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if i == 4 { // half the data in the checkpoint, half in the WAL
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		genre, err := db.AddElement(genres, "movie-genre", "red")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.AddElementText(genre, "name", "red", fmt.Sprintf("genre %d", i)); err != nil {
			t.Fatal(err)
		}
		movie, err := db.AddElement(genre, "movie", "red")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.AddElementText(movie, "name", "red", fmt.Sprintf("movie %d", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.SetAttribute(movie, "year", fmt.Sprint(1950+i)); err != nil {
			t.Fatal(err)
		}
		award, err := db.AddElement(awards, "movie-award", "green")
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Adopt(award, movie, "green"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Update(`for $m in document("db")/{green}descendant::movie
update $m { insert <votes>7</votes> }`); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`document("db")/{red}descendant::name`,
		`document("db")/{green}descendant::movie/{green}child::votes`,
		`document("db")/{red}descendant::movie/{red}attribute::year`,
		`for $a in document("db")/{green}descendant::movie-award, $m in $a/{green}child::movie
		 return $m/{red}child::name`,
	}
	answers := func(db *colorful.DB) []string {
		var out []string
		for _, q := range queries {
			items, err := db.Query(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			out = append(out, fmt.Sprint(len(items)))
			for _, it := range items {
				out = append(out, it.Value)
			}
		}
		return out
	}
	want := answers(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	got := reopen(t, dir, "red", "green")
	defer got.Close()
	if rec := got.Recovery(); !rec.CheckpointLoaded || rec.RecordsReplayed == 0 {
		t.Fatalf("recovery did not use both the checkpoint and the WAL: %+v", rec)
	}
	if m := got.MaintStats(); m.FullRebuilds != 0 || m.Publishes != 1 {
		t.Fatalf("reopen: %+v, want the recovered store published and no full rebuild", m)
	}
	if g := answers(got); fmt.Sprint(g) != fmt.Sprint(want) {
		t.Fatalf("answers after reopen:\n%v\nwant\n%v", g, want)
	}
	if _, err := got.Update(`for $m in document("db")/{green}descendant::movie
update $m { insert <votes>8</votes> }`); err != nil {
		t.Fatal(err)
	}
	items, err := got.Query(`document("db")/{green}descendant::votes`)
	if err != nil || len(items) != 16 {
		t.Fatalf("votes after an update on the recovered store: %d, %v", len(items), err)
	}
	if m := got.MaintStats(); m.FullRebuilds != 0 || m.IncrementalApplies != 1 {
		t.Fatalf("update after reopen: %+v, want one incremental apply onto the recovered store", m)
	}
}

// TestAttributeRenameIsIncremental: renaming an attribute logs its owner's
// attribute list, as setting one does, so the commit neither rebuilds the
// snapshot nor forces a checkpoint, and the compiled query of the new name
// answers alike before Close and after Open.
func TestAttributeRenameIsIncremental(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := colorful.Open(dir, "red")
	if err != nil {
		t.Fatal(err)
	}
	list, err := db.AddElement(db.Document(), "list", "red")
	if err != nil {
		t.Fatal(err)
	}
	var attrs []*colorful.Node
	for i := 0; i < 3; i++ {
		item, err := db.AddElementText(list, "item", "red", fmt.Sprint("v", i))
		if err != nil {
			t.Fatal(err)
		}
		a, err := db.SetAttribute(item, "old", fmt.Sprint("k", i))
		if err != nil {
			t.Fatal(err)
		}
		attrs = append(attrs, a)
	}
	const newQ = `for $i in document("db")/{red}descendant::item return $i/{red}attribute::new`
	if _, err := db.Explain(newQ); err != nil {
		t.Fatalf("the query does not compile: %v", err)
	}
	if out, err := db.Query(newQ); err != nil || len(out) != 0 {
		t.Fatalf("before the renames: %v, %v", out, err)
	}
	rebuilds, checkpoints := db.MaintStats().FullRebuilds, db.DurabilityStats().Checkpoints
	for _, a := range []*colorful.Node{attrs[0], attrs[2]} {
		if err := db.Rename(a, "new"); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.MaintStats().FullRebuilds; got != rebuilds {
		t.Errorf("the renames rebuilt the snapshot: %d full rebuilds, want %d", got, rebuilds)
	}
	if got := db.DurabilityStats().Checkpoints; got != checkpoints {
		t.Errorf("the renames forced a checkpoint: %d checkpoints, want %d", got, checkpoints)
	}
	values := func(db *colorful.DB) string {
		t.Helper()
		out, err := db.Query(newQ)
		if err != nil {
			t.Fatal(err)
		}
		var vs []string
		for _, it := range out {
			vs = append(vs, it.Value)
		}
		return fmt.Sprint(vs)
	}
	before := values(db)
	if before != "[k0 k2]" {
		t.Fatalf("after the renames: %s, want [k0 k2]", before)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	got := reopen(t, dir, "red")
	defer got.Close()
	if after := values(got); after != before {
		t.Fatalf("after Open: %s, before Close: %s", after, before)
	}
}
