package colorful

import (
	"errors"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"colorfulxml/internal/obs"
	"colorfulxml/internal/pagestore"
	"colorfulxml/internal/vfs"
)

// viewsCatalog is catalogDB's catalog with an id attribute on every item, in
// a durable database on a fault-injecting filesystem: built detached,
// attached in one commit, and checkpointed.
func viewsCatalog(t *testing.T, items int) (*DB, *vfs.FaultFS) {
	t.Helper()
	ffs := vfs.NewFaultFS(vfs.OS, 42)
	db, err := OpenOptions(filepath.Join(t.TempDir(), "db"), Options{
		FS: ffs, NoSync: true, ProbeInterval: 2 * time.Millisecond,
		Retry: &vfs.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Budget: time.Second, Sleep: func(time.Duration) {}},
	}, "red", "green")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	catalog, err := db.NewElement("catalog", "red")
	step(err)
	featured, err := db.NewElement("featured", "green")
	step(err)
	for k := 0; k < items; k++ {
		item, err := db.NewElement("item", "red")
		step(err)
		step(db.Append(catalog, item, "red"))
		_, err = db.AddElementText(item, "name", "red", "Item "+strconv.Itoa(k))
		step(err)
		_, err = db.SetAttribute(item, "id", "i"+strconv.Itoa(k))
		step(err)
		if k%3 == 0 {
			step(db.Adopt(featured, item, "green"))
			_, err = db.AddElementText(item, "votes", "green", strconv.Itoa(k%50))
			step(err)
		}
	}
	step(db.Append(db.Document(), catalog, "red"))
	step(db.Append(db.Document(), featured, "green"))
	step(db.Checkpoint())
	return db, ffs
}

// TestHeldValuesSurviveEveryPagePath: the values of a kept 20 000-row leaf
// answer and of a kept attribute answer are views of the published pages'
// records, and commits that take every page path leave each of them as it
// was: overwrites past pagestore.MaxPatches (a patch list folded into a fresh
// image), overwrites of the viewed records themselves, deletes of them,
// appends to the pages they sit on, a checkpoint, and a degrade whose
// rollback replays onto a clone, then the heal. A reader compares the kept
// values all the while, so that under -race a write to the bytes they view
// is a reported race as well as a changed value.
func TestHeldValuesSurviveEveryPagePath(t *testing.T) {
	const items = 20000
	const (
		leafQ = `document("db")/{red}descendant::item/{red}child::name`
		attrQ = `for $i in document("db")/{red}descendant::item return $i/{red}attribute::id`
	)
	db, ffs := viewsCatalog(t, items)
	sess := db.Session()
	defer sess.Close()
	var kept, want [2][]Item
	for i, q := range []string{leafQ, attrQ} {
		out, err := sess.Query(q)
		if err != nil || len(out) != items {
			t.Fatalf("%s: %d items, %v", q, len(out), err)
		}
		kept[i], want[i] = out, cloneItems(out)
	}
	same := func() string {
		for i := range kept {
			if diff := sameItems(kept[i], want[i]); diff != "" {
				return diff
			}
		}
		return ""
	}
	stop, changed := make(chan struct{}), make(chan string, 1)
	go func() {
		defer close(changed)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if diff := same(); diff != "" {
				changed <- diff
				return
			}
		}
	}()
	update := func(src string) {
		t.Helper()
		if res, err := db.Update(src); err != nil || res.Tuples != 1 {
			t.Fatalf("%s: %+v, %v", src, res, err)
		}
	}
	check := func(after string) {
		t.Helper()
		if diff := same(); diff != "" {
			t.Fatalf("after %s, a kept value changed: %s", after, diff)
		}
	}

	copied := obs.Default.Snapshot().Counters["pagestore_pages_copied_total"]
	for n := 0; n < 3*pagestore.MaxPatches; n++ {
		update(catalogItem(3*n) + `, $v in $i/{green}child::votes update $i { replace $v with "` + strconv.Itoa(n%10) + `" }`)
	}
	for k := 0; k < 10; k++ {
		update(catalogItem(k) + ` update $i { replace $n with "Xtem ` + strconv.Itoa(k) + `" }`)
	}
	check("overwrites")
	if obs.Default.Snapshot().Counters["pagestore_pages_copied_total"] == copied {
		t.Fatal("no overwrite folded its page's patches into a fresh image")
	}
	for k := 100; k < 120; k++ {
		update(catalogItem(k) + ` update $i { delete $n }`)
	}
	check("deletes")
	for k := items - 20; k < items; k++ {
		update(catalogItem(k) + ` update $i { insert <tag>t` + strconv.Itoa(k) + `</tag> }`)
	}
	check("inserts")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check("a checkpoint")

	ffs.SetStanding(vfs.Permanent(vfs.ErrIO))
	if _, err := db.Update(catalogItem(50) + ` update $i { replace $n with "Ytem 50" }`); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("a commit during an outage: %v, want ErrReadOnly", err)
	}
	check("a degrade's rollback")
	ffs.Clear()
	for deadline := time.Now().Add(10 * time.Second); db.Health() != Healthy; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("health %v, not healed", db.Health())
		}
	}
	update(catalogItem(70) + ` update $i { replace $n with "Ztem 70" }`)
	check("the heal")

	close(stop)
	if diff := <-changed; diff != "" {
		t.Fatalf("a kept value changed under a reader: %s", diff)
	}
	now, err := sess.Query(leafQ)
	if err != nil || len(now) != items-20 || now[70].Value != "Ztem 70" {
		t.Fatalf("the commits did not change the answer: %d rows, %v", len(now), err)
	}
}
