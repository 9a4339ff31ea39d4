package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"colorfulxml/colorful"
)

// The dataset, the query/update classes and the seeded schedules live here
// and nowhere else: the benchmark owns its inputs, so editing the repo's
// datagen/workload/experiment packages cannot change what is measured.

// populate builds the catalog through the public facade: red
// catalog → item* → name("Item k"); every third item is adopted under green
// featured and given a green votes(k mod 50) leaf.
func populate(db *colorful.DB, items int) error {
	catalog, err := db.AddElement(db.Document(), "catalog", "red")
	if err != nil {
		return err
	}
	featured, err := db.AddElement(db.Document(), "featured", "green")
	if err != nil {
		return err
	}
	for k := 0; k < items; k++ {
		item, err := db.AddElement(catalog, "item", "red")
		if err != nil {
			return err
		}
		if _, err := db.AddElementText(item, "name", "red", itemName(k)); err != nil {
			return err
		}
		if k%3 == 0 {
			if err := db.Adopt(featured, item, "green"); err != nil {
				return err
			}
			if _, err := db.AddElementText(item, "votes", "green", strconv.Itoa(k%50)); err != nil {
				return err
			}
		}
	}
	return nil
}

func itemName(k int) string { return "Item " + strconv.Itoa(k) }

// Query classes. The class names are used in metric suffixes.
const (
	qPathscan = `document("db")/{red}descendant::item/{red}child::name`
	qFlwor    = `for $i in document("db")/{green}descendant::item return $i/{green}child::votes`
	qAllTags  = `document("db")/{red}descendant::tag`
	// uSubtreeAdd lands a two-level subtree at once: ChangeComplex, so a
	// full snapshot rebuild (and, on a durable database, a forced
	// checkpoint). Probe only.
	uSubtreeAdd = `for $c in document("db")/{red}child::catalog update $c { insert <item><name>Item new</name></item> }`
)

func qPoint(k int) string {
	return `document("db")/{red}descendant::name[. = "` + itemName(k) + `"]`
}

func qPredjoin(k int) string {
	return `document("db")/{red}descendant::item[{red}child::name = "` + itemName(k) + `"]/{red}child::name`
}

func qCrosscolor(v int) string {
	return `for $i in document("db")/{green}descendant::item[{green}child::votes = "` + strconv.Itoa(v) + `"] return $i/{red}child::name`
}

// qHop is the paper's find-then-change-colour query; k must be a multiple
// of 3 for it to return a row.
func qHop(k int) string {
	return qPoint(k) + `/{red}parent::item/{green}child::votes`
}

// qTag is a point-shaped content probe for one tag leaf.
func qTag(tag string) string {
	return `document("db")/{red}descendant::tag[. = "` + tag + `"]`
}

func qTagOwner(tag string) string {
	return qTag(tag) + `/{red}parent::item/{red}child::name`
}

// forItem binds $i to item k the way a user without node handles would:
// name probe, then parent.
func forItem(k int) string {
	return `for $n in ` + qPoint(k) + `, $i in $n/{red}parent::item`
}

func uVote(k int, v string) string {
	return forItem(k) + `, $v in $i/{green}child::votes update $i { replace $v with "` + v + `" }`
}

func uTagAdd(k int, tag string) string {
	return forItem(k) + ` update $i { insert <tag>` + tag + `</tag> }`
}

func uTagDel(k int, tag string) string {
	return forItem(k) + `, $t in $i/{red}child::tag[. = "` + tag + `"] update $i { delete $t }`
}

// classTexts returns one text per read class, keyed by class name, for the
// compile/exec probes and the wire-vs-embedded oracle.
func classTexts(items int) map[string]string {
	k := 3 * (items / 6) // a multiple of 3 in the middle of the catalog
	return map[string]string{
		"point":      qPoint(k),
		"pathscan":   qPathscan,
		"predjoin":   qPredjoin(k),
		"flwor":      qFlwor,
		"crosscolor": qCrosscolor(7),
		"hop":        qHop(k),
	}
}

var classNames = []string{"point", "pathscan", "predjoin", "flwor", "crosscolor", "hop"}

func featuredCount(items int) int { return (items + 2) / 3 }

// crosscolorCount is the number of generated items whose votes equal v.
func crosscolorCount(items, v int) int {
	n := 0
	for k := 0; k < items; k += 3 {
		if k%50 == v {
			n++
		}
	}
	return n
}

// call is one pre-rendered request with its expected single-row answer.
type call struct {
	text string
	want string
}

const (
	hotKeys  = 64 // fits the 256-entry plan cache
	stmtKeys = 16
	tagLag   = 8 // a tag is deleted this many ops after it was added
)

// pointSchedule pre-renders n one-shot point calls: nine in ten from a hot
// set of 64 keys (plan-cache hits), every tenth uniform (miss →
// parse+compile). The share is exact, so it does not vary with the seed.
func pointSchedule(rng *rand.Rand, items, n int) (sched []call, hot []int) {
	hot = rng.Perm(items)[:min(hotKeys, items)]
	sched = make([]call, n)
	for i := range sched {
		k := hot[rng.Intn(len(hot))]
		if i%10 == 9 {
			k = rng.Intn(items)
		}
		sched[i] = call{qPoint(k), itemName(k)}
	}
	return sched, hot
}

// voteStep is one pre-rendered vote update.
type voteStep struct {
	key  int
	val  string
	text string
}

// voteSchedule pre-renders n votes over the featured items accepted by ok.
func voteSchedule(rng *rand.Rand, items, n int, ok func(k int) bool) []voteStep {
	var keys []int
	for k := 0; k < items; k += 3 {
		if ok(k) {
			keys = append(keys, k)
		}
	}
	sched := make([]voteStep, n)
	for i := range sched {
		k := keys[rng.Intn(len(keys))]
		v := strconv.Itoa(50 + rng.Intn(50))
		sched[i] = voteStep{k, v, uVote(k, v)}
	}
	return sched
}

// tagStep is one pre-rendered tag-add with the matching delete and the
// read-your-write probe.
type tagStep struct {
	key       int
	tag       string
	add, del  string
	probe     call
	userBytes int
}

func tagSchedule(rng *rand.Rand, items, n int) []tagStep {
	sched := make([]tagStep, n)
	for i := range sched {
		k := rng.Intn(items)
		tag := "t" + strconv.Itoa(i)
		sched[i] = tagStep{
			key: k, tag: tag,
			add: uTagAdd(k, tag), del: uTagDel(k, tag),
			probe:     call{qTag(tag), tag},
			userBytes: len("tag") + len(tag),
		}
	}
	return sched
}

// votesModel replays the first done ops of each client's vote schedule over
// the generated votes and returns the expected census in green document
// order (item 0, 3, 6, ...).
func votesModel(items int, scheds [][]voteStep, done []int) []string {
	votes := make([]string, featuredCount(items))
	for j := range votes {
		votes[j] = strconv.Itoa((3 * j) % 50)
	}
	for c, sched := range scheds {
		for i := 0; i < done[c]; i++ {
			st := sched[i%len(sched)]
			votes[st.key/3] = st.val
		}
	}
	return votes
}

// checkVotes compares the database's votes census with the model.
func checkVotes(query func(string) ([]string, error), want []string) error {
	got, err := query(qFlwor)
	if err != nil {
		return fmt.Errorf("votes census: %w", err)
	}
	if len(got) != len(want) {
		return fmt.Errorf("votes census: %d votes, model has %d", len(got), len(want))
	}
	for j := range got {
		if got[j] != want[j] {
			return fmt.Errorf("votes census: item %d has votes %q, model says %q", 3*j, got[j], want[j])
		}
	}
	return nil
}

// checkTags verifies that exactly the last tagLag tags of the schedule are
// present, each under the item it was added to.
func checkTags(query func(string) ([]string, error), sched []tagStep, done int) error {
	var want []string
	for i := max(0, done-tagLag); i < done; i++ {
		st := sched[i%len(sched)]
		want = append(want, st.tag)
		owner, err := query(qTagOwner(st.tag))
		if err != nil {
			return fmt.Errorf("tag census: %w", err)
		}
		if len(owner) != 1 || owner[0] != itemName(st.key) {
			return fmt.Errorf("tag census: tag %s is under %v, model says %s", st.tag, owner, itemName(st.key))
		}
	}
	got, err := query(qAllTags)
	if err != nil {
		return fmt.Errorf("tag census: %w", err)
	}
	sort.Strings(got)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("tag census: database has tags %v, model has %v", got, want)
	}
	return nil
}
