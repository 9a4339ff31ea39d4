package update

import (
	"runtime"
	"testing"
)

// TestParseKeepsNoTokenSlice: parsing the write benchmark's vote text lexes
// on demand, two tokens ahead, and keeps no slice of every token (about
// 1.6 kB for this text), so a parse allocates little more than its syntax
// tree, about 1.4 kB.
func TestParseKeepsNoTokenSlice(t *testing.T) {
	const vote = `for $n in document("db")/{red}descendant::name[. = "Item 1234"], $i in $n/{red}parent::item, ` +
		`$v in $i/{green}child::votes update $i { replace $v with "57" }`
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Parse(vote); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perParse := (after.TotalAlloc - before.TotalAlloc) / runs; perParse > 2000 {
		t.Fatalf("a parse of the vote text allocates %d B, want at most 2000", perParse)
	}
}
