package pathexpr

import "testing"

// TestCompareAtomsTextDoesNotAllocate: an update binds its node by an
// evaluator walk that compares every candidate's text with a literal, and
// each such comparison used to run a dozen failing strconv parses.
func TestCompareAtomsTextDoesNotAllocate(t *testing.T) {
	var l, r any = "Item 7", "Item 42"
	for _, op := range []BinaryOp{OpEq, OpLt} {
		if n := testing.AllocsPerRun(100, func() {
			if ok, err := compareAtoms(op, l, r); err != nil || ok != (op == OpLt && "Item 7" < "Item 42") {
				t.Fatal(ok, err)
			}
		}); n != 0 {
			t.Errorf("comparing text allocates %v times", n)
		}
	}
	for _, c := range []struct {
		l, r any
		want bool
	}{
		{" 7 ", int64(7), true},
		{"1e3", "1000", true},
		{"+1", 1.0, true},
		{"Item 7", int64(7), false},
		{"nan", "nan", false}, // NaN compares unequal to itself, as before
	} {
		if got, err := compareAtoms(OpEq, c.l, c.r); err != nil || got != c.want {
			t.Errorf("%#v = %#v: %v, %v", c.l, c.r, got, err)
		}
	}
}
