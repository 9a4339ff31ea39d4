package experiment

import (
	"strings"
	"testing"

	"colorfulxml/internal/workload"
)

var testCfg = Config{TPCWScale: 1, SigmodScale: 1, Seed: 1}

func TestTable1Shapes(t *testing.T) {
	rows, err := Table1(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	byKey := map[string]Table1Row{}
	for _, r := range rows {
		byKey[r.Dataset+"/"+string(r.Variant)] = r
	}
	tp := func(v workload.Variant) Table1Row { return byKey["TPC-W/"+string(v)] }
	// The paper's Table 1 orderings.
	if tp(workload.Deep).Elements <= tp(workload.Shallow).Elements {
		t.Fatal("deep must have more elements than shallow")
	}
	if !(tp(workload.Shallow).DataMB < tp(workload.MCT).DataMB) {
		t.Fatal("MCT data must exceed shallow's (structural nodes per color)")
	}
	if tp(workload.MCT).StructNodes <= tp(workload.MCT).Elements {
		t.Fatal("MCT structural nodes must exceed its elements")
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "TPC-W") || !strings.Contains(out, "SIGMOD-Record") {
		t.Fatalf("format: %s", out)
	}
}

func TestTable2SmokeAndFormat(t *testing.T) {
	res, err := Table2(testCfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 27 { // 16 TQ + 4 TU + 5 SQ + 2 SU
		t.Fatalf("rows = %d, want 27", len(res.Rows))
	}
	ids := map[string]bool{}
	for _, r := range res.Rows {
		ids[r.ID] = true
		if !r.IsUpdate && r.Results == 0 {
			t.Errorf("%s: zero results", r.ID)
		}
		if r.MCT < 0 || r.Shallow < 0 || r.Deep < 0 {
			t.Errorf("%s: negative time", r.ID)
		}
	}
	for _, want := range []string{"TQ1", "TQ16", "TU1", "SQ5", "SU2"} {
		if !ids[want] {
			t.Errorf("missing row %s", want)
		}
	}
	out := FormatTable2(res)
	if !strings.Contains(out, "TQ7") || !strings.Contains(out, "Colors") {
		t.Fatalf("format:\n%s", out)
	}
	// Deep returns one row per replicated copy on TQ7, and TU1 rewrites
	// every copy of the item.
	for _, r := range res.Rows {
		if (r.ID == "TQ7" || r.ID == "TU1") && r.DResults <= r.Results {
			t.Errorf("%s: deep counts %d, want more than the %d results", r.ID, r.DResults, r.Results)
		}
	}
	if !strings.Contains(out, "(") {
		t.Fatalf("format shows no deep copy count:\n%s", out)
	}
}

func TestFiguresShapes(t *testing.T) {
	rows, err := Figures()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 15 {
		t.Fatalf("figure rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Shallow.Bindings < r.MCT.Bindings {
			t.Errorf("%s: shallow bindings %d < MCT %d", r.ID, r.Shallow.Bindings, r.MCT.Bindings)
		}
		if r.Deep.Bindings > r.MCT.Bindings {
			t.Errorf("%s: deep bindings %d > MCT %d (deep should be simplest)",
				r.ID, r.Deep.Bindings, r.MCT.Bindings)
		}
	}
	f11 := FormatFigure(rows, true)
	f12 := FormatFigure(rows, false)
	if !strings.Contains(f11, "path expressions") || !strings.Contains(f12, "variable bindings") {
		t.Fatal("figure headers wrong")
	}
}

func TestTrimmedMean(t *testing.T) {
	calls := 0
	v, err := trimmedMean(5, func() error { calls++; return nil })
	if err != nil || calls != 5 {
		t.Fatalf("calls = %d, err %v", calls, err)
	}
	if v < 0 {
		t.Fatal("negative mean")
	}
	calls = 0
	if _, err := trimmedMean(1, func() error { calls++; return nil }); err != nil || calls != 1 {
		t.Fatalf("runs=1: calls = %d", calls)
	}
}
