package workload_test

import (
	"testing"

	"colorfulxml/internal/workload"
)

// TestScalingShape reproduces the paper's data-set scaling observation with
// deterministic operator counters instead of flaky wall-clock measurements:
// "most of the times scaled linearly with data set size. The only exceptions
// were the two queries involving an inequality value join, which is
// implemented as nested loops, and hence has a quadratic dependence on data
// set size."
func TestScalingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("loads two dataset scales")
	}
	st1, err := workload.LoadTPCW(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := workload.LoadTPCW(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	probes := func(id string, st *workload.Stores) (structJoins, valueJoins, contentReads int) {
		q := findQuery(t, id)
		_, m, err := workload.RunQuery(q, st, workload.MCT)
		if err != nil {
			t.Fatal(err)
		}
		return m.StructJoins, m.ValueJoins, m.ContentReads
	}

	// TQ2 (a scan + structural join): all counters grow roughly linearly.
	s1, _, c1 := probes("TQ2", st1)
	s2, _, c2 := probes("TQ2", st2)
	if ratio := float64(s2) / float64(s1); ratio < 1.4 || ratio > 3.0 {
		t.Errorf("TQ2 structural work scaled by %.2f, want ~2 (linear)", ratio)
	}
	if ratio := float64(c2) / float64(c1); ratio < 1.4 || ratio > 3.0 {
		t.Errorf("TQ2 content reads scaled by %.2f, want ~2 (linear)", ratio)
	}

	// TQ15 (the inequality nested-loop join): probe count grows roughly
	// quadratically (both join inputs double).
	_, v1, _ := probes("TQ15", st1)
	_, v2, _ := probes("TQ15", st2)
	if v1 == 0 {
		t.Fatal("TQ15 should perform nested-loop probes")
	}
	if ratio := float64(v2) / float64(v1); ratio < 2.8 || ratio > 6.0 {
		t.Errorf("TQ15 nested-loop probes scaled by %.2f, want ~4 (quadratic)", ratio)
	}
}
