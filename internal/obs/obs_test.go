package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestHistogramQuantilesConcurrent drives one histogram from several
// goroutines with a known uniform distribution and checks that the quantile
// estimates land inside the power-of-two bucket holding the true quantile —
// the histogram's stated resolution guarantee — and that no observation is
// lost (the -race build of this test is the concurrency contract).
func TestHistogramQuantilesConcurrent(t *testing.T) {
	const (
		workers = 8
		perW    = 2000 // values 1..workers*perW, uniform
	)
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= perW; i++ {
				h.Observe(int64(w*perW + i))
			}
		}(w)
	}
	wg.Wait()

	n := int64(workers * perW)
	if got := h.Count(); got != uint64(n) {
		t.Fatalf("Count = %d, want %d", got, n)
	}
	if want := n * (n + 1) / 2; h.Sum() != want {
		t.Fatalf("Sum = %d, want %d", h.Sum(), want)
	}
	if h.Max() != n {
		t.Fatalf("Max = %d, want %d", h.Max(), n)
	}
	for _, tc := range []struct{ q, exact float64 }{
		{0.50, float64(n) * 0.50},
		{0.95, float64(n) * 0.95},
		{0.99, float64(n) * 0.99},
	} {
		got := h.Quantile(tc.q)
		lo, hi := bucketBounds(bucketOf(int64(tc.exact)))
		if got < float64(lo) || got > float64(hi) {
			t.Errorf("Quantile(%.2f) = %.0f, want within bucket [%d, %d] of exact %.0f",
				tc.q, got, lo, hi, tc.exact)
		}
	}
}

func TestHistogramEdges(t *testing.T) {
	var h Histogram
	if q := h.Quantile(0.5); q != 0 {
		t.Errorf("empty Quantile = %v, want 0", q)
	}
	h.Observe(0)
	h.Observe(-5) // clamps to 0
	if h.Count() != 2 || h.Sum() != 0 || h.Max() != 0 {
		t.Errorf("zero observations: count=%d sum=%d max=%d", h.Count(), h.Sum(), h.Max())
	}
	if q := h.Quantile(1); q != 0 {
		t.Errorf("Quantile(1) of zeros = %v, want 0", q)
	}
	h.Observe(1 << 40)
	if got := h.Quantile(1); got < float64(int64(1)<<39) {
		t.Errorf("Quantile(1) = %v, want >= 2^39", got)
	}
}

// TestSlowLogEvictionOrder fills a ring past capacity and checks that the
// oldest entries are evicted first and Entries returns newest-first with
// monotonic sequence numbers.
func TestSlowLogEvictionOrder(t *testing.T) {
	l := NewSlowLog(4)
	for i := 1; i <= 7; i++ {
		l.Add(SlowQuery{Query: fmt.Sprintf("q%d", i)})
	}
	if l.Len() != 4 {
		t.Fatalf("Len = %d, want 4", l.Len())
	}
	got := l.Entries()
	want := []string{"q7", "q6", "q5", "q4"} // q1..q3 evicted, newest first
	if len(got) != len(want) {
		t.Fatalf("Entries = %d entries, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.Query != want[i] {
			t.Errorf("Entries[%d] = %q, want %q", i, e.Query, want[i])
		}
		if wantSeq := uint64(7 - i); e.Seq != wantSeq {
			t.Errorf("Entries[%d].Seq = %d, want %d", i, e.Seq, wantSeq)
		}
	}
}

func TestSlowLogPartialFill(t *testing.T) {
	l := NewSlowLog(8)
	l.Add(SlowQuery{Query: "a"})
	l.Add(SlowQuery{Query: "b"})
	got := l.Entries()
	if len(got) != 2 || got[0].Query != "b" || got[1].Query != "a" {
		t.Fatalf("Entries = %+v, want [b a]", got)
	}
}

func TestRegistryNamingAndDuplicates(t *testing.T) {
	r := NewRegistry()
	r.Counter("sub_events_total")
	for _, bad := range []string{"NoCase", "single", "sub__x", "_sub_x", "sub_x_"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Counter(%q) did not panic", bad)
				}
			}()
			r.Counter(bad)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("duplicate registration did not panic")
			}
		}()
		r.Gauge("sub_events_total")
	}()
	// A labeled series coexists with the unlabeled total of its family;
	// a repeated series or a malformed label does not register.
	r.LabeledCounter("sub_events_total", "route", "fast")
	r.LabeledCounter("sub_events_total", "route", "slow")
	for _, bad := range [][3]string{
		{"sub_events_total", "route", "fast"},
		{"sub_events_total", "Route", "x"},
		{"sub_events_total", "route", "has space"},
		{"single", "route", "x"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LabeledCounter(%q, %q, %q) did not panic", bad[0], bad[1], bad[2])
				}
			}()
			r.LabeledCounter(bad[0], bad[1], bad[2])
		}()
	}
}

func TestSnapshotJSONAndText(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_events_total").Add(3)
	r.LabeledCounter("a_events_total", "kind", "odd").Add(2)
	r.Gauge("a_depth_current").Set(-2)
	h := r.Histogram("a_wait_nanos")
	h.Observe(100)
	h.Observe(200)

	s := r.Snapshot()
	if s.Counters["a_events_total"] != 3 {
		t.Errorf("counter in snapshot = %d, want 3", s.Counters["a_events_total"])
	}
	if s.Gauges["a_depth_current"] != -2 {
		t.Errorf("gauge in snapshot = %d, want -2", s.Gauges["a_depth_current"])
	}
	if st := s.Histograms["a_wait_nanos"]; st.Count != 2 || st.Sum != 300 || st.Max != 200 {
		t.Errorf("histogram stat = %+v", st)
	}

	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !strings.Contains(string(b), `"a_events_total":3`) {
		t.Errorf("JSON missing counter: %s", b)
	}

	var txt strings.Builder
	if err := s.WriteText(&txt); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	for _, want := range []string{
		"counter a_events_total 3\n",
		"counter a_events_total{kind=\"odd\"} 2\n",
		"gauge a_depth_current -2\n",
		"histogram a_wait_nanos count=2 sum=300 max=200",
	} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("text output missing %q:\n%s", want, txt.String())
		}
	}
}

// TestSpanTree exercises parent/child structure, attributes, concurrent
// child creation, and the JSON export shape.
func TestSpanTree(t *testing.T) {
	root := NewSpan("query")
	root.SetAttr("src", "doc()")
	exec := root.Child("execute")

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := exec.Child(fmt.Sprintf("worker-%d", w))
			c.SetAttr("rows", w*10)
			c.End()
		}(w)
	}
	wg.Wait()
	exec.End()
	root.End()

	if got := len(exec.Children()); got != 4 {
		t.Fatalf("execute children = %d, want 4", got)
	}
	if root.Find("worker-2") == nil {
		t.Errorf("Find(worker-2) = nil")
	}
	if root.DurNanos() < 0 {
		t.Errorf("root duration negative")
	}

	b, err := json.Marshal(root)
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var decoded struct {
		Name     string `json:"name"`
		DurNs    int64  `json:"dur_ns"`
		Children []struct {
			Name     string `json:"name"`
			Children []struct {
				Name  string `json:"name"`
				Attrs []Attr `json:"attrs"`
			} `json:"children"`
		} `json:"children"`
	}
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if decoded.Name != "query" || len(decoded.Children) != 1 || len(decoded.Children[0].Children) != 4 {
		t.Fatalf("unexpected tree shape: %s", b)
	}
}

func TestSpanSetDurNanos(t *testing.T) {
	s := NewSpan("op")
	s.SetDurNanos(12345)
	s.End() // must not overwrite
	if s.DurNanos() != 12345 {
		t.Errorf("DurNanos = %d, want 12345", s.DurNanos())
	}
}

func TestStopwatch(t *testing.T) {
	sw := Start()
	if e := sw.ElapsedNanos(); e < 0 {
		t.Errorf("elapsed negative: %d", e)
	}
}
