// The tpcw example generates the TPC-W dataset in all three representations
// (multi-colored, shallow with ID/IDREFs, deep with replication), loads each
// into the Timber-style physical store, and runs a selection of the paper's
// Table 2 queries on each, compiled from their texts — printing result
// counts, wall-clock times and the operator mix (structural joins vs. value
// joins vs. color crossings) that explains them.
package main

import (
	"fmt"
	"log"
	"time"

	"colorfulxml/internal/workload"
)

func main() {
	fmt.Println("generating TPC-W at scale 2 (three representations) ...")
	st, err := workload.LoadTPCW(2, 1)
	if err != nil {
		log.Fatal(err)
	}
	for _, v := range workload.Variants {
		c := st.Of(v).Counts()
		data, _ := st.Of(v).DataBytes()
		fmt.Printf("  %-8s %7d elements, %7d structural nodes, %6.2f MB data\n",
			v, c.Elements, c.StructNodes, float64(data)/(1<<20))
	}

	interesting := map[string]bool{
		"TQ1": true, "TQ3": true, "TQ7": true, "TQ9": true,
		"TQ13": true, "TQ16": true,
	}
	fmt.Printf("\n%-5s %-26s %8s  %10s %10s %10s   %s\n",
		"query", "", "results", "MCT", "Shallow", "Deep", "why")
	for _, q := range workload.TPCWQueries() {
		if !interesting[q.ID] {
			continue
		}
		var times [3]time.Duration
		var results int
		var mctMetrics, shMetrics string
		for i, v := range workload.Variants {
			// One untimed run, then time.
			if _, _, err := workload.RunQuery(q, st, v); err != nil {
				log.Fatalf("%s/%s: %v", q.ID, v, err)
			}
			start := time.Now()
			out, m, err := workload.RunQuery(q, st, v)
			if err != nil {
				log.Fatal(err)
			}
			times[i] = time.Since(start)
			if v == workload.MCT {
				results = len(out)
				// An identity join ($o = $a) is a crossing between variables.
				mctMetrics = fmt.Sprintf("MCT: %d struct joins, %d crossings",
					m.StructJoins, m.CrossJoins+m.IDJoins)
			}
			if v == workload.Shallow {
				shMetrics = fmt.Sprintf("shallow: %d value-join probes", m.ValueJoins)
			}
		}
		fmt.Printf("%-5s %-26s %8d  %10v %10v %10v   %s; %s\n",
			q.ID, truncate(q.Desc, 26), results, times[0].Round(time.Microsecond),
			times[1].Round(time.Microsecond), times[2].Round(time.Microsecond),
			mctMetrics, shMetrics)
	}

	fmt.Println("\nTable 2's qualitative claims (EXPERIMENTS.md has which hold):")
	fmt.Println("  - single-hierarchy queries (TQ1): all three representations comparable")
	fmt.Println("  - multi-tree queries (TQ9, TQ13): shallow pays value joins")
	fmt.Println("  - replicated-entity queries (TQ7): deep scans one copy per order line")
	fmt.Println("  - TQ16: MCT folds three value joins into one hierarchy and a crossing")
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
