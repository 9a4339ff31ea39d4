// Command mctbench regenerates the paper's evaluation artifacts: Table 1
// (storage requirements), Table 2 (query and update processing time) and
// Figures 11/12 (query specification complexity), over freshly generated
// TPC-W and SIGMOD-Record datasets in all three representations. Table 2
// runs every query and update text through the plan compiler.
//
// Usage:
//
//	mctbench [-table1] [-table2] [-fig11] [-fig12] [-all]
//	         [-tpcw-scale N] [-sigmod-scale N] [-seed N] [-runs N]
//
// Performance of the serving stack is measured by the nested bench/ module
// (BENCHMARK.json), not here.
package main

import (
	"flag"
	"fmt"
	"os"

	"colorfulxml/internal/experiment"
)

func main() {
	var (
		table1 = flag.Bool("table1", false, "print Table 1 (storage requirements)")
		table2 = flag.Bool("table2", false, "print Table 2 (query processing time)")
		fig11  = flag.Bool("fig11", false, "print Figure 11 (number of path expressions)")
		fig12  = flag.Bool("fig12", false, "print Figure 12 (number of variable bindings)")
		all    = flag.Bool("all", false, "print everything")
		tpcw   = flag.Int("tpcw-scale", experiment.DefaultConfig.TPCWScale, "TPC-W scale factor")
		sigmod = flag.Int("sigmod-scale", experiment.DefaultConfig.SigmodScale, "SIGMOD-Record scale factor")
		seed   = flag.Int64("seed", experiment.DefaultConfig.Seed, "generator seed")
		runs   = flag.Int("runs", 5, "timed runs per query (5 = paper's trimmed mean)")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "mctbench:", err)
		os.Exit(1)
	}

	if !*table1 && !*table2 && !*fig11 && !*fig12 {
		*all = true
	}
	cfg := experiment.Config{TPCWScale: *tpcw, SigmodScale: *sigmod, Seed: *seed}

	if *all || *table1 {
		rows, err := experiment.Table1(cfg)
		if err != nil {
			fail(err)
		}
		fmt.Println("=== Table 1: Storage Requirement ===")
		fmt.Print(experiment.FormatTable1(rows))
		fmt.Println()
	}
	if *all || *table2 {
		res, err := experiment.Table2(cfg, *runs)
		if err != nil {
			fail(err)
		}
		fmt.Println("=== Table 2: Query Processing Time (warm cache) ===")
		fmt.Print(experiment.FormatTable2(res))
		fmt.Println()
	}
	runFigures(*all, *fig11, *fig12, fail)
}

func runFigures(all, fig11, fig12 bool, fail func(error)) {
	if all || fig11 || fig12 {
		rows, err := experiment.Figures()
		if err != nil {
			fail(err)
		}
		if all || fig11 {
			fmt.Println("=== Figure 11 ===")
			fmt.Print(experiment.FormatFigure(rows, true))
			fmt.Println()
		}
		if all || fig12 {
			fmt.Println("=== Figure 12 ===")
			fmt.Print(experiment.FormatFigure(rows, false))
			fmt.Println()
		}
	}
}
