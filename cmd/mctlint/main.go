// Command mctlint runs the repo's static-analysis suite (internal/lint)
// over a package pattern and fails if any invariant is violated:
//
//	mctlint [-list] [-analyzer name,name] [packages]
//
// With no packages it analyzes ./.... Each diagnostic prints as
// file:line:col: message (analyzer); the exit status is 1 if anything was
// reported, 2 on a loading or internal error. -list prints the analyzers
// and what each one guards; -analyzer restricts the run to a
// comma-separated subset.
//
// The analyzers guard invariants nothing else checks (DESIGN.md §9):
// vfsonly (file I/O through internal/vfs), commitscope (mutations only
// inside commit/commitLocked), sessionclose (every Session/Stmt reaches
// Close), ctxpoll (operator cancellation polls), errwrapsentinel
// (errors.Is/As and %w for sentinels), determinism (seeded randomness and
// sorted map iteration in crashtest/WAL/checkpoint code), lockorder (the
// mutex-acquisition graph is acyclic and matches the DESIGN.md lock-order
// table) and batchalias (no batch row view outlives its batch's recycling).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"colorfulxml/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "print the analyzers and exit")
	only := flag.String("analyzer", "", "comma-separated analyzer names to run (default: all)")
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	if *only != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "mctlint: unknown analyzer %q (use -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
		if len(analyzers) == 0 {
			fmt.Fprintln(os.Stderr, "mctlint: -analyzer selected nothing")
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mctlint:", err)
		os.Exit(2)
	}
	findings, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mctlint:", err)
		os.Exit(2)
	}

	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "mctlint: %d diagnostic(s)\n", len(findings))
		os.Exit(1)
	}
}
