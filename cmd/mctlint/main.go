// Command mctlint runs the repo's static-analysis suite (internal/lint)
// over a package pattern and fails if any invariant is violated:
//
//	mctlint [-list] [-json] [-analyzer name,name] [packages]
//
// With no packages it analyzes ./.... Each diagnostic prints as
// file:line:col: message (analyzer); the exit status is 1 if anything was
// reported, 2 on a loading or internal error. -list prints the analyzers
// and what each one guards; -analyzer restricts the run to a
// comma-separated subset; -json emits the findings as a JSON document on
// stdout (the shape CI archives as an artifact) instead of text.
//
// The analyzers mechanize invariants that are otherwise enforced only by
// review: vfsonly (file I/O through internal/vfs), commitscope
// (mutations only inside commit/commitLocked), ctxpoll (operator cancellation
// polls), errwrapsentinel (errors.Is/As and %w for sentinels), determinism
// (seeded randomness and sorted map iteration in crashtest/WAL/checkpoint
// code), atomicsnapshot (atomic access to the published snapshot),
// obsregister (obs instruments registered once, at package init, under
// snake_case literal names) — and the whole-program concurrency suite:
// lockorder (the mutex-acquisition graph is acyclic and matches the
// DESIGN.md lock-order table), goroutineleak (every go statement has a
// visible termination path), batchalias (no batch row view outlives its
// batch's recycling), healthtransition (serving-state writes only through
// transitionHealth, along legal state-machine edges).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"colorfulxml/internal/lint"
)

// jsonFinding is the externally-consumed report shape; internal/lint's
// Finding deliberately carries no JSON tags, so the driver owns the format.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

type jsonReport struct {
	Count    int           `json:"count"`
	Findings []jsonFinding `json:"findings"`
}

func main() {
	list := flag.Bool("list", false, "print the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON document on stdout")
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

	if *jsonOut {
		report := jsonReport{Count: len(findings), Findings: []jsonFinding{}}
		for _, f := range findings {
			report.Findings = append(report.Findings, jsonFinding{
				Analyzer: f.Analyzer,
				File:     f.Position.Filename,
				Line:     f.Position.Line,
				Column:   f.Position.Column,
				Message:  f.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "mctlint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "mctlint: %d diagnostic(s)\n", len(findings))
		os.Exit(1)
	}
}
