package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// These tests hold BENCHMARK.json to the rules of the gate that reads it,
// and the driver's output to the names the manifest declares.

const repoRoot = ".."

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

func TestManifestRules(t *testing.T) {
	path := filepath.Join(repoRoot, "BENCHMARK.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("key %q missing", k)
		}
	}
	m, err := readManifest(path) // rejects unknown keys at every level
	if err != nil {
		t.Fatal(err)
	}

	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
	for _, p := range m.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q is not a plain relative path", p)
		}
	}
	if len(m.Command) < 1 || len(m.Command) > 32 {
		t.Errorf("command has %d elements, want 1..32", len(m.Command))
	}
	for _, arg := range m.Command {
		if len(arg) > 200 || strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command element %q is too long, absolute or leaves the repository", arg)
		}
		if strings.Contains(arg, "/") && !strings.HasPrefix(arg, "bench/") {
			t.Errorf("command element %q names a file outside paths", arg)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", m.RunSeconds)
	}
	if f := float64(defaultSeconds); f != float64(m.RunSeconds) {
		t.Errorf("-seconds defaults to %g, run_seconds is %d", f, m.RunSeconds)
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q breaks the name rule", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(m.Workloads))
	}
	for i, w := range m.Workloads {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
		if i >= len(specs) || specs[i].name != w.Name {
			t.Errorf("workload %d is %q in the manifest but not in the driver", i, w.Name)
		}
	}
	if len(m.Workloads) != len(specs) {
		t.Errorf("manifest declares %d workloads, the driver has %d", len(m.Workloads), len(specs))
	}

	if len(m.EndToEnd) < 1 || len(m.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(m.EndToEnd))
	}
	var setup *metricDecl
	largest := 0.0
	for i, d := range m.EndToEnd {
		name("end-to-end metric", d.Name)
		checkDecl(t, d)
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", d.Name)
			continue
		}
		largest = max(largest, *d.Bound)
		if d.Name == "setup_s" {
			setup = &m.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("end_to_end needs setup_s with unit s and better lower")
	} else if *setup.Bound < largest {
		t.Errorf("setup_s has bound %g, but the largest bound is %g", *setup.Bound, largest)
	}
	if len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(m.PerLayer))
	}
	for _, d := range m.PerLayer {
		name("per-layer metric", d.Name)
		checkDecl(t, d)
		if d.Bound != nil {
			t.Errorf("%s: per-layer metrics have no bound", d.Name)
		}
	}

	// The gate makes 4 + 22 runs per workload and allows 3420 s for all of
	// them, set-up and two builds included. Set-up, verification and
	// process start were measured at 3, 4, 5 and 18 s on the four workloads
	// (README, "Time budget"): 10 s per run leaves room for a slow spell.
	runs := 4 + 22*len(m.Workloads)
	if total := runs * (m.RunSeconds + 10); total > 3420-120 {
		t.Errorf("%d runs of %d s plus set-up need about %d s, over the 3420 s allowance", runs, m.RunSeconds, total)
	}
}

func checkDecl(t *testing.T, d metricDecl) {
	t.Helper()
	if !unitRE.MatchString(d.Unit) {
		t.Errorf("%s: unit %q breaks the unit rule", d.Name, d.Unit)
	}
	if d.Better != "lower" && d.Better != "higher" {
		t.Errorf("%s: better = %q, want lower or higher", d.Name, d.Better)
	}
}

// TestSmokeNamesMatchManifest builds the driver, runs every workload in
// smoke mode untraced and traced, and requires the printed metric names and
// units to be exactly the declared ones.
func TestSmokeNamesMatchManifest(t *testing.T) {
	m, err := readManifest(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, w := range m.Workloads {
		for trace, decls := range [][]metricDecl{m.EndToEnd, m.PerLayer} {
			cfg := config{seed: 1, smoke: true, trace: trace == 1, dir: tmp, out: tmp}
			cmd := exec.Command(bin, childArgs(cfg, w.Name)...)
			cmd.Dir = repoRoot
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s trace=%d: %v\n%s", w.Name, trace, err, out)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(lastLine(out), &keys); err != nil {
				t.Fatalf("%s trace=%d: last line: %v", w.Name, trace, err)
			}
			if got := sortedKeys(keys); strings.Join(got, ",") != "attempted,correct,failed,metrics" {
				t.Errorf("%s trace=%d: result object has keys %v", w.Name, trace, got)
			}
			var g gateLine
			if err := json.Unmarshal(lastLine(out), &g); err != nil {
				t.Fatal(err)
			}
			if !g.Correct || g.Failed != 0 || g.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.Name, trace, g.Correct, g.Attempted, g.Failed)
			}
			want := map[string]string{}
			for _, d := range decls {
				want[d.Name] = d.Unit
			}
			for name, v := range g.Metrics {
				if unit, ok := want[name]; !ok {
					t.Errorf("%s trace=%d: printed %s, which the manifest does not declare", w.Name, trace, name)
				} else if unit != v.Unit {
					t.Errorf("%s trace=%d: %s printed in %s, declared in %s", w.Name, trace, name, v.Unit, unit)
				}
				delete(want, name)
			}
			for name := range want {
				t.Errorf("%s trace=%d: declared metric %s was not printed", w.Name, trace, name)
			}
		}
	}
}

func sortedKeys(m map[string]json.RawMessage) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %g %g %g, want 3.5 13.5 31", q1, q2, q3)
	}
}
