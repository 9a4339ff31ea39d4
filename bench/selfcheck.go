package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
)

// manifest mirrors BENCHMARK.json at the repository root.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(path string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return m, dec.Decode(&m)
}

// gateLine is the JSON object a run prints last.
type gateLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

var slowdownRE = regexp.MustCompile(` slowdown=([0-9.]+)`)

// runChild runs one workload in a child process and parses its last line,
// and the machine slowdown from its environment line.
func runChild(self string, cfg config, workload string) (g gateLine, slowdown float64, err error) {
	cmd := exec.Command(self, childArgs(cfg, workload)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return g, 0, fmt.Errorf("%s: %w", workload, err)
	}
	if err := json.Unmarshal(lastLine(out), &g); err != nil {
		return g, 0, fmt.Errorf("%s: last line is not the result object: %w", workload, err)
	}
	if !g.Correct || g.Failed != 0 {
		return g, 0, fmt.Errorf("%s: incorrect run (%d of %d ops failed)", workload, g.Failed, g.Attempted)
	}
	if m := slowdownRE.FindSubmatch(out); m != nil {
		slowdown, _ = strconv.ParseFloat(string(m[1]), 64) // the pattern admits only digits and dots
	}
	return g, slowdown, nil
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (the gate's method).
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	if n < 2 {
		return x[0], x[0], x[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// unnormalise undoes the division by the machine slowdown, per time metric:
// selfcheck prints the spread of the clock's own readings next to that of
// the reported values, so what the calibration buys is seen on the same runs.
var unnormalise = map[string]func(v, slowdown float64) float64{
	"setup_s":       func(v, s float64) float64 { return v * s },
	"ops_s":         func(v, s float64) float64 { return v / s },
	"lat_p50_ms":    func(v, s float64) float64 { return v * s },
	"cpu_ms_per_op": func(v, s float64) float64 { return v * s },
}

// selfcheck runs every workload N times back to back with the same seed,
// and fails when (max − min) ÷ median of an end-to-end metric exceeds its
// bound in BENCHMARK.json, or when a median is worse than the previous
// selfcheck's by more than the bound. The interquartile spread, which is what
// the gate computes, is printed for information.
func selfcheck(cfg config) error {
	m, err := readManifest("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("selfcheck runs from the repository root: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	prevPath := filepath.Join(cfg.out, "selfcheck.json")
	prev := map[string]float64{}
	if data, err := os.ReadFile(prevPath); err == nil {
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("%s: %w", prevPath, err)
		}
	}
	medians := map[string]float64{}
	var bad []string
	fmt.Printf("%-12s %-16s %12s %12s %12s %9s %9s %9s %7s\n", "workload", "metric", "q1", "median", "q3", "range/med", "iqr/med", "raw iqr", "bound")
	for _, w := range m.Workloads {
		values := map[string][]float64{}
		var slowdowns []float64
		for n := 0; n < cfg.selfcheck; n++ {
			g, slowdown, err := runChild(self, cfg, w.Name)
			if err != nil {
				return err
			}
			for name, v := range g.Metrics {
				values[name] = append(values[name], v.Value)
			}
			slowdowns = append(slowdowns, slowdown)
		}
		fmt.Printf("%-12s machine slowdown during these runs: %.3f\n", w.Name, slowdowns)
		for _, d := range m.EndToEnd {
			v := values[d.Name]
			if len(v) != cfg.selfcheck {
				return fmt.Errorf("%s: metric %s missing from the output", w.Name, d.Name)
			}
			if d.Bound == nil {
				return fmt.Errorf("BENCHMARK.json: end-to-end metric %s has no bound", d.Name)
			}
			q1, med, q3 := quartiles(v)
			iqr, rng := (q3-q1)/med, (slices.Max(v)-slices.Min(v))/med
			key := w.Name + "/" + d.Name
			medians[key] = med
			verdict, failed := "", false
			if rng > *d.Bound {
				verdict, failed = " SPREAD", true
			}
			if p, ok := prev[key]; ok {
				worse := (med - p) / p
				if d.Better == "higher" {
					worse = -worse
				}
				if worse > *d.Bound {
					verdict += fmt.Sprintf(" DRIFT %+.1f%% vs previous selfcheck", 100*worse)
					failed = true
				}
			}
			if failed {
				bad = append(bad, key)
			}
			rawIQR := iqr
			if undo, ok := unnormalise[d.Name]; ok {
				raw := make([]float64, len(v))
				for i := range v {
					raw[i] = undo(v[i], slowdowns[i])
				}
				r1, rmed, r3 := quartiles(raw)
				rawIQR = (r3 - r1) / rmed
			}
			fmt.Printf("%-12s %-16s %12.6g %12.6g %12.6g %8.2f%% %8.2f%% %8.2f%% %6.1f%%%s\n",
				w.Name, d.Name, q1, med, q3, 100*rng, 100*iqr, 100*rawIQR, 100**d.Bound, verdict)
		}
	}
	data, err := json.MarshalIndent(medians, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(prevPath, data, 0o644); err != nil {
		return err
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck failed: %v", bad)
	}
	return nil
}
