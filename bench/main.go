// Command bench is the repository's benchmark: four uniform-op workloads,
// six end-to-end metrics each, and — in a separate traced run — per-layer
// numbers taken from outside the program. See README.md in this directory
// and BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"colorfulxml/internal/obs"
)

// defaultSeconds equals run_seconds in BENCHMARK.json.
const defaultSeconds = 25

type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	smoke     bool
	selfcheck int
	dir, out  string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "run this workload in this process (default: all four, one process each)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the data and query schedule")
	flag.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "length of the timed region")
	flag.IntVar(&trace, "trace", 0, "1: traced run, prints the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny data and a fraction of a second per workload; numbers are meaningless")
	flag.IntVar(&cfg.selfcheck, "selfcheck", 0, "run every workload N times and compare the spread of each end-to-end metric with its bound")
	flag.StringVar(&cfg.dir, "dir", ".bench_build/work", "directory for durable databases and the fsync probe")
	flag.StringVar(&cfg.out, "out", ".bench_build/out", "directory for result and trace files")
	flag.Parse()
	cfg.trace = trace != 0
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if cfg.smoke {
		cfg.seconds = 0.25
	}
	for _, d := range []string{cfg.dir, cfg.out} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			fatal(err)
		}
	}
	switch {
	case cfg.selfcheck > 0:
		fatal(selfcheck(cfg))
	case cfg.workload == "":
		fatal(runAll(cfg))
	default:
		res, err := runWorkload(cfg)
		if err != nil {
			fatal(err)
		}
		res.print()
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// childArgs are the flags every child process inherits.
func childArgs(cfg config, workload string) []string {
	args := []string{"-workload", workload, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
		"-dir", cfg.dir, "-out", cfg.out}
	if cfg.trace {
		args = append(args, "-trace", "1")
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	return args
}

// runAll runs every workload in its own process, so no workload inherits
// another's heap, caches or counters.
func runAll(cfg config) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, sp := range specs {
		cmd := exec.Command(self, childArgs(cfg, sp.name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, sp.name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %v", failed)
	}
	return nil
}

// metric is one named number with its unit.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// result is what one run of one workload reports. Its last printed line is
// the JSON object the gate reads.
type result struct {
	Workload  string
	Env       environment
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []metric
	Err       string // first failure, if any
}

func (r result) jsonLine() []byte {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range r.Metrics {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // only non-finite floats can fail here: a bug in the harness
	}
	return line
}

func (r result) print() {
	fmt.Println(r.Env)
	for _, m := range r.Metrics {
		fmt.Printf("%s %s %.6g %s\n", r.Workload, m.Name, m.Value, m.Unit)
	}
	fmt.Printf("%s ops_attempted %d\n%s ops_failed %d\n", r.Workload, r.Attempted, r.Workload, r.Failed)
	if r.Err != "" {
		fmt.Printf("%s FAILED: %s\n", r.Workload, r.Err)
	}
	fmt.Printf("%s\n", r.jsonLine())
}

func findSpec(name string) (spec, error) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// setUp builds the workload and runs its untimed warm-up, clients one after
// the other so that the state the timed region starts from is the same on
// every run. It also returns the rate at which one client ran the warm-up.
func setUp(sp spec, cfg config) (inst *instance, opsPerSecond float64, err error) {
	if inst, err = sp.setup(sp, cfg); err != nil {
		return nil, 0, fmt.Errorf("%s set-up: %w", sp.name, err)
	}
	t0 := time.Now()
	for c := 0; c < sp.clients; c++ {
		for i := 0; i < sp.warmOps; i++ {
			if err := inst.op(c, i, nil, -1); err != nil {
				return nil, 0, fmt.Errorf("%s warm-up op %d: %w", sp.name, i, err)
			}
		}
	}
	opsPerSecond = float64(sp.warmOps*sp.clients) / time.Since(t0).Seconds()
	runtime.GC()
	return inst, opsPerSecond, nil
}

func runWorkload(cfg config) (result, error) {
	sp, err := findSpec(cfg.workload)
	if err != nil {
		return result{}, err
	}
	if cfg.smoke {
		sp = sp.smoke()
	}
	res := result{Workload: sp.name, Env: newEnvironment(cfg)}

	cal, err := newCalibrator()
	if err != nil {
		return res, err
	}
	// Set-up is timed from process start, fsync waits left out like
	// everywhere else.
	inst, warmRate, err := setUp(sp, cfg)
	if err != nil {
		return res, err
	}
	setupS := (time.Duration(sinceStart()) - inst.deviceWait()).Seconds()
	// Room for twice the ops per client and round the warm-up rate predicts.
	capacity := int(2*roundSeconds*warmRate) + 64

	next := make([]int, sp.clients)
	for c := range next {
		next[c] = sp.warmOps
	}
	var t, traced timed
	var tracers []*tracer
	var before, after *obs.Snapshot
	if cfg.trace {
		// Half the time untraced, half traced: the difference is what
		// tracing costs.
		t = measure(inst, cal, next, cfg.seconds/2, nil, capacity)
		for range next {
			tracers = append(tracers, newTracer(sp.spansPerOp*int(cfg.seconds*warmRate+64)))
		}
		before = obs.Default.Snapshot()
		traced = measure(inst, cal, next, cfg.seconds/2, tracers, capacity)
		after = obs.Default.Snapshot()
	} else {
		t = measure(inst, cal, next, cfg.seconds, nil, capacity)
	}
	heapMB := heapLiveMB()
	runtime.KeepAlive(inst)
	res.Env.Slowdown, res.Env.StealPct, res.Env.VoidRounds = t.slowdown, 100*t.stealShare, t.voidRounds

	res.Attempted = t.attempted + traced.attempted
	res.Failed = t.failed + traced.failed
	firstErr := t.firstErr
	if firstErr == nil {
		firstErr = traced.firstErr
	}
	if firstErr == nil {
		firstErr = inst.verify(next)
	}
	if firstErr != nil {
		res.Err = firstErr.Error()
	}
	res.Correct = firstErr == nil && res.Failed == 0
	if err := inst.stop(); err != nil {
		return res, err
	}

	// The two floors are measured on every run: they belong to the
	// environment line.
	p := newProber(cfg.smoke, tracers)
	p.probeLoopback()
	p.probeAppendSync(cfg.dir)
	res.Env.LoopbackRTTUs = p.p50("net.loopback_rtt") / 1e3
	res.Env.AppendSyncUs = p.p50("wal.append_sync") / 1e3
	if cfg.trace {
		p.probeLayers(inst.db, sp.items)
	}
	if p.err != nil {
		return res, p.err
	}

	if cfg.trace {
		p.tr.end(p.root)
		res.Metrics = layerMetrics(p, inst, t, traced, tracers, before, after, obs.Default.Snapshot())
		path := filepath.Join(cfg.out, "trace-"+sp.name+".json")
		if err := writeTrace(path, sp.name, res.Env, append(tracers, p.tr)); err != nil {
			return res, err
		}
	}
	if err := inst.closeDB(); err != nil {
		return res, err
	}
	if !cfg.trace {
		ops := float64(t.attempted)
		res.Metrics = []metric{
			// The set-up ran right before the timed region, so that region's
			// calibrations say how fast the machine was.
			{"setup_s", setupS / t.slowdown, "s"},
			{"ops_s", t.opsPerSecond(), "1/s"},
			{"lat_p50_ms", t.p50Ms(), "ms"},
			{"cpu_ms_per_op", t.cpuMsPerOp(), "ms"},
			{"alloc_kb_per_op", float64(t.allocBytes) / 1e3 / ops, "kB"},
			{"heap_live_mb", heapMB, "MB"},
		}
	}
	stored, err := json.MarshalIndent(map[string]any{"env": res.Env, "result": json.RawMessage(res.jsonLine())}, "", " ")
	if err != nil {
		return res, err
	}
	kind := "result"
	if cfg.trace {
		kind = "layers"
	}
	return res, os.WriteFile(filepath.Join(cfg.out, kind+"-"+sp.name+".json"), stored, 0o644)
}
