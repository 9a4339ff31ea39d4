package main

import (
	"encoding/binary"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The sandbox this benchmark is gated on is a small virtual machine whose
// speed shifts by 10–45 % for seconds to minutes at a time, whose hypervisor
// at times takes a fifth to a half of its CPU time away for a minute or two,
// and whose shared disk takes between 0.15 and 2.6 ms for the same fsync
// (README, "Noise"). Four measures keep the time metrics steady anyway. The
// timed region is cut into rounds and every time metric is the median
// round's value, so a disturbance shorter than half the region does not move
// it. A round during which the hypervisor reports stolen time is void and is
// run again. A fixed calibration kernel runs at every round boundary, and
// the run's times are divided by how much slower than nominal the median
// kernel ran, so a slow spell that covers the whole run is mostly cancelled
// too. And time a workload spends inside fsync is measured at the
// file-system boundary and left out (instance.deviceWait).

// roundSeconds is the nominal length of one round of the timed region.
const roundSeconds = 1.0

// referenceCalMs is what the calibration kernel takes on the undisturbed
// reference sandbox (2 vCPU Xeon @ 2.1 GHz). Times are reported as if the
// kernel had taken exactly this long.
const referenceCalMs = 6.3

// calPerBoundary is how often the kernel runs at each round boundary. One
// 6 ms sample per second left the median's own sampling error in the
// result; five cost 3 % of the run.
const calPerBoundary = 5

// maxStealShare voids a round: the share of the CPU time the machine wanted
// during the round that the hypervisor gave to someone else (steal in
// /proc/stat). Undisturbed rounds show 0–1 %; rounds above 5 % ran 10–50 %
// slower than their run's median.
const maxStealShare = 0.05

// maxExtension is how much longer than asked the timed region may last, as a
// share, to replace void rounds.
const maxExtension = 0.5

// calibrator times a fixed piece of work that shares no code with the
// program and allocates nothing: integer arithmetic, then a streaming pass
// over a buffer larger than the private caches. How long it takes tracks how
// fast the machine is right now.
type calibrator struct {
	buf []byte // outside the Go heap, so heap_live_mb does not see it
}

func newCalibrator() (*calibrator, error) {
	buf, err := syscall.Mmap(-1, 0, 16<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	c := &calibrator{buf: buf}
	c.slowdown() // the first pass faults the buffer in
	return c, nil
}

var calSink uint64

// slowdown runs the kernel once and returns its duration relative to the
// reference: 1.0 on the undisturbed reference sandbox, more when the machine
// is slower.
func (c *calibrator) slowdown() float64 {
	t0 := time.Now()
	var x uint64 = 88172645463325252
	for i := 0; i < 1_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	for i := 0; i+8 <= len(c.buf); i += 8 {
		v := binary.LittleEndian.Uint64(c.buf[i:]) + x
		binary.LittleEndian.PutUint64(c.buf[i:], v)
		x += v
	}
	calSink = x
	return float64(time.Since(t0)) / 1e6 / referenceCalMs
}

// sample appends one boundary's worth of kernel runs to samples.
func (c *calibrator) sample(samples []float64) []float64 {
	for n := 0; n < calPerBoundary; n++ {
		samples = append(samples, c.slowdown())
	}
	return samples
}

// round is what one round of the timed region produced, as the clock read it.
type round struct {
	rate  float64 // completed ops per second
	p50Ms float64 // median op latency
	p95Ms float64 // 95th percentile op latency
	cpuMs float64 // getrusage user+sys per completed op
}

// timed is what one timed region produced.
type timed struct {
	attempted, failed int
	rounds            []round // the valid rounds; the void ones if none was valid
	voidRounds        int
	stealShare        float64       // over all rounds, void ones included
	slowdown          float64       // median of the calibrations at the round boundaries
	deviceWait        time.Duration // time inside fsync, already left out of the rounds
	allocBytes        uint64        // MemStats.TotalAlloc delta over the region
	firstErr          error
}

// The time metrics: the median round's value, on the reference machine's
// clock.
func (t timed) opsPerSecond() float64 {
	return t.medianOf(func(r round) float64 { return r.rate }) * t.slowdown
}
func (t timed) p50Ms() float64 {
	return t.medianOf(func(r round) float64 { return r.p50Ms }) / t.slowdown
}
func (t timed) p95Ms() float64 {
	return t.medianOf(func(r round) float64 { return r.p95Ms }) / t.slowdown
}
func (t timed) cpuMsPerOp() float64 {
	return t.medianOf(func(r round) float64 { return r.cpuMs }) / t.slowdown
}

func (t timed) medianOf(field func(round) float64) float64 {
	v := make([]float64, len(t.rounds))
	for i, r := range t.rounds {
		v[i] = field(r)
	}
	return median(v)
}

// cpuJiffies reads the machine-wide counters of /proc/stat: time the CPUs
// spent running something, and time they were wanted but the hypervisor ran
// another guest. Both are 0 where the file or the steal column is missing,
// and then no round is ever void.
func cpuJiffies() (busy, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] {
		n, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0
		}
		switch i {
		case 0, 1, 2, 5, 6:
			busy += n
		case 7:
			steal = n
		}
	}
	return busy, steal
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs the closed loop until it has the given time's worth of valid
// rounds: every client issues its next op as soon as the previous one has
// completed, and the clients meet at a barrier at each round boundary, where
// the calibration kernel runs. next[c] is client c's next op index and is
// advanced in place. capacity sizes each client's per-round sample slice so
// the loop does not grow it.
func measure(inst *instance, cal *calibrator, next []int, seconds float64, tracers []*tracer, capacity int) timed {
	clients := len(next)
	type clientState struct {
		samples  []float64 // this round's op latencies in ns; failed ops have none
		failed   int
		firstErr error
		lastEnd  time.Time
	}
	states := make([]clientState, clients)
	for c := range states {
		states[c].samples = make([]float64, 0, capacity)
	}
	nRounds := max(1, int(seconds/roundSeconds+0.5))
	roundDur := time.Duration(seconds / float64(nRounds) * float64(time.Second))
	all := make([]float64, 0, capacity*clients)
	t := timed{rounds: make([]round, 0, nRounds)}
	var void []round
	var busy, stolen float64
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	slowdowns := cal.sample(make([]float64, 0, (nRounds+1)*calPerBoundary))
	limit := time.Now().Add(time.Duration((1 + maxExtension) * seconds * float64(time.Second)))
	for run := 0; len(t.rounds) < nRounds && (run < nRounds || time.Now().Before(limit)); run++ {
		cpu0, wait0 := cpuTime(), inst.deviceWait()
		busy0, steal0 := cpuJiffies()
		start := time.Now()
		deadline := start.Add(roundDur)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				st := &states[c]
				st.samples = st.samples[:0]
				var tr *tracer
				if tracers != nil {
					tr = tracers[c]
				}
				now, waited := time.Now(), inst.deviceWait()
				for now.Before(deadline) {
					i := next[c]
					sp := tr.begin("op", -1, int64(i))
					err := inst.op(c, i, tr, sp)
					tr.end(sp)
					end, waitedEnd := time.Now(), inst.deviceWait()
					if err != nil {
						st.failed++
						if st.firstErr == nil {
							st.firstErr = err
						}
					} else {
						st.samples = append(st.samples, float64(end.Sub(now)-(waitedEnd-waited)))
					}
					now, waited = end, waitedEnd
					next[c] = i + 1
				}
				st.lastEnd = now
			}(c)
		}
		wg.Wait()
		cpu, wait := cpuTime()-cpu0, inst.deviceWait()-wait0
		busy1, steal1 := cpuJiffies()
		slowdowns = cal.sample(slowdowns)
		all, last := all[:0], start
		for c := range states {
			all = append(all, states[c].samples...)
			if states[c].lastEnd.After(last) {
				last = states[c].lastEnd
			}
		}
		if len(all) == 0 {
			continue
		}
		sort.Float64s(all)
		ops := float64(len(all))
		t.attempted += len(all)
		t.deviceWait += wait
		rd := round{
			rate:  ops / (last.Sub(start) - wait).Seconds(),
			p50Ms: quantile(all, 0.5) / 1e6,
			p95Ms: quantile(all, 0.95) / 1e6,
			cpuMs: float64(cpu) / 1e6 / ops,
		}
		busy += busy1 - busy0
		stolen += steal1 - steal0
		if steal1-steal0 > maxStealShare*(busy1-busy0+steal1-steal0) {
			void = append(void, rd)
		} else {
			t.rounds = append(t.rounds, rd)
		}
	}
	t.voidRounds = len(void)
	if len(t.rounds) == 0 {
		t.rounds = void
	}
	if busy+stolen > 0 {
		t.stealShare = stolen / (busy + stolen)
	}
	runtime.ReadMemStats(&ms)
	t.allocBytes = ms.TotalAlloc - alloc0
	for c := range states {
		t.failed += states[c].failed
		if t.firstErr == nil {
			t.firstErr = states[c].firstErr
		}
	}
	t.attempted += t.failed
	t.slowdown = median(slowdowns)
	return t
}

// heapLiveMB is HeapAlloc after a forced collection. The caller keeps the
// database reachable until after the reading.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
