package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// environment is printed with every run and stored beside the results, so a
// number can be traced back to the machine and the inputs that produced it.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu"`
	DirFS      string  `json:"dir_fs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke,omitempty"`
	// Slowdown is the median over rounds of the calibration kernel's time
	// relative to the reference; reported times are already divided by it.
	Slowdown float64 `json:"slowdown"`
	// StealPct is the share of the wanted CPU time the hypervisor gave to
	// other guests during the timed region; VoidRounds is how many rounds
	// were discarded and run again because of it.
	StealPct   float64 `json:"steal_pct"`
	VoidRounds int     `json:"void_rounds"`
	// The two floors the layer table subtracts.
	LoopbackRTTUs float64 `json:"net.loopback_rtt_us"`
	AppendSyncUs  float64 `json:"wal.append_sync_us"`
}

func (e environment) String() string {
	return fmt.Sprintf("env commit=%s go=%s nproc=%d gomaxprocs=%d cpu=%q dir_fs=%s seed=%d seconds=%g smoke=%v slowdown=%.3f steal_pct=%.2f void_rounds=%d net.loopback_rtt_us=%.2f wal.append_sync_us=%.2f",
		e.Commit, e.GoVersion, e.NumCPU, e.GOMAXPROCS, e.CPUModel, e.DirFS, e.Seed, e.Seconds, e.Smoke, e.Slowdown, e.StealPct, e.VoidRounds, e.LoopbackRTTUs, e.AppendSyncUs)
}

func newEnvironment(cfg config) environment {
	return environment{
		Commit:     vcsRevision(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		DirFS:      fsType(cfg.dir),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Smoke:      cfg.smoke,
	}
}

// vcsRevision is the commit the binary was built from, when the go tool
// could see a repository (the gate's checkout is not one).
func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
