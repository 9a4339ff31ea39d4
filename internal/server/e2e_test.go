package server_test

// Subprocess end-to-end test: build the real mctserved binary, boot it
// against a datagen store on TCP, drive client load, SIGTERM it mid-load,
// and verify the graceful-drain contract from the outside — exit status 0
// and zero dropped in-flight queries (every request the server read was
// answered, confirmed against the obs dump it writes on exit).

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"colorfulxml/client"
)

// artifactDir returns where server logs and obs dumps should land: the CI
// artifact directory when MCTSERVED_E2E_ARTIFACTS is set (uploaded on
// failure), a test temp dir otherwise.
func artifactDir(t *testing.T) string {
	if dir := os.Getenv("MCTSERVED_E2E_ARTIFACTS"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	return t.TempDir()
}

// buildServed compiles cmd/mctserved into a temp binary.
func buildServed(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "mctserved")
	cmd := exec.Command("go", "build", "-o", bin, "colorfulxml/cmd/mctserved")
	cmd.Dir = moduleRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building mctserved: %v\n%s", err, out)
	}
	return bin
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatal(err)
	}
	gomod := string(out)
	if i := len(gomod) - 1; i >= 0 && gomod[i] == '\n' {
		gomod = gomod[:i]
	}
	if gomod == "" || gomod == "/dev/null" {
		t.Fatal("not inside a module")
	}
	return filepath.Dir(gomod)
}

// awaitAddrFile polls for the address file mctserved writes once listening.
func awaitAddrFile(t *testing.T, path string, proc *exec.Cmd) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		b, err := os.ReadFile(path)
		if err == nil && len(b) > 0 {
			return string(b)
		}
		if time.Now().After(deadline) {
			t.Fatalf("mctserved never wrote its address file %s", path)
		}
		if proc.ProcessState != nil {
			t.Fatalf("mctserved exited before listening: %v", proc.ProcessState)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestE2EGracefulShutdownUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e skipped in -short mode")
	}
	bin := buildServed(t)
	arts := artifactDir(t)
	addrFile := filepath.Join(t.TempDir(), "addr")
	obsDump := filepath.Join(arts, "e2e-obs.json")
	logFile := filepath.Join(arts, "e2e-server.log")

	logF, err := os.Create(logFile)
	if err != nil {
		t.Fatal(err)
	}
	defer logF.Close()

	proc := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-catalog-scale", "200",
		"-drain-timeout", "20s",
		"-obs-dump", obsDump,
	)
	proc.Stdout = logF
	proc.Stderr = logF
	if err := proc.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- proc.Wait() }()
	defer proc.Process.Kill() //nolint:errcheck // cleanup if assertions bail early

	addr := awaitAddrFile(t, addrFile, proc)

	// IdlePingAfter is disabled so the only requests the server sees are the
	// handshake-free queries we count; pings would skew the zero-drop ledger.
	cdb, err := client.OpenOptions(addr, client.Options{
		PoolSize: 4, IdlePingAfter: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cdb.Close()

	const clients = 4
	q := `document("db")/{red}descendant::item/{red}child::name`
	var (
		succeeded atomic.Int64
		stopped   atomic.Int64
		badErr    atomic.Value
		wg        sync.WaitGroup
	)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				_, err := cdb.Query(q)
				switch {
				case err == nil:
					succeeded.Add(1)
				case errors.Is(err, client.ErrDraining), errors.Is(err, client.ErrClosed):
					stopped.Add(1)
					return
				default:
					var ne net.Error
					if errors.As(err, &ne) {
						// Listener already closed: dial refused. Expected
						// shutdown noise, not a dropped request.
						stopped.Add(1)
						return
					}
					badErr.Store(fmt.Errorf("query %d: %w", i, err))
					return
				}
			}
		}()
	}

	// Let load flow, then deliver SIGTERM mid-flight.
	time.Sleep(300 * time.Millisecond)
	if succeeded.Load() == 0 {
		t.Log("warning: no query completed before SIGTERM; drain coverage is weak")
	}
	if err := proc.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	wg.Wait()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("mctserved exited non-zero after SIGTERM: %v (log: %s)", err, logFile)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("mctserved did not exit within 30s of SIGTERM (log: %s)", logFile)
	}
	if v := badErr.Load(); v != nil {
		t.Fatalf("query dropped during drain: %v (log: %s)", v, logFile)
	}
	if succeeded.Load() == 0 {
		t.Fatal("no query succeeded; the load never reached the server")
	}

	// The obs dump is the server's own ledger: every request it read must
	// have been answered, and the drain must have been recorded.
	b, err := os.ReadFile(obsDump)
	if err != nil {
		t.Fatalf("mctserved wrote no obs dump: %v", err)
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("obs dump is not valid JSON: %v", err)
	}
	reqs := snap.Counters["server_requests_total"]
	resps := snap.Counters["server_responses_total"]
	if reqs == 0 {
		t.Fatalf("obs dump shows no requests (dump: %s)", obsDump)
	}
	if reqs != resps {
		t.Fatalf("drain dropped requests: server read %d, answered %d (dump: %s)", reqs, resps, obsDump)
	}
	if snap.Counters["server_drains_total"] == 0 {
		t.Fatalf("obs dump shows no drain recorded (dump: %s)", obsDump)
	}

	// The server answered at least what this test observed succeeding.
	if resps < uint64(succeeded.Load()) {
		t.Fatalf("server answered %d requests but clients saw %d successes", resps, succeeded.Load())
	}
}
