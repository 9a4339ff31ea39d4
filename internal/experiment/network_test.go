package experiment

import (
	"strings"
	"testing"
)

// TestNetworkShape runs a tiny in-process network benchmark end to end and
// checks the result's invariants: every query accounted for, sane latency
// quantiles, server-side counters fetched over the wire, and a BENCH line
// the benchdiff gate can parse.
func TestNetworkShape(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping network benchmark in -short mode")
	}
	cfg := NetworkConfig{Clients: 3, Ops: 10, Scale: 50}
	res, err := Network(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.InProcess {
		t.Fatal("empty Addr must report an in-process run")
	}
	if want := int64(cfg.Clients * cfg.Ops); res.Queries != want {
		t.Fatalf("queries = %d, want %d", res.Queries, want)
	}
	if res.QPS <= 0 || res.Millis <= 0 {
		t.Fatalf("throughput not measured: qps=%.1f millis=%.1f", res.QPS, res.Millis)
	}
	if res.P50Micros <= 0 || res.P95Micros < res.P50Micros || res.P99Micros < res.P95Micros {
		t.Fatalf("latency quantiles inconsistent: p50=%.0f p95=%.0f p99=%.0f",
			res.P50Micros, res.P95Micros, res.P99Micros)
	}
	// Every client query is at least one server request, and the server
	// answered everything it read. A response is counted once its write has
	// returned, so the ledger runs behind by the Stats request that reads it
	// and by at most one request on each other connection — a client can hold
	// a response its handler has not counted yet (this used to demand a gap
	// of exactly one and failed under load).
	if res.ServerRequests < uint64(res.Queries) {
		t.Fatalf("server saw %d requests for %d client queries", res.ServerRequests, res.Queries)
	}
	if gap := res.ServerRequests - res.ServerResponses; gap < 1 || gap > uint64(res.PoolSize) {
		t.Fatalf("server answered %d of %d requests over %d connections", res.ServerResponses, res.ServerRequests, res.PoolSize)
	}

	line := res.BenchJSON()
	if !strings.HasPrefix(line, `BENCH {"name":"network-serve"`) {
		t.Fatalf("bench line = %q, want name network-serve", line)
	}
	if strings.Contains(line, `"obs"`) {
		t.Fatal("bench line must not embed the obs snapshot")
	}
	if FormatNetwork(res) == "" {
		t.Fatal("empty human-readable report")
	}

	// The prepared variant changes the gated bench name.
	pres := &NetworkResult{Prepared: true}
	if got := pres.benchName(); got != "network-serve-prepared" {
		t.Fatalf("prepared bench name = %q", got)
	}
}
