package colorful

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"colorfulxml/internal/obs"
)

// DebugServer is an opt-in HTTP introspection endpoint for one DB. It is
// meant for operators and tests, bound to localhost; nothing in the normal
// query path depends on it, and a DB never starts one on its own.
type DebugServer struct {
	db  *DB
	ln  net.Listener
	srv *http.Server
}

// debugTraceTimeout bounds a /debug/trace query execution so a pathological
// query cannot pin the endpoint.
const debugTraceTimeout = 30 * time.Second

// ServeDebug starts an HTTP debug endpoint on addr (use "127.0.0.1:0" to
// bind an ephemeral localhost port; Addr reports the bound address):
//
//	/debug/metrics        process-wide instrument snapshot as JSON
//	                      (?format=text for sorted plain-text lines)
//	/debug/slowlog        this DB's slow-query log, newest first (JSON)
//	/debug/trace?q=QUERY  run a read-only query with full tracing and
//	                      return the span tree (?format=text for a tree)
//	/debug/plancache      this DB's shared plan-cache counters (JSON)
//	/debug/health         this DB's serving state, degrade cause, and
//	                      scrubber activity (JSON; see HealthInfo)
//	/debug/pprof/...      the standard runtime profiles
//
// The server runs until Close. Queries issued through /debug/trace count in
// the DB's metrics like any other query but pay full tracing overhead.
func (d *DB) ServeDebug(addr string) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("colorful: debug endpoint: %w", err)
	}
	s := &DebugServer{db: d, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/slowlog", s.handleSlowlog)
	mux.HandleFunc("/debug/trace", s.handleTrace)
	mux.HandleFunc("/debug/plancache", s.handlePlanCache)
	mux.HandleFunc("/debug/health", s.handleHealth)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *DebugServer) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down, interrupting in-flight requests.
func (s *DebugServer) Close() error { return s.srv.Close() }

func (s *DebugServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := obs.Default.Snapshot()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		snap.WriteText(w) //nolint:errcheck // client gone mid-write
		return
	}
	writeJSON(w, snap)
}

func (s *DebugServer) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	entries := s.db.SlowQueries()
	if entries == nil {
		entries = []SlowQuery{}
	}
	writeJSON(w, entries)
}

func (s *DebugServer) handlePlanCache(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.db.PlanCacheStats())
}

func (s *DebugServer) handleHealth(w http.ResponseWriter, r *http.Request) {
	info := s.db.HealthInfo()
	// A degraded or failed database still answers 200 — the endpoint reports
	// state, it is not a liveness probe.
	writeJSON(w, struct {
		State            string `json:"state"`
		Cause            string `json:"cause,omitempty"`
		Degrades         uint64 `json:"degrades"`
		Heals            uint64 `json:"heals"`
		ScrubPasses      uint64 `json:"scrub_passes"`
		ScrubFiles       uint64 `json:"scrub_files"`
		ScrubBytes       uint64 `json:"scrub_bytes"`
		ScrubCorruptions uint64 `json:"scrub_corruptions"`
		LastCorruption   string `json:"last_corruption,omitempty"`
	}{
		State:            info.State.String(),
		Cause:            info.Cause,
		Degrades:         info.Degrades,
		Heals:            info.Heals,
		ScrubPasses:      info.ScrubPasses,
		ScrubFiles:       info.ScrubFiles,
		ScrubBytes:       info.ScrubBytes,
		ScrubCorruptions: info.ScrubCorruptions,
		LastCorruption:   info.LastCorruption,
	})
}

func (s *DebugServer) handleTrace(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		http.Error(w, "missing q parameter: /debug/trace?q=QUERY", http.StatusBadRequest)
		return
	}
	if err := traceableQuery(q); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), debugTraceTimeout)
	defer cancel()
	_, span, err := s.db.TraceQuery(ctx, q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, TraceText(span))
		return
	}
	writeJSON(w, span)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone mid-write
}
