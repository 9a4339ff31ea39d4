package server

import "colorfulxml/internal/obs"

// Server-level instruments. Counters aggregate across every Server in the
// process; per-server numbers are available through Server.Stats.
var (
	obsConnsTotal        = obs.NewCounter("server_connections_total")
	obsConnsOpen         = obs.NewGauge("server_connections_open")
	obsHandshakeFailures = obs.NewCounter("server_handshake_failures_total")
	obsRequests          = obs.NewCounter("server_requests_total")
	obsResponses         = obs.NewCounter("server_responses_total")
	obsErrorResponses    = obs.NewCounter("server_error_responses_total")
	obsStmtsOpen         = obs.NewGauge("server_stmts_open")
	obsDrains            = obs.NewCounter("server_drains_total")

	// Per-message-type handling latency (request fully read to response
	// fully written).
	obsQueryNanos   = obs.NewHistogram("server_query_nanos")
	obsPrepareNanos = obs.NewHistogram("server_prepare_nanos")
	obsExecuteNanos = obs.NewHistogram("server_execute_nanos")
	obsUpdateNanos  = obs.NewHistogram("server_update_nanos")
	obsPingNanos    = obs.NewHistogram("server_ping_nanos")
	obsHealthNanos  = obs.NewHistogram("server_health_nanos")
	obsStatsNanos   = obs.NewHistogram("server_stats_nanos")
)
