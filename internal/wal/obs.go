package wal

import "colorfulxml/internal/obs"

// WAL instruments: append/byte volume, fsync count and latency, retries.
// Timing goes through obs, the sanctioned clock for determinism-scoped
// packages; readings feed metrics only, never encoded bytes.
var (
	obsAppends = obs.NewCounter("wal_appends_total")
	obsBytes   = obs.NewCounter("wal_bytes_total")
	obsFsyncs  = obs.NewCounter("wal_fsyncs_total")
	obsRetries = obs.NewCounter("wal_retries_total")

	obsSyncNanos         = obs.NewHistogram("wal_sync_nanos")
	obsRetryBackoffNanos = obs.NewHistogram("wal_retry_backoff_nanos")
)
