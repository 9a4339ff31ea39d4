package storage

import "colorfulxml/internal/obs"

// Storage instruments: index probe counts at B+-tree lookup granularity
// (one probe per posting-list fetch, so hot scans pay one atomic add per
// operation, not per row), snapshot maintenance activity, and checkpoint
// serialization timing. This package is determinism-scoped by mctlint, so
// all timing goes through obs (exempted outside crashtest/WAL-encode
// paths), never through package time directly.
var (
	obsIndexProbes = obs.NewCounter("storage_index_probes_total")

	obsPathSummaryBuilds = obs.NewCounter("storage_path_summary_builds_total")
	obsPathSummaryProbes = obs.NewCounter("storage_path_summary_probes_total")

	// How structural inserts found room (number.go): ends moved into free
	// positions, sibling runs relabelled, and the records each relabel rewrote.
	obsIntervalGrows = obs.NewCounter("storage_interval_grows_total")
	obsRelabels      = obs.NewCounter("storage_relabels_total")
	obsRelabelNodes  = obs.NewHistogram("storage_relabel_nodes")

	obsSnapshotClones  = obs.NewCounter("storage_snapshot_clones_total")
	obsChangesApplied  = obs.NewCounter("storage_changes_applied_total")
	obsCheckpointSaves = obs.NewCounter("storage_checkpoint_writes_total")
	obsCheckpointLoads = obs.NewCounter("storage_checkpoint_loads_total")

	// What the last OpenDurable spent loading the checkpoint and replaying the
	// log (RecoveryStats.Elapsed): why start-up took as long as it did.
	obsRecoveryNanos = obs.NewGauge("storage_recovery_nanos")

	obsCheckpointWriteNanos = obs.NewHistogram("storage_checkpoint_write_nanos")
	obsCheckpointLoadNanos  = obs.NewHistogram("storage_checkpoint_load_nanos")

	obsRetries          = obs.NewCounter("storage_retries_total")
	obsReseals          = obs.NewCounter("storage_reseals_total")
	obsScrubFiles       = obs.NewCounter("storage_scrub_files_total")
	obsScrubBytes       = obs.NewCounter("storage_scrub_bytes_total")
	obsScrubCorruptions = obs.NewCounter("storage_scrub_corruptions_total")

	obsRetryBackoffNanos = obs.NewHistogram("storage_retry_backoff_nanos")
)
