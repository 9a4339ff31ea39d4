package storage

import (
	"io"

	"colorfulxml/internal/vfs"
)

// Fault-tolerance plumbing for the durable store: the shared retry loop, the
// one atomic file replacement (torn-tail truncation, checkpoint images and
// MANIFEST), and the disk probe the degraded-mode recovery loop polls.

// retrying runs op, retrying transient failures under policy p (see
// vfs.Backoff). Each retried attempt must be re-runnable from scratch.
func retrying(p vfs.RetryPolicy, op func() error) error {
	b := vfs.NewBackoff(p)
	for {
		err := op()
		if err == nil {
			return nil
		}
		delay, ok := b.Next(err)
		if !ok {
			return err
		}
		obsRetries.Inc()
		obsRetryBackoffNanos.Observe(int64(delay))
	}
}

// replaceFile atomically replaces dir/name with what write writes, via
// tmp + fsync + rename + dir-fsync; a crash leaves either the old file or the
// new one, never a mix. Every step before the rename is re-runnable from
// scratch (the tmp file is simply rewritten), and the rename is idempotent.
func replaceFile(fs vfs.FS, dir, name string, write func(io.Writer) error) error {
	path := vfs.Join(dir, name)
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		return err
	}
	return fs.SyncDir(dir)
}

// ProbeDisk checks whether the store's directory accepts durable writes
// again: one create + write + fsync + remove of a scratch file, with no
// retries — the caller's recovery loop is itself the retry schedule.
func (d *Durable) ProbeDisk() error {
	path := vfs.Join(d.dir, "probe.tmp")
	f, err := d.fs.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("probe")); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return d.fs.Remove(path)
}
