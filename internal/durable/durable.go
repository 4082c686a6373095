// Package durable is the one way DLIS writes a state file (the tuner
// cache, the tenant usage ledger): a locked, crash-safe
// read-merge-write. Callers supply only their decode/merge/encode;
// locking, temp files, fsync and rename live here.
package durable

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// Update replaces the file at path with update(old), where old is the
// file's current contents (nil if it does not exist yet). A file that
// exists but cannot be read is an error: what cannot be merged is not
// overwritten.
//
// Concurrent Updates of files in the same directory — from goroutines
// or from other processes — are serialised by an exclusive flock on the
// directory itself, so each update reads what the previous one wrote
// and none is lost. Locking the directory fd rather than a sidecar lock
// file leaves no extra file behind, and the kernel drops the lock if
// the holder dies.
//
// The new contents go to a temp file in the same directory, which is
// fsynced, renamed over path, and then the directory is fsynced: a
// reader, or a process killed at any instant, sees either the old file
// or the new one, never a torn one. If update returns an error the file
// is left untouched; on any failure the temp file is removed.
func Update(path string, update func(old []byte) ([]byte, error)) (err error) {
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close() // closing the fd releases the lock
	if err := syscall.Flock(int(dir.Fd()), syscall.LOCK_EX); err != nil {
		return &fs.PathError{Op: "flock", Path: dir.Name(), Err: err}
	}
	old, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		old, err = nil, nil
	}
	if err != nil {
		return err
	}
	data, err := update(old)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir.Name(), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(data); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return dir.Sync()
}
