package sched

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"syscall"
)

// ledgerVersion is bumped when the entry envelope changes shape, so stale
// files from an older format read as misses instead of decoding garbage.
const ledgerVersion = 1

// entry is the on-disk envelope of one recorded job.
type entry struct {
	V     int             `json:"v"`
	Key   string          `json:"key"`
	Name  string          `json:"name"`
	Value json.RawMessage `json:"value"`
}

// Ledger is a persistent run ledger: one JSON file per job hash under a
// directory (results/ledger/ by convention). A recorded cell is skipped on
// rerun — the backbone of the cmd/* -incremental mode. Because keys are
// content hashes of the full cell configuration, any change to a workload,
// machine, strategy or scale produces a different key and re-executes.
type Ledger struct {
	dir string
	mu  sync.Mutex // serializes writes; reads are lock-free (files are
	// written atomically via rename)
}

// OpenLedger opens (creating if needed) a ledger directory.
func OpenLedger(dir string) (*Ledger, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sched: open ledger: %w", err)
	}
	return &Ledger{dir: dir}, nil
}

func (l *Ledger) path(key string) string {
	return filepath.Join(l.dir, key+".json")
}

// Get looks up a recorded value by job key, decoding it into out (a
// pointer). It returns (false, nil) for a plain miss: no entry file, or
// no directory to hold one (the ledger directory removed or replaced by
// a file, which Put reports when it cannot record the result). A
// truncated, corrupt or mismatched entry — e.g. the trailing write of a
// run killed mid-flight — is recovered, not fatal: the bad file is
// quarantined (renamed to <key>.json.corrupt so the next run re-executes
// the cell and the evidence survives for triage), and Get reports
// (false, err) where err describes the recovery so callers can log it and
// continue. An entry that cannot be read at all (permissions, I/O) is
// also (false, err), but stays in place: its contents may be intact.
func (l *Ledger) Get(key string, out any) (bool, error) {
	data, err := os.ReadFile(l.path(key))
	if errors.Is(err, fs.ErrNotExist) || errors.Is(err, syscall.ENOTDIR) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("ledger entry %s unreadable (%w): left in place, re-executing", key, err)
	}
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		return false, l.quarantine(key, fmt.Errorf("truncated or corrupt JSON: %w", err))
	}
	if e.V != ledgerVersion || e.Key != key {
		return false, l.quarantine(key, fmt.Errorf("version/key mismatch (v=%d key=%.16s…)", e.V, e.Key))
	}
	if err := json.Unmarshal(e.Value, out); err != nil {
		return false, l.quarantine(key, fmt.Errorf("undecodable value: %w", err))
	}
	return true, nil
}

// quarantine moves a bad entry aside so it reads as a plain miss from now
// on, and wraps cause with what happened. Removal is the fallback when the
// rename itself fails; if even that fails the entry stays and every run
// will re-report it — still only a lost cache hit, never a failed run.
func (l *Ledger) quarantine(key string, cause error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.Rename(l.path(key), l.path(key)+".corrupt"); err != nil {
		if rmErr := os.Remove(l.path(key)); rmErr != nil {
			return fmt.Errorf("ledger entry %s unreadable (%v) and could not be quarantined (%v): treating as a miss", key, cause, err)
		}
		return fmt.Errorf("ledger entry %s unreadable (%v): removed, re-executing", key, cause)
	}
	return fmt.Errorf("ledger entry %s unreadable (%v): quarantined as %s.json.corrupt, re-executing", key, cause, key)
}

// Put records a value under a job key, atomically (write to a temp file in
// the same directory, then rename).
func (l *Ledger) Put(key, name string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("sched: ledger put %s: %w", key, err)
	}
	data, err := json.MarshalIndent(entry{V: ledgerVersion, Key: key, Name: name, Value: raw}, "", "  ")
	if err != nil {
		return fmt.Errorf("sched: ledger put %s: %w", key, err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	tmp, err := os.CreateTemp(l.dir, ".put-*")
	if err != nil {
		return fmt.Errorf("sched: ledger put %s: %w", key, err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return fmt.Errorf("sched: ledger put %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("sched: ledger put %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), l.path(key)); err != nil {
		return fmt.Errorf("sched: ledger put %s: %w", key, err)
	}
	return nil
}

// Len reports how many entries the ledger currently holds.
func (l *Ledger) Len() (int, error) {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			n++
		}
	}
	return n, nil
}
