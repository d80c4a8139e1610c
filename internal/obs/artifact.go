package obs

import (
	"io"
	"os"
	"path/filepath"
	"strings"
)

// WriteArtifacts dumps every enabled surface of o into dir, prefixing
// file names with key (typically the scheduler's content hash, truncated
// to 16 hex chars) so artifacts line up with run-ledger entries:
//
//	<dir>/<key>.trace.json     Chrome trace_event JSON (Perfetto)
//	<dir>/<key>.metrics.json   metrics registry dump
//	<dir>/<key>.decisions.txt  Explain() audit report
//
// Disabled surfaces write nothing. A nil observer writes nothing and
// returns nil.
func WriteArtifacts(dir, key string, o *Observer) error {
	if o == nil {
		return nil
	}
	if len(key) > 16 {
		key = key[:16]
	}
	if key == "" {
		key = "run"
	}
	key = sanitize(key)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if t := o.Trace(); t != nil {
		if err := t.WriteFile(filepath.Join(dir, key+".trace.json")); err != nil {
			return err
		}
	}
	if m := o.Metrics(); m != nil {
		if err := m.WriteFile(filepath.Join(dir, key+".metrics.json")); err != nil {
			return err
		}
	}
	if d := o.Decisions(); d != nil {
		return writeFile(filepath.Join(dir, key+".decisions.txt"), d.Explain)
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sanitize keeps key usable as a file-name prefix.
func sanitize(key string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, key)
}
