package sched

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

type payload struct {
	Bench  string
	Cycles int64
}

func TestLedgerRoundTrip(t *testing.T) {
	led, err := OpenLedger(filepath.Join(t.TempDir(), "nested", "ledger"))
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf("cell", 1)
	want := payload{Bench: "cg", Cycles: 123456789}
	if err := led.Put(key, "cg/noprefetch", want); err != nil {
		t.Fatal(err)
	}
	var got payload
	hit, err := led.Get(key, &got)
	if err != nil || !hit {
		t.Fatalf("Get = %v, %v", hit, err)
	}
	if got != want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestLedgerMiss(t *testing.T) {
	led, err := OpenLedger(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var got payload
	hit, err := led.Get(KeyOf("absent"), &got)
	if hit || err != nil {
		t.Fatalf("miss = %v, %v; want false, nil", hit, err)
	}
}

func TestLedgerCorruptEntryIsAMiss(t *testing.T) {
	led, err := OpenLedger(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf("corrupt")
	if err := os.WriteFile(led.path(key), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var got payload
	hit, err := led.Get(key, &got)
	if hit {
		t.Fatal("corrupt entry reported as hit")
	}
	if err == nil {
		t.Fatal("corrupt entry produced no diagnostic")
	}
}

// TestLedgerUnreadableEntryIsReported: an entry that exists but cannot be
// read (here a directory in its place, EISDIR — reproducible even as
// root, unlike a permission bit) is not a silent miss. Get reports it,
// leaves it where it is, and a Run logs it through Logf and re-executes
// the cell.
func TestLedgerUnreadableEntryIsReported(t *testing.T) {
	led, err := OpenLedger(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf("unreadable")
	if err := os.Mkdir(led.path(key), 0o755); err != nil {
		t.Fatal(err)
	}
	var got payload
	for i := 0; i < 2; i++ {
		hit, err := led.Get(key, &got)
		if hit || err == nil {
			t.Fatalf("Get #%d = %v, %v; want false and a read error", i+1, hit, err)
		}
		if !strings.Contains(err.Error(), key) || !errors.Is(err, syscall.EISDIR) {
			t.Fatalf("read error does not name the entry or wrap its cause: %v", err)
		}
		if fi, err := os.Stat(led.path(key)); err != nil || !fi.IsDir() {
			t.Fatalf("unreadable entry was moved (stat err=%v)", err)
		}
		if _, err := os.Stat(led.path(key) + ".corrupt"); !os.IsNotExist(err) {
			t.Fatalf("unreadable entry was quarantined (stat err=%v)", err)
		}
	}

	var logs []string
	res := Run([]Job[int]{{Key: key, Name: "cell", Run: func(context.Context) (int, error) { return 7, nil }}},
		Options{Ledger: led, Logf: func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) }})
	if res[0].Err != nil || res[0].Cached || res[0].Value != 7 {
		t.Fatalf("result = %+v, want a fresh execution returning 7", res[0])
	}
	if len(logs) != 1 || !strings.Contains(logs[0], key) {
		t.Fatalf("logs = %q, want one line naming the entry", logs)
	}
}

func TestLedgerKeyMismatchIsAMiss(t *testing.T) {
	led, err := OpenLedger(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := led.Put(KeyOf("a"), "a", payload{Bench: "a"}); err != nil {
		t.Fatal(err)
	}
	// Copy a's entry file under b's key: the embedded key no longer
	// matches the filename, so it must not be trusted.
	data, err := os.ReadFile(led.path(KeyOf("a")))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(led.path(KeyOf("b")), data, 0o644); err != nil {
		t.Fatal(err)
	}
	var got payload
	hit, err := led.Get(KeyOf("b"), &got)
	if hit {
		t.Fatal("mismatched entry reported as hit")
	}
	if err == nil {
		t.Fatal("mismatched entry produced no diagnostic")
	}
}

func TestLedgerOverwrite(t *testing.T) {
	led, err := OpenLedger(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf("cell")
	if err := led.Put(key, "x", payload{Cycles: 1}); err != nil {
		t.Fatal(err)
	}
	if err := led.Put(key, "x", payload{Cycles: 2}); err != nil {
		t.Fatal(err)
	}
	var got payload
	if hit, err := led.Get(key, &got); !hit || err != nil {
		t.Fatalf("Get = %v, %v", hit, err)
	}
	if got.Cycles != 2 {
		t.Fatalf("Cycles = %d, want the overwritten value 2", got.Cycles)
	}
	if n, err := led.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v; want 1", n, err)
	}
}
