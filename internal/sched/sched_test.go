package sched

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// squareJobs builds n keyed jobs whose values depend on their index, with
// a tiny reversed-index delay so completion order differs from submission
// order under a multi-worker pool.
func squareJobs(n int, ran *atomic.Int64) []Job[int] {
	jobs := make([]Job[int], n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job[int]{
			Key:  KeyOf("square", i),
			Name: fmt.Sprintf("square/%d", i),
			Run: func(context.Context) (int, error) {
				if ran != nil {
					ran.Add(1)
				}
				time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
				return i * i, nil
			},
		}
	}
	return jobs
}

func TestRunDeterministicOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 8} {
		results := Run(squareJobs(24, nil), Options{Workers: workers})
		if len(results) != 24 {
			t.Fatalf("workers=%d: %d results", workers, len(results))
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d job %d: %v", workers, i, r.Err)
			}
			if r.Value != i*i {
				t.Errorf("workers=%d: results[%d] = %d, want %d", workers, i, r.Value, i*i)
			}
			if r.Elapsed <= 0 {
				t.Errorf("workers=%d: job %d has no elapsed time", workers, i)
			}
		}
	}
}

func TestRunDedupByKey(t *testing.T) {
	var ran atomic.Int64
	mk := func(name string) Job[string] {
		return Job[string]{
			Key:  KeyOf("shared"),
			Name: name,
			Run: func(context.Context) (string, error) {
				ran.Add(1)
				return "value", nil
			},
		}
	}
	results := Run([]Job[string]{mk("first"), mk("second"), mk("third")}, Options{Workers: 4})
	if got := ran.Load(); got != 1 {
		t.Fatalf("shared-key job ran %d times, want 1", got)
	}
	for i, r := range results {
		if r.Value != "value" || r.Err != nil {
			t.Errorf("result %d = %+v", i, r)
		}
	}
	// Duplicates keep their own names for reporting.
	if results[1].Name != "second" || results[2].Name != "third" {
		t.Errorf("duplicate names not preserved: %q, %q", results[1].Name, results[2].Name)
	}
}

func TestRunEmptyKeyNeverDedups(t *testing.T) {
	var ran atomic.Int64
	jobs := []Job[int]{
		{Name: "a", Run: func(context.Context) (int, error) { ran.Add(1); return 1, nil }},
		{Name: "b", Run: func(context.Context) (int, error) { ran.Add(1); return 2, nil }},
	}
	results := Run(jobs, Options{Workers: 2})
	if ran.Load() != 2 {
		t.Fatalf("unkeyed jobs ran %d times, want 2", ran.Load())
	}
	if results[0].Value != 1 || results[1].Value != 2 {
		t.Fatalf("results = %+v", results)
	}
}

func TestRunErrorIsolation(t *testing.T) {
	boom := errors.New("boom")
	jobs := []Job[int]{
		{Key: KeyOf(0), Name: "ok0", Run: func(context.Context) (int, error) { return 10, nil }},
		{Key: KeyOf(1), Name: "bad", Run: func(context.Context) (int, error) { return 0, boom }},
		{Key: KeyOf(2), Name: "ok2", Run: func(context.Context) (int, error) { return 20, nil }},
	}
	results := Run(jobs, Options{Workers: 2})
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatal("healthy jobs affected by a failing one")
	}
	if !errors.Is(results[1].Err, boom) {
		t.Fatalf("results[1].Err = %v", results[1].Err)
	}
	if err := FirstErr(results); err == nil || !errors.Is(err, boom) {
		t.Fatalf("FirstErr = %v", err)
	} else if got := err.Error(); got != "bad: boom" {
		t.Fatalf("FirstErr message = %q", got)
	}
	if err := FirstErr(results[:1]); err != nil {
		t.Fatalf("FirstErr on clean prefix = %v", err)
	}
}

func TestRunHooks(t *testing.T) {
	var started, finished atomic.Int64
	var lastSeq atomic.Int64
	opt := Options{
		Workers: 4,
		Hooks: Hooks{
			Started: func(ev Event) {
				started.Add(1)
				if ev.Total != 8 {
					t.Errorf("started total = %d", ev.Total)
				}
			},
			Finished: func(ev Event) {
				finished.Add(1)
				lastSeq.Store(int64(ev.Seq))
				if ev.Elapsed <= 0 {
					t.Errorf("finished %s without elapsed time", ev.Name)
				}
			},
		},
	}
	Run(squareJobs(8, nil), opt)
	if started.Load() != 8 || finished.Load() != 8 {
		t.Fatalf("hooks: started=%d finished=%d, want 8/8", started.Load(), finished.Load())
	}
	if lastSeq.Load() != 8 {
		t.Fatalf("final finished seq = %d, want 8", lastSeq.Load())
	}
}

func TestRunLedgerSkipsRecordedJobs(t *testing.T) {
	led, err := OpenLedger(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	var cached atomic.Int64
	opt := Options{
		Workers: 4,
		Ledger:  led,
		Hooks:   Hooks{Cached: func(Event) { cached.Add(1) }},
	}
	first := Run(squareJobs(6, &ran), opt)
	if ran.Load() != 6 || cached.Load() != 0 {
		t.Fatalf("cold run: ran=%d cached=%d", ran.Load(), cached.Load())
	}
	second := Run(squareJobs(6, &ran), opt)
	if ran.Load() != 6 {
		t.Fatalf("warm run re-executed: ran=%d", ran.Load())
	}
	if cached.Load() != 6 {
		t.Fatalf("warm run cached hook fired %d times, want 6", cached.Load())
	}
	for i := range second {
		if !second[i].Cached {
			t.Errorf("warm result %d not marked cached", i)
		}
		if second[i].Value != first[i].Value {
			t.Errorf("warm result %d = %d, want %d", i, second[i].Value, first[i].Value)
		}
	}
	if n, err := led.Len(); err != nil || n != 6 {
		t.Fatalf("ledger entries = %d (%v), want 6", n, err)
	}
}

func TestRunFailuresAreNotLedgered(t *testing.T) {
	led, err := OpenLedger(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	jobs := []Job[int]{{
		Key:  KeyOf("flaky"),
		Name: "flaky",
		Run:  func(context.Context) (int, error) { ran.Add(1); return 0, errors.New("transient") },
	}}
	Run(jobs, Options{Ledger: led})
	Run(jobs, Options{Ledger: led})
	if ran.Load() != 2 {
		t.Fatalf("failed job ran %d times, want 2 (failures must not be cached)", ran.Load())
	}
}

func TestKeyOf(t *testing.T) {
	type cfg struct {
		A int
		B string
	}
	k1 := KeyOf("x", cfg{1, "y"}, 42)
	k2 := KeyOf("x", cfg{1, "y"}, 42)
	if k1 != k2 {
		t.Fatal("KeyOf not stable for equal inputs")
	}
	if KeyOf("x", cfg{2, "y"}, 42) == k1 {
		t.Fatal("KeyOf ignored a field change")
	}
	if KeyOf("x", cfg{1, "y"}) == k1 {
		t.Fatal("KeyOf ignored a dropped part")
	}
	if len(k1) != 64 {
		t.Fatalf("key length = %d, want 64 hex chars", len(k1))
	}
}
