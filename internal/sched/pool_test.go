package sched

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolRunsSubmittedJobs is the basic lifecycle: every submitted job
// executes exactly once and resolves through its done callback.
func TestPoolRunsSubmittedJobs(t *testing.T) {
	p := NewPool[int](Options{Workers: 3}, 16)
	var (
		mu  sync.Mutex
		got []int
		wg  sync.WaitGroup
	)
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		err := p.Submit(context.Background(), Job[int]{
			Name: fmt.Sprintf("j%d", i),
			Run:  func(context.Context) (int, error) { return i * i, nil },
		}, func(r Result[int]) {
			defer wg.Done()
			if r.Err != nil {
				t.Errorf("job %d failed: %v", i, r.Err)
			}
			mu.Lock()
			got = append(got, r.Value)
			mu.Unlock()
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	wg.Wait()
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("resolved %d jobs, want 8", len(got))
	}
	sum := 0
	for _, v := range got {
		sum += v
	}
	if want := 0 + 1 + 4 + 9 + 16 + 25 + 36 + 49; sum != want {
		t.Fatalf("result sum = %d, want %d", sum, want)
	}
}

// TestPoolQueueBounds proves the backpressure contract: with every worker
// busy and the queue at capacity, Submit fails fast with ErrQueueFull
// instead of blocking or growing the queue.
func TestPoolQueueBounds(t *testing.T) {
	block := make(chan struct{})
	p := NewPool[int](Options{Workers: 1}, 2)
	defer func() {
		close(block)
		p.Shutdown(context.Background())
	}()

	started := make(chan struct{})
	ok := func() error {
		return p.Submit(context.Background(), Job[int]{
			Name: "blocker",
			Run: func(context.Context) (int, error) {
				close(started)
				<-block
				return 0, nil
			},
		}, nil)
	}
	if err := ok(); err != nil {
		t.Fatal(err)
	}
	<-started // the single worker is now wedged
	for i := 0; i < 2; i++ {
		err := p.Submit(context.Background(), Job[int]{
			Name: "queued",
			Run:  func(context.Context) (int, error) { <-block; return 0, nil },
		}, nil)
		if err != nil {
			t.Fatalf("queue slot %d: %v", i, err)
		}
	}
	err := p.Submit(context.Background(), Job[int]{Name: "overflow", Run: func(context.Context) (int, error) { return 0, nil }}, nil)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err = %v, want ErrQueueFull", err)
	}
	if p.QueueLen() != 2 {
		t.Fatalf("queue len = %d, want 2", p.QueueLen())
	}
}

// TestPoolSubmitAfterShutdown: intake closes the moment Shutdown begins.
func TestPoolSubmitAfterShutdown(t *testing.T) {
	p := NewPool[int](Options{Workers: 1}, 0)
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	err := p.Submit(context.Background(), Job[int]{Name: "late", Run: func(context.Context) (int, error) { return 0, nil }}, nil)
	if !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("post-shutdown submit: err = %v, want ErrPoolClosed", err)
	}
}

// TestPoolCancelBeforeStart: a job whose context is cancelled while it is
// still queued never executes, resolves with the context's error, and —
// with a ledger attached — records nothing.
func TestPoolCancelBeforeStart(t *testing.T) {
	led, err := OpenLedger(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	started := make(chan struct{})
	p := NewPool[int](Options{Workers: 1, Ledger: led}, 4)
	defer p.Shutdown(context.Background())

	if err := p.Submit(context.Background(), Job[int]{
		Name: "blocker",
		Run:  func(context.Context) (int, error) { close(started); <-block; return 0, nil },
	}, nil); err != nil {
		t.Fatal(err)
	}
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	ran := atomic.Bool{}
	resolved := make(chan Result[int], 1)
	if err := p.Submit(ctx, Job[int]{
		Key:  KeyOf("cancel-before-start"),
		Name: "victim",
		Run:  func(context.Context) (int, error) { ran.Store(true); return 42, nil },
	}, func(r Result[int]) { resolved <- r }); err != nil {
		t.Fatal(err)
	}
	cancel()     // while queued behind the blocker
	close(block) // release the worker
	r := <-resolved
	if !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("cancelled-while-queued job: err = %v, want context.Canceled", r.Err)
	}
	if ran.Load() {
		t.Fatal("cancelled-while-queued job executed anyway")
	}
	if n, _ := led.Len(); n != 0 {
		t.Fatalf("ledger recorded %d entries for a run with no completed keyed job, want 0", n)
	}
}

// TestPoolCancelMidJob: a job observing its context mid-execution
// resolves as cancelled, and the ledger never records it as complete —
// the invariant that makes -incremental safe under a service that kills
// sessions.
func TestPoolCancelMidJob(t *testing.T) {
	led, err := OpenLedger(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool[int](Options{Workers: 1, Ledger: led}, 0)
	defer p.Shutdown(context.Background())

	ctx, cancel := context.WithCancel(context.Background())
	entered := make(chan struct{})
	resolved := make(chan Result[int], 1)
	key := KeyOf("cancel-mid-job")
	if err := p.Submit(ctx, Job[int]{
		Key:  key,
		Name: "victim",
		Run: func(jctx context.Context) (int, error) {
			close(entered)
			<-jctx.Done()
			return 0, jctx.Err()
		},
	}, func(r Result[int]) { resolved <- r }); err != nil {
		t.Fatal(err)
	}
	<-entered
	cancel()
	r := <-resolved
	if !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("cancelled mid-job: err = %v, want context.Canceled", r.Err)
	}
	if hit, _ := led.Get(key, new(int)); hit {
		t.Fatal("ledger recorded a cancelled job as complete")
	}
}

// TestPoolCancelRacingCompletion: even when the job function returns a
// value and a nil error, a context cancelled during execution wins — the
// result is reported cancelled and stays out of the ledger. This pins the
// post-run context check in Pool.execute.
func TestPoolCancelRacingCompletion(t *testing.T) {
	led, err := OpenLedger(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool[int](Options{Workers: 1, Ledger: led}, 0)
	defer p.Shutdown(context.Background())

	ctx, cancel := context.WithCancel(context.Background())
	resolved := make(chan Result[int], 1)
	key := KeyOf("cancel-racing-completion")
	if err := p.Submit(ctx, Job[int]{
		Key:  key,
		Name: "racer",
		Run: func(jctx context.Context) (int, error) {
			cancel() // cancellation lands, then the job "completes" anyway
			return 7, nil
		},
	}, func(r Result[int]) { resolved <- r }); err != nil {
		t.Fatal(err)
	}
	r := <-resolved
	if !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("race: err = %v, want context.Canceled", r.Err)
	}
	if hit, _ := led.Get(key, new(int)); hit {
		t.Fatal("ledger recorded a job that completed after cancellation")
	}
}

// TestPoolPanicIsolation: a panicking job resolves with *PanicError and
// takes down neither its worker nor the process; the pool keeps serving.
func TestPoolPanicIsolation(t *testing.T) {
	var logged atomic.Int64
	p := NewPool[int](Options{Workers: 1, Logf: func(string, ...any) { logged.Add(1) }}, 0)
	defer p.Shutdown(context.Background())

	resolved := make(chan Result[int], 1)
	if err := p.Submit(context.Background(), Job[int]{
		Name: "bomber",
		Run:  func(context.Context) (int, error) { panic("session bug") },
	}, func(r Result[int]) { resolved <- r }); err != nil {
		t.Fatal(err)
	}
	r := <-resolved
	var pe *PanicError
	if !errors.As(r.Err, &pe) {
		t.Fatalf("panicking job: err = %v (%T), want *PanicError", r.Err, r.Err)
	}
	if pe.Value != "session bug" || len(pe.Stack) == 0 {
		t.Fatalf("panic evidence incomplete: value=%v stack=%d bytes", pe.Value, len(pe.Stack))
	}
	if logged.Load() == 0 {
		t.Fatal("isolated panic was not logged")
	}

	// The same worker must still be alive to run the next job.
	if err := p.Submit(context.Background(), Job[int]{
		Name: "survivor",
		Run:  func(context.Context) (int, error) { return 1, nil },
	}, func(r Result[int]) { resolved <- r }); err != nil {
		t.Fatal(err)
	}
	if r := <-resolved; r.Err != nil || r.Value != 1 {
		t.Fatalf("post-panic job: value=%d err=%v, want 1/nil", r.Value, r.Err)
	}
}

// TestPoolShutdownDrains: jobs queued before Shutdown all execute and all
// done callbacks fire before Shutdown returns — the drain the service
// relies on for SIGTERM.
func TestPoolShutdownDrains(t *testing.T) {
	p := NewPool[int](Options{Workers: 2}, 16)
	var resolvedCount atomic.Int64
	const n = 10
	for i := 0; i < n; i++ {
		if err := p.Submit(context.Background(), Job[int]{
			Name: fmt.Sprintf("drain%d", i),
			Run: func(context.Context) (int, error) {
				time.Sleep(5 * time.Millisecond)
				return 0, nil
			},
		}, func(Result[int]) { resolvedCount.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := resolvedCount.Load(); got != n {
		t.Fatalf("drained %d of %d jobs before Shutdown returned", got, n)
	}
}

// TestPoolShutdownDeadline: a Shutdown bounded by an expiring context
// reports the deadline while a wedged job still drains; cancelling the
// job's context then lets Wait unwind the workers.
func TestPoolShutdownDeadline(t *testing.T) {
	p := NewPool[int](Options{Workers: 1}, 0)
	ctx, cancel := context.WithCancel(context.Background())
	entered := make(chan struct{})
	if err := p.Submit(ctx, Job[int]{
		Name: "wedged",
		Run: func(jctx context.Context) (int, error) {
			close(entered)
			<-jctx.Done()
			return 0, jctx.Err()
		},
	}, nil); err != nil {
		t.Fatal(err)
	}
	<-entered
	dctx, dcancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer dcancel()
	if err := p.Shutdown(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("bounded shutdown over a wedged job: err = %v, want DeadlineExceeded", err)
	}
	cancel()
	p.Wait() // must return now that the job observed its cancellation
}

// TestPoolHookCounts: a service pool counts Seq per state — started jobs
// for Started, finished or cached jobs for Finished and Cached — and
// reports Total 0, since it has no fixed job count.
func TestPoolHookCounts(t *testing.T) {
	led, err := OpenLedger(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := led.Put(KeyOf("hooks", "b"), "b", 2); err != nil {
		t.Fatal(err)
	}
	var events []string
	record := func(state string) func(Event) {
		return func(ev Event) { events = append(events, fmt.Sprintf("%s %s %d/%d", state, ev.Name, ev.Seq, ev.Total)) }
	}
	p := NewPool[int](Options{Workers: 1, Ledger: led, Hooks: Hooks{
		Started:  record("started"),
		Finished: record("finished"),
		Cached:   record("cached"),
	}}, 4)
	for _, name := range []string{"a", "b", "c"} {
		job := Job[int]{Key: KeyOf("hooks", name), Name: name, Run: func(context.Context) (int, error) { return 1, nil }}
		if err := p.Submit(context.Background(), job, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := []string{"started a 1/0", "finished a 1/0", "cached b 2/0", "started c 2/0", "finished c 3/0"}
	if fmt.Sprint(events) != fmt.Sprint(want) {
		t.Fatalf("hook events = %q, want %q", events, want)
	}
}

// TestLedgerRecoversCorruptEntry: truncated and garbage trailing entries
// — the crash-mid-write shapes — read as misses, are quarantined for
// triage, and the next Run re-executes and re-records the cell.
func TestLedgerRecoversCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	led, err := OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf("corrupt-entry")
	if err := led.Put(key, "cell", 42); err != nil {
		t.Fatal(err)
	}

	full, err := os.ReadFile(filepath.Join(dir, key+".json"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"truncated", full[:len(full)/2]},
		{"garbage", []byte("not json at all\x00\xff")},
		{"empty", nil},
		{"wrong-key", []byte(`{"v":1,"key":"deadbeef","name":"x","value":1}`)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, key+".json")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			var out int
			hit, gerr := led.Get(key, &out)
			if hit {
				t.Fatal("corrupt entry reported as a hit")
			}
			if gerr == nil {
				t.Fatal("recovery was silent: want a descriptive error to log")
			}
			if !strings.Contains(gerr.Error(), "re-executing") {
				t.Fatalf("recovery error does not describe the recovery: %v", gerr)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt entry still in place after recovery (stat err=%v)", err)
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Fatalf("quarantine file missing: %v", err)
			}
			// A second Get is now a plain miss, silently.
			if hit, gerr := led.Get(key, &out); hit || gerr != nil {
				t.Fatalf("post-recovery Get = (%v, %v), want plain miss", hit, gerr)
			}
			os.Remove(path + ".corrupt")
		})
	}
}

// TestRunContinuesPastCorruptLedgerEntry is the end-to-end satellite fix:
// a sweep whose ledger grew a corrupt trailing entry logs, re-executes
// that cell, and completes — it must not fail the run.
func TestRunContinuesPastCorruptLedgerEntry(t *testing.T) {
	dir := t.TempDir()
	led, err := OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf("sweep-cell")
	mk := func() []Job[int] {
		return []Job[int]{{Key: key, Name: "cell", Run: func(context.Context) (int, error) { return 9, nil }}}
	}
	Run(mk(), Options{Ledger: led})
	// Corrupt the recorded entry as a killed write would.
	path := filepath.Join(dir, key+".json")
	if err := os.WriteFile(path, []byte(`{"v":1,"key":`), 0o644); err != nil {
		t.Fatal(err)
	}
	var logs []string
	res := Run(mk(), Options{Ledger: led, Logf: func(f string, a ...any) {
		logs = append(logs, fmt.Sprintf(f, a...))
	}})
	if res[0].Err != nil {
		t.Fatalf("run failed on a corrupt ledger entry: %v", res[0].Err)
	}
	if res[0].Cached {
		t.Fatal("corrupt entry served as a cache hit")
	}
	if res[0].Value != 9 {
		t.Fatalf("re-executed value = %d, want 9", res[0].Value)
	}
	if len(logs) == 0 {
		t.Fatal("recovery was not logged")
	}
	// The re-execution re-recorded the cell: next run is a clean hit.
	res = Run(mk(), Options{Ledger: led})
	if !res[0].Cached || res[0].Value != 9 {
		t.Fatalf("post-recovery run: cached=%v value=%d, want true/9", res[0].Cached, res[0].Value)
	}
}

// TestRunLogsLedgerWriteFailure: a ledger that cannot record a result
// (here its directory replaced by a regular file, which fails even for
// root) leaves the job's result as it is and says so once through Logf,
// naming the job's key. The read finds no entry, a plain miss, so the
// one line is the failed write.
func TestRunLogsLedgerWriteFailure(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	led, err := OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	key := KeyOf("unwritable-ledger")
	var logs []string
	res := Run([]Job[int]{{Key: key, Name: "cell", Run: func(context.Context) (int, error) { return 5, nil }}},
		Options{Ledger: led, Logf: func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) }})
	if res[0].Err != nil || res[0].Cached || res[0].Value != 5 {
		t.Fatalf("result = %+v, want a fresh execution returning 5", res[0])
	}
	named := 0
	for _, l := range logs {
		if strings.Contains(l, key) {
			named++
		}
	}
	if named != 1 || !strings.Contains(logs[0], "ledger put") {
		t.Fatalf("logs = %q, want exactly one line, the failed write of %s", logs, key)
	}
}

// resolve submits job to p and waits for its result.
func resolve(t *testing.T, p *Pool[int], job Job[int]) Result[int] {
	t.Helper()
	done := make(chan Result[int], 1)
	if err := p.Submit(context.Background(), job, func(r Result[int]) { done <- r }); err != nil {
		t.Fatal(err)
	}
	return <-done
}

// TestPoolAnswersRepeatFromMemory: a long-lived pool answers a key it
// has already written to its ledger, or read from it, from memory — so
// with the entry files removed behind its back, both keys still resolve
// Cached with their values, and neither job runs again.
func TestPoolAnswersRepeatFromMemory(t *testing.T) {
	led, err := OpenLedger(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	written, read := KeyOf("memo", "written"), KeyOf("memo", "read")
	if err := led.Put(read, "read", 11); err != nil {
		t.Fatal(err)
	}
	p := NewPool[int](Options{Workers: 1, Ledger: led}, 0)
	defer p.Shutdown(context.Background())
	var runs atomic.Int64
	job := func(key string, v int) Job[int] {
		return Job[int]{Key: key, Name: "memo", Run: func(context.Context) (int, error) { runs.Add(1); return v, nil }}
	}
	if r := resolve(t, p, job(written, 7)); r.Err != nil || r.Cached || r.Value != 7 {
		t.Fatalf("first run = %+v, want an execution returning 7", r)
	}
	if r := resolve(t, p, job(read, 0)); r.Err != nil || !r.Cached || r.Value != 11 {
		t.Fatalf("recorded key = %+v, want the ledger's 11, cached", r)
	}
	for _, key := range []string{written, read} {
		if err := os.Remove(led.path(key)); err != nil {
			t.Fatal(err)
		}
	}
	if r := resolve(t, p, job(written, 0)); r.Err != nil || !r.Cached || r.Value != 7 {
		t.Fatalf("repeat of the written key = %+v, want 7 from memory, cached", r)
	}
	if r := resolve(t, p, job(read, 0)); r.Err != nil || !r.Cached || r.Value != 11 {
		t.Fatalf("repeat of the read key = %+v, want 11 from memory, cached", r)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("Run called %d times, want 1", n)
	}
}

// TestPoolForgetsUnrecordedValue: a value the ledger failed to record
// (its directory replaced by a regular file) is not remembered either,
// so an identical job executes again instead of reporting Cached for an
// entry the ledger does not hold.
func TestPoolForgetsUnrecordedValue(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	led, err := OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	p := NewPool[int](Options{Workers: 1, Ledger: led}, 0)
	defer p.Shutdown(context.Background())
	job := Job[int]{Key: KeyOf("unrecorded"), Name: "cell", Run: func(context.Context) (int, error) { return 5, nil }}
	for i := 1; i <= 2; i++ {
		if r := resolve(t, p, job); r.Err != nil || r.Cached || r.Value != 5 {
			t.Fatalf("run %d = %+v, want an execution returning 5", i, r)
		}
	}
}

// TestPoolMemoBound: remembering more keys than memoCap keeps at most
// memoCap, and a forgotten key is still a hit through the ledger file —
// which puts it back in memory.
func TestPoolMemoBound(t *testing.T) {
	led, err := OpenLedger(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool[int](Options{Workers: 1, Ledger: led}, 0)
	defer p.Shutdown(context.Background())
	key := KeyOf("memo-bound")
	var runs atomic.Int64
	job := Job[int]{Key: key, Name: "cell", Run: func(context.Context) (int, error) { runs.Add(1); return 3, nil }}
	if r := resolve(t, p, job); r.Err != nil || r.Cached {
		t.Fatalf("first run = %+v, want an execution", r)
	}
	// Displacement is arbitrary: add keys until the job's is gone (each
	// one past the cap displaces some key; the loop bound makes a stuck
	// eviction a failure, not a hang).
	forgotten := false
	for i := 0; i < 64*memoCap && !forgotten; i++ {
		p.remember(fmt.Sprint("filler-", i), i)
		_, held := p.recall(key)
		forgotten = !held
	}
	if !forgotten {
		t.Fatalf("key still remembered after %d more keys", 64*memoCap)
	}
	if n := len(p.memo); n != memoCap {
		t.Fatalf("memo holds %d keys, want the cap %d", n, memoCap)
	}
	if r := resolve(t, p, job); r.Err != nil || !r.Cached || r.Value != 3 {
		t.Fatalf("forgotten key = %+v, want 3 from the ledger file, cached", r)
	}
	if _, held := p.recall(key); !held {
		t.Fatal("a ledger file hit was not remembered")
	}
	if n := len(p.memo); n != memoCap {
		t.Fatalf("memo holds %d keys after the hit, want %d", n, memoCap)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("Run called %d times, want 1", n)
	}
}

// TestPoolRepeatedKeysConcurrently: goroutines submitting the same few
// keys at once, through misses, writes and remembered hits, each get
// their own key's value. Run under -race -count=10.
func TestPoolRepeatedKeysConcurrently(t *testing.T) {
	led, err := OpenLedger(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const keys, submitters, perSubmitter = 6, 4, 60
	p := NewPool[int](Options{Workers: 3, Ledger: led}, submitters*perSubmitter)
	defer p.Shutdown(context.Background())
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var resolved sync.WaitGroup
			for i := 0; i < perSubmitter; i++ {
				k := (g + i) % keys
				job := Job[int]{Key: KeyOf("repeat", k), Name: fmt.Sprint("k", k), Run: func(context.Context) (int, error) { return 100 + k, nil }}
				resolved.Add(1)
				err := p.Submit(context.Background(), job, func(r Result[int]) {
					defer resolved.Done()
					if r.Err != nil || r.Value != 100+k {
						t.Errorf("key %d: value %d err %v, want %d", k, r.Value, r.Err, 100+k)
					}
				})
				if err != nil {
					resolved.Done()
					t.Errorf("submit: %v", err)
				}
			}
			resolved.Wait()
		}(g)
	}
	wg.Wait()
}
