// Command cobra-top tails a cobrad SSE telemetry stream and renders it
// live in the terminal — the `top` of the optimization service.
//
// Two views:
//
//	cobra-top -addr http://host:8321 -session s-000001
//	    One session: a per-region patch-lifecycle timeline
//	    (candidate → deployed → kept / rolled_back / switched / blocked)
//	    with the evidence of the latest decision, plus a rolling-IPC
//	    sparkline fed by the control loop's per-window pass events.
//
//	cobra-top -addr http://host:8321
//	    The whole server (GET /eventsz): every session's state as it
//	    changes, queue depth, and serve.* counter deltas accumulated
//	    since attach.
//
// The client resumes after a dropped connection from the last event id
// it saw (SSE Last-Event-ID), so a flaky link loses nothing the bus
// still retains. -plain switches to one line per event (no ANSI), for
// logs and pipes; -from replays a stream from an earlier sequence
// number (0 = everything the bus retains).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"
)

// wireEvent mirrors obs.BusEvent with the payload left raw; decoded
// per-kind below. Kept local so cobra-top stays a pure HTTP client.
type wireEvent struct {
	Seq   int64           `json:"seq"`
	Kind  string          `json:"kind"`
	Cycle int64           `json:"cycle,omitempty"`
	Data  json.RawMessage `json:"data,omitempty"`
}

type passEvent struct {
	Window        int     `json:"window"`
	Cycle         int64   `json:"cycle"`
	IPC           float64 `json:"ipc"`
	CoherentShare float64 `json:"coherent_share"`
	Samples       int64   `json:"samples"`
}

type decisionEvent struct {
	Seq    int    `json:"seq"`
	Cycle  int64  `json:"cycle"`
	Region uint64 `json:"region"`
	Window int    `json:"window,omitempty"`
	From   string `json:"from,omitempty"`
	To     string `json:"to"`
	Reason string `json:"reason"`
	Ev     struct {
		BaselineIPC float64 `json:"baseline_ipc,omitempty"`
		PatchedIPC  float64 `json:"patched_ipc,omitempty"`
		Rewrite     string  `json:"rewrite,omitempty"`
		Variant     string  `json:"variant,omitempty"`
	} `json:"evidence"`
}

type sessionEvent struct {
	ID         string `json:"id"`
	Name       string `json:"name"`
	State      string `json:"state"`
	Cached     bool   `json:"cached,omitempty"`
	Error      string `json:"error,omitempty"`
	QueueDepth int    `json:"queue_depth"`
	Running    int    `json:"running"`
}

type serveEvent struct {
	CounterDeltas map[string]int64 `json:"counter_deltas,omitempty"`
	QueueDepth    int              `json:"queue_depth"`
	Running       int              `json:"running"`
}

type endEvent struct {
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cobra-top: ")
	var (
		addr    = flag.String("addr", "http://127.0.0.1:8321", "cobrad base URL")
		session = flag.String("session", "", "session id to tail (empty = server-wide /eventsz view)")
		from    = flag.Int64("from", 0, "replay the events after this seq (0 = everything the bus retains)")
		plain   = flag.Bool("plain", false, "one line per event, no ANSI redraw (for logs and pipes)")
		refresh = flag.Duration("refresh", 250*time.Millisecond, "minimum interval between screen redraws")
	)
	flag.Parse()

	url := *addr + "/eventsz"
	if *session != "" {
		url = *addr + "/sessions/" + *session + "/events"
	}
	start := int64(0)
	if *from > 0 {
		start = *from
	}

	v := newView(*session, *plain, *refresh)
	// Reconnect loop: resume from the last seq seen. A clean end event
	// terminates; transport errors retry until the server disappears for
	// good (bounded retries once events have flowed at least once).
	last, retries := start, 0
	for {
		end, err := tail(url, last, v)
		if end {
			v.finish()
			return
		}
		if v.lastSeq > last {
			last, retries = v.lastSeq, 0
		} else {
			retries++
			if retries > 5 {
				log.Fatalf("stream %s: %v (gave up after %d retries)", url, err, retries)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "cobra-top: reconnecting (%v)\n", err)
		}
		time.Sleep(time.Second)
	}
}

// tail follows one SSE connection, feeding events into the view.
// Returns end=true when the stream terminated with an end event.
func tail(url string, from int64, v *view) (end bool, err error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return false, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if from > 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprint(from))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return false, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var data strings.Builder
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "": // dispatch
			if data.Len() > 0 {
				var ev wireEvent
				if err := json.Unmarshal([]byte(data.String()), &ev); err == nil {
					if v.apply(ev) {
						return true, nil
					}
				}
				data.Reset()
			}
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimSpace(line[len("data:"):]))
		case strings.HasPrefix(line, ":"): // comment/heartbeat: surface gaps
			if strings.Contains(line, "gap") && v.plain {
				fmt.Println(line)
			}
		}
	}
	return false, sc.Err()
}

// regionRow is the accumulated lifecycle of one patched region.
type regionRow struct {
	region   uint64
	timeline []string // state abbreviations in decision order
	last     decisionEvent
}

// view renders the stream. Plain mode prints one line per event;
// interactive mode repaints the whole screen, throttled to refresh.
type view struct {
	session string
	plain   bool
	refresh time.Duration

	lastSeq   int64
	lastCycle int64
	lastDraw  time.Time

	// session view
	ipc     []float64 // rolling window IPC, newest last
	windows int
	regions map[uint64]*regionRow

	// server view
	sessions map[string]sessionEvent
	sessOrd  []string
	queue    int
	running  int
	counters map[string]int64 // accumulated serve.* deltas since attach
}

func newView(session string, plain bool, refresh time.Duration) *view {
	return &view{
		session: session, plain: plain, refresh: refresh,
		regions:  map[uint64]*regionRow{},
		sessions: map[string]sessionEvent{},
		counters: map[string]int64{},
	}
}

var stateAbbrev = map[string]string{
	"candidate": "c", "deployed": "D", "kept": "K",
	"rolled_back": "R", "blocked": "B", "switched": "S",
}

// apply folds one event into the view; returns true on the end marker.
func (v *view) apply(ev wireEvent) bool {
	v.lastSeq = ev.Seq
	if ev.Cycle > 0 {
		v.lastCycle = ev.Cycle
	}
	switch ev.Kind {
	case "pass":
		var p passEvent
		if json.Unmarshal(ev.Data, &p) == nil {
			v.windows = p.Window + 1
			v.ipc = append(v.ipc, p.IPC)
			if len(v.ipc) > 60 {
				v.ipc = v.ipc[1:]
			}
			if v.plain {
				fmt.Printf("[%8d] window %3d  cycle %-12d ipc %.4f  coherent %.3f  samples %d\n",
					ev.Seq, p.Window, p.Cycle, p.IPC, p.CoherentShare, p.Samples)
			}
		}
	case "decision":
		var d decisionEvent
		if json.Unmarshal(ev.Data, &d) == nil {
			row := v.regions[d.Region]
			if row == nil {
				row = &regionRow{region: d.Region}
				v.regions[d.Region] = row
			}
			ab := stateAbbrev[d.To]
			if ab == "" {
				ab = "?"
			}
			row.timeline = append(row.timeline, ab)
			row.last = d
			if v.plain {
				fmt.Printf("[%8d] region %#x  %s -> %s  (%s)  rewrite=%s ipc %.4f->%.4f\n",
					ev.Seq, d.Region, orDash(d.From), d.To, d.Reason,
					orDash(d.Ev.Rewrite), d.Ev.BaselineIPC, d.Ev.PatchedIPC)
			}
		}
	case "window":
		// Metric snapshots ride along for dashboards; the terminal view
		// derives everything it shows from pass + decision events.
	case "session":
		var se sessionEvent
		if json.Unmarshal(ev.Data, &se) == nil {
			if _, seen := v.sessions[se.ID]; !seen {
				v.sessOrd = append(v.sessOrd, se.ID)
			}
			v.sessions[se.ID] = se
			v.queue, v.running = se.QueueDepth, se.Running
			if v.plain {
				fmt.Printf("[%8d] session %s  %-9s %s  queue=%d running=%d %s\n",
					ev.Seq, se.ID, se.State, se.Name, se.QueueDepth, se.Running, se.Error)
			}
		}
	case "serve":
		var sv serveEvent
		if json.Unmarshal(ev.Data, &sv) == nil {
			for k, d := range sv.CounterDeltas {
				v.counters[k] += d
			}
			v.queue, v.running = sv.QueueDepth, sv.Running
			if v.plain {
				fmt.Printf("[%8d] serve deltas %v\n", ev.Seq, sv.CounterDeltas)
			}
		}
	case "end":
		var e endEvent
		if json.Unmarshal(ev.Data, &e) == nil && v.plain {
			fmt.Printf("[%8d] end: %s %s\n", ev.Seq, e.State, e.Error)
		}
		return true
	}
	if !v.plain {
		v.draw(false)
	}
	return false
}

func (v *view) finish() {
	if !v.plain {
		v.draw(true)
	}
}

var sparks = []rune("▁▂▃▄▅▆▇█")

func sparkline(xs []float64) string {
	if len(xs) == 0 {
		return ""
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	var b strings.Builder
	for _, x := range xs {
		i := 0
		if hi > lo {
			i = int((x - lo) / (hi - lo) * float64(len(sparks)-1))
		}
		b.WriteRune(sparks[i])
	}
	return b.String()
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// draw repaints the screen (ANSI home+clear), throttled unless final.
func (v *view) draw(final bool) {
	now := time.Now()
	if !final && now.Sub(v.lastDraw) < v.refresh {
		return
	}
	v.lastDraw = now

	var b strings.Builder
	b.WriteString("\033[H\033[2J")
	if v.session != "" {
		fmt.Fprintf(&b, "cobra-top — session %s   seq %d   cycle %d   windows %d\n\n",
			v.session, v.lastSeq, v.lastCycle, v.windows)
		if len(v.ipc) > 0 {
			cur := v.ipc[len(v.ipc)-1]
			fmt.Fprintf(&b, "  ipc %.4f  %s\n\n", cur, sparkline(v.ipc))
		}
		if len(v.regions) == 0 {
			b.WriteString("  (no patch decisions yet)\n")
		} else {
			fmt.Fprintf(&b, "  %-14s %-10s %-24s %-9s %s\n", "REGION", "STATE", "TIMELINE", "REWRITE", "IPC base->patched")
			keys := make([]uint64, 0, len(v.regions))
			for k := range v.regions {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			for _, k := range keys {
				row := v.regions[k]
				tl := strings.Join(row.timeline, "→")
				if len(tl) > 24 {
					tl = "…" + tl[len(tl)-23:]
				}
				rw := row.last.Ev.Rewrite
				if row.last.Ev.Variant != "" {
					rw = row.last.Ev.Variant
				}
				fmt.Fprintf(&b, "  %-14s %-10s %-24s %-9s %.4f->%.4f  (%s)\n",
					fmt.Sprintf("%#x", k), row.last.To, tl, orDash(rw),
					row.last.Ev.BaselineIPC, row.last.Ev.PatchedIPC, row.last.Reason)
			}
		}
	} else {
		fmt.Fprintf(&b, "cobra-top — server   seq %d   queue %d   running %d\n\n",
			v.lastSeq, v.queue, v.running)
		if len(v.counters) > 0 {
			names := make([]string, 0, len(v.counters))
			for n := range v.counters {
				names = append(names, n)
			}
			sort.Strings(names)
			b.WriteString("  deltas since attach:")
			for _, n := range names {
				fmt.Fprintf(&b, "  %s=%d", strings.TrimPrefix(n, "serve."), v.counters[n])
			}
			b.WriteString("\n\n")
		}
		fmt.Fprintf(&b, "  %-10s %-9s %-30s %s\n", "SESSION", "STATE", "NAME", "NOTE")
		for i := len(v.sessOrd) - 1; i >= 0 && i >= len(v.sessOrd)-20; i-- {
			se := v.sessions[v.sessOrd[i]]
			note := se.Error
			if se.Cached {
				note = "ledger hit"
			}
			fmt.Fprintf(&b, "  %-10s %-9s %-30s %s\n", se.ID, se.State, se.Name, note)
		}
	}
	if final {
		b.WriteString("\nstream ended\n")
	}
	os.Stdout.WriteString(b.String())
}
