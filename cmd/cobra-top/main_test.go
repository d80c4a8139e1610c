package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// Two events as cobrad streamed them for a phased adaptive session: the
// second window, and the region's deployment.
const (
	windowData   = `{"seq":2,"kind":"window","cycle":100000,"data":{"window":1,"cycle":100000,"counters":{"cobra.loads_biased":0,"cobra.optimizer_passes":2,"cobra.patches_applied":0,"cobra.patches_rolled_back":0,"cobra.prefetches_excl":0,"cobra.prefetches_nopped":0,"cobra.samples_seen":16,"cobra.traces_emitted":0,"cobra.triggers":0,"cobra.variant_switches":0,"machine.runs":7,"perfmon.dropped":0,"perfmon.samples":16},"gauges":{"cobra.global_ipc_ema":2.0551900689973643,"cobra.window_coherent_share":1,"cobra.window_ipc":2.4399769995687417},"histograms":{"cobra.pass_cycles":{"count":2,"sum":100000,"min":50000,"max":50000,"mean":50000,"p50":50000,"p95":50000,"p99":50000,"buckets":{"le_65536":2}},"cobra.window_samples":{"count":2,"sum":16,"min":8,"max":8,"mean":8,"p50":8,"p95":8,"p99":8,"buckets":{"le_8":2}}},"counter_deltas":{"cobra.optimizer_passes":1,"cobra.samples_seen":8,"machine.runs":5,"perfmon.samples":8}}}`
	decisionData = `{"seq":4,"kind":"decision","cycle":150000,"data":{"seq":1,"cycle":150000,"region":66,"window":2,"from":"candidate","to":"deployed","reason":"deploy","evidence":{"baseline_ipc":2.165303956521473,"global_baseline_ipc":2.165303956521473,"coherent_share":0.36998706338939197,"bus_hitm":286,"rewrite":"nop"}}}`
	endData      = `{"seq":581,"kind":"end","data":{"state":"done"}}`
)

// TestApplyWindowAndDecision folds the recorded events into a plain
// session view: the window line reads IPC and coherent share from the
// window's gauges and its samples from the samples_seen delta, and the
// decision extends the region's timeline.
func TestApplyWindowAndDecision(t *testing.T) {
	v := newView("s-000001", true, 0)
	out := stdout(t, func() {
		for _, data := range []string{windowData, decisionData} {
			if v.apply(decode(t, data)) {
				t.Fatal("apply reported the end of the stream")
			}
		}
		if !v.apply(decode(t, endData)) {
			t.Fatal("the end event must end the stream")
		}
	})
	want := "[       2] window   1  cycle 100000       ipc 2.4400  coherent 1.000  samples 8\n" +
		"[       4] region 0x42  candidate -> deployed  (deploy)  rewrite=nop ipc 2.1653->0.0000\n" +
		"[     581] end: done \n"
	if out != want {
		t.Errorf("plain output:\n%s\nwant:\n%s", out, want)
	}
	if v.windows != 2 || len(v.ipc) != 1 || v.ipc[0] != 2.4399769995687417 {
		t.Errorf("windows %d, ipc %v", v.windows, v.ipc)
	}
	if v.lastSeq != 581 || v.lastCycle != 150000 {
		t.Errorf("last seq %d, last cycle %d", v.lastSeq, v.lastCycle)
	}
	row := v.regions[0x42]
	if row == nil || strings.Join(row.timeline, "") != "D" || row.last.To != "deployed" || row.last.Ev.Rewrite != "nop" {
		t.Errorf("region 0x42: %+v", row)
	}
}

func decode(t *testing.T, data string) wireEvent {
	t.Helper()
	var ev wireEvent
	if err := json.Unmarshal([]byte(data), &ev); err != nil {
		t.Fatal(err)
	}
	return ev
}

// stdout returns what f prints to standard output.
func stdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = old }()
	f()
	w.Close()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
