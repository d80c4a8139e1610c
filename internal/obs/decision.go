package obs

import (
	"fmt"
	"io"
	"strings"
)

// PatchState is one state of the patch lifecycle state machine that the
// COBRA runtime walks per region: Candidate → Deployed → judged →
// Kept / RolledBack, with RolledBack regions either re-entering as a
// Candidate under an escalated rewrite or ending Blocked. Multi-version
// strategies add Switched: the dispatch branch of a region with several
// resident variants flipped to a different variant (or re-engaged a
// resident variant after a rollback) without a patch/rollback cycle.
type PatchState string

const (
	// StateCandidate: the trigger fired and the region was selected for
	// patching (it may still be skipped by deploy-time checks).
	StateCandidate PatchState = "candidate"
	// StateDeployed: a rewrite was installed (trace cache or in place).
	StateDeployed PatchState = "deployed"
	// StateKept: the judge compared post-patch IPC against baseline and
	// kept the patch.
	StateKept PatchState = "kept"
	// StateRolledBack: the judge measured a regression and reverted.
	StateRolledBack PatchState = "rolled_back"
	// StateBlocked: the region exhausted its rewrites and is barred from
	// further patching.
	StateBlocked PatchState = "blocked"
	// StateSwitched: the region's dispatch branch moved to another
	// resident variant (multi-version patching) — a one-slot repoint,
	// not a rollback + redeploy.
	StateSwitched PatchState = "switched"
)

// LegalTransition reports whether the lifecycle may move from to next.
// An empty from means the region is entering the lifecycle (only
// candidate is legal). Kept patches are re-judged every evaluation
// horizon, so kept→kept and kept→rolled_back are legal. Switched is
// judged exactly like Deployed, can chain (variant after variant), and
// a RolledBack region with resident variants may re-engage one
// (rolled_back→switched) instead of redeploying.
func LegalTransition(from, to PatchState) bool {
	switch from {
	case "":
		return to == StateCandidate
	case StateCandidate:
		return to == StateDeployed || to == StateCandidate
	case StateDeployed:
		return to == StateKept || to == StateRolledBack || to == StateSwitched
	case StateKept:
		return to == StateKept || to == StateRolledBack || to == StateSwitched
	case StateSwitched:
		return to == StateKept || to == StateRolledBack || to == StateSwitched
	case StateRolledBack:
		return to == StateCandidate || to == StateBlocked || to == StateSwitched
	case StateBlocked:
		return false
	}
	return false
}

// Evidence is the measurement basis for one lifecycle decision — the
// numbers the runtime actually compared, recorded at decision time.
type Evidence struct {
	// BaselineIPC is the region's pre-patch IPC EMA.
	BaselineIPC float64 `json:"baseline_ipc,omitempty"`
	// PatchedIPC is the region's post-patch IPC over the judgement windows.
	PatchedIPC float64 `json:"patched_ipc,omitempty"`
	// GlobalBaselineIPC / GlobalIPC are the machine-wide equivalents; a
	// patch is rolled back if either the region or the whole machine
	// regressed beyond tolerance.
	GlobalBaselineIPC float64 `json:"global_baseline_ipc,omitempty"`
	GlobalIPC         float64 `json:"global_ipc,omitempty"`
	// Tolerance is the rollback tolerance in effect (fraction of baseline).
	Tolerance float64 `json:"tolerance,omitempty"`
	// ActiveWindows counts profiling windows the patch was active for
	// when judged.
	ActiveWindows int `json:"active_windows,omitempty"`
	// CoherentShare / BusHitm are the trigger evidence: share of coherent
	// misses and raw BUS_HITM count over the trigger horizon.
	CoherentShare float64 `json:"coherent_share,omitempty"`
	BusHitm       uint64  `json:"bus_hitm,omitempty"`
	// CooldownUntil is the cycle until which the region is in post-
	// rollback cooldown (0 = none).
	CooldownUntil int64 `json:"cooldown_until,omitempty"`
	// Rewrite names the rewrite kind in effect (nop/excl/bias...).
	Rewrite string `json:"rewrite,omitempty"`
	// PredictedIPC / PredictedDelta record a causal what-if experiment:
	// the whole-program IPC the strategy predicted the patch would reach,
	// and the predicted absolute delta over baseline. Judged decisions on
	// the same region carry them forward so Explain can show
	// predicted-vs-actual.
	PredictedIPC   float64 `json:"predicted_ipc,omitempty"`
	PredictedDelta float64 `json:"predicted_delta,omitempty"`
	// Variant / Variants describe multi-version patching: which resident
	// variant the dispatch branch points at, and how many are resident.
	Variant  string `json:"variant,omitempty"`
	Variants int    `json:"variants,omitempty"`
	// Blocks / HotBlocks / HotCoverage describe a block-layout deployment:
	// the region's basic-block count, how many lead the reordered copy as
	// the hot extended traces, and the share of observed taken-edge weight
	// those hot blocks cover.
	Blocks      int     `json:"blocks,omitempty"`
	HotBlocks   int     `json:"hot_blocks,omitempty"`
	HotCoverage float64 `json:"hot_coverage,omitempty"`
}

// Decision is one entry of the patch-decision audit trail.
type Decision struct {
	// Seq orders decisions; Cycle is the machine cycle of the decision.
	Seq   int   `json:"seq"`
	Cycle int64 `json:"cycle"`
	// Region is the loop head address of the region, Window the ordinal
	// of the profiling window the decision fell in.
	Region uint64 `json:"region"`
	Window int    `json:"window,omitempty"`
	// From and To are the lifecycle states; From is empty on entry.
	From PatchState `json:"from,omitempty"`
	To   PatchState `json:"to"`
	// Reason is a short machine-greppable cause ("trigger", "regressed",
	// "improved", "rewrites_exhausted", ...).
	Reason string `json:"reason"`
	// Evidence holds the measurements behind the decision.
	Evidence Evidence `json:"evidence"`
}

// DecisionLog records lifecycle decisions per region and checks each one
// against the lifecycle state machine as it is recorded. A nil
// *DecisionLog is the disabled state.
type DecisionLog struct {
	decisions  []Decision
	last       map[uint64]PatchState
	violations []string
}

// NewDecisionLog returns an empty enabled log.
func NewDecisionLog() *DecisionLog {
	return &DecisionLog{last: make(map[uint64]PatchState)}
}

// Record appends a decision and returns it. From is filled in from the
// region's last recorded state so callers only name the destination; an
// illegal transition is still recorded, and also noted as a violation.
func (l *DecisionLog) Record(cycle int64, region uint64, window int, to PatchState, reason string, ev Evidence) Decision {
	if l == nil {
		return Decision{}
	}
	d := Decision{
		Seq:      len(l.decisions),
		Cycle:    cycle,
		Region:   region,
		Window:   window,
		From:     l.last[region],
		To:       to,
		Reason:   reason,
		Evidence: ev,
	}
	if !LegalTransition(d.From, to) {
		l.violations = append(l.violations, fmt.Sprintf("seq %d region %#x: illegal transition %q -> %q (%s)", d.Seq, region, d.From, to, reason))
	}
	l.decisions = append(l.decisions, d)
	l.last[region] = to
	return d
}

// Decisions returns the full audit trail in record order.
func (l *DecisionLog) Decisions() []Decision {
	if l == nil {
		return nil
	}
	return l.decisions
}

// State returns the last recorded lifecycle state for region ("" if the
// region never entered the lifecycle).
func (l *DecisionLog) State(region uint64) PatchState {
	if l == nil {
		return ""
	}
	return l.last[region]
}

// Violations describes each illegal transition recorded so far, in
// record order. An empty result means the audit trail is a valid
// state-machine walk.
func (l *DecisionLog) Violations() []string {
	if l == nil {
		return nil
	}
	return l.violations
}

// Explain writes the human-readable audit report: one chronological line
// per decision with its evidence, then a per-region final-state summary.
func (l *DecisionLog) Explain(w io.Writer) error {
	if l == nil || len(l.decisions) == 0 {
		_, err := io.WriteString(w, "no patch decisions recorded\n")
		return err
	}
	var b strings.Builder
	b.WriteString("patch decision audit trail (cycle domain)\n")
	b.WriteString("==========================================\n")
	for _, d := range l.decisions {
		from := string(d.From)
		if from == "" {
			from = "-"
		}
		fmt.Fprintf(&b, "[%3d] cycle %-12d region %#x  %s -> %s  (%s)\n",
			d.Seq, d.Cycle, d.Region, from, d.To, d.Reason)
		ev := d.Evidence
		if ev.Rewrite != "" {
			fmt.Fprintf(&b, "      rewrite=%s", ev.Rewrite)
			if ev.ActiveWindows > 0 {
				fmt.Fprintf(&b, " active_windows=%d", ev.ActiveWindows)
			}
			b.WriteString("\n")
		}
		if ev.Variant != "" {
			fmt.Fprintf(&b, "      variant=%s resident=%d\n", ev.Variant, ev.Variants)
		} else if ev.Variants > 0 {
			fmt.Fprintf(&b, "      resident=%d\n", ev.Variants)
		}
		if ev.Blocks > 0 {
			fmt.Fprintf(&b, "      layout: blocks=%d hot=%d coverage=%.2f\n",
				ev.Blocks, ev.HotBlocks, ev.HotCoverage)
		}
		if ev.BusHitm > 0 || ev.CoherentShare > 0 {
			fmt.Fprintf(&b, "      trigger: coherent_share=%.4f bus_hitm=%d\n", ev.CoherentShare, ev.BusHitm)
		}
		if ev.BaselineIPC > 0 || ev.PatchedIPC > 0 {
			fmt.Fprintf(&b, "      ipc: baseline=%.4f patched=%.4f global=%.4f->%.4f tol=%.2f%%\n",
				ev.BaselineIPC, ev.PatchedIPC, ev.GlobalBaselineIPC, ev.GlobalIPC, ev.Tolerance*100)
		}
		if ev.PredictedIPC > 0 {
			if ev.PatchedIPC > 0 {
				fmt.Fprintf(&b, "      what-if: predicted=%.4f (+%.4f) actual=%.4f\n",
					ev.PredictedIPC, ev.PredictedDelta, ev.PatchedIPC)
			} else {
				fmt.Fprintf(&b, "      what-if: predicted=%.4f (+%.4f)\n",
					ev.PredictedIPC, ev.PredictedDelta)
			}
		}
		if ev.CooldownUntil > 0 {
			fmt.Fprintf(&b, "      cooldown_until=%d\n", ev.CooldownUntil)
		}
	}
	b.WriteString("\nfinal region states\n")
	b.WriteString("-------------------\n")
	// Deterministic order: walk decisions and report each region at its
	// first appearance.
	seen := make(map[uint64]bool)
	for _, d := range l.decisions {
		if seen[d.Region] {
			continue
		}
		seen[d.Region] = true
		fmt.Fprintf(&b, "region %#x: %s\n", d.Region, l.last[d.Region])
	}
	if v := l.Violations(); len(v) > 0 {
		b.WriteString("\nLIFECYCLE VIOLATIONS\n")
		for _, s := range v {
			b.WriteString("  " + s + "\n")
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
