package core

import (
	"errors"
	"fmt"

	"github.com/eof-fuzz/eof/internal/ocd"
	"github.com/eof-fuzz/eof/internal/prog"
	"github.com/eof-fuzz/eof/internal/trace"
	"github.com/eof-fuzz/eof/internal/triage"
)

// TriageConfig parameterises the crash-triage pipeline.
type TriageConfig struct {
	// Enabled turns the pipeline on: every newly recorded finding is
	// queued, replayed, classified and minimized.
	Enabled bool
	// Replays is the confirmation replay count per finding (default 3).
	Replays int
	// MinBudget bounds the minimization replays spent per finding
	// (default 48).
	MinBudget int
	// Deferred parks findings in the engine's queue without draining it
	// between iterations. Pooled fleets set it on their shards and drain
	// every queue onto a dedicated triage board at epoch barriers, so
	// confirmation happens on different hardware than discovery; a fleet of
	// one leaves it off.
	Deferred bool
}

// WithDefaults fills zero fields with the defaults.
func (t TriageConfig) WithDefaults() TriageConfig {
	if t.Replays <= 0 {
		t.Replays = 3
	}
	if t.MinBudget <= 0 {
		t.MinBudget = 48
	}
	return t
}

// TriageItem is one finding awaiting triage: the recorded report plus the
// exact program that produced it.
type TriageItem struct {
	Bug *BugReport
	P   *prog.Prog
}

// DrainTriageQueue returns the findings queued since the last drain and
// clears the queue. Fleet campaigns call it at epoch barriers and feed the
// items to the dedicated triage board.
func (e *Engine) DrainTriageQueue() []TriageItem {
	q := e.triageQueue
	e.triageQueue = nil
	return q
}

// drainTriage is the in-line path (a fleet of one, or a bare engine): triage
// every queued finding in discovery order between fuzzing iterations.
// Deferred mode leaves the queue for the fleet.
func (e *Engine) drainTriage() error {
	if !e.cfg.Triage.Enabled || e.cfg.Triage.Deferred {
		return nil
	}
	for len(e.triageQueue) > 0 {
		item := e.triageQueue[0]
		e.triageQueue = e.triageQueue[1:]
		if err := e.TriageBug(item.Bug, item.P); err != nil {
			return err
		}
	}
	return nil
}

// TriageBug runs the full pipeline for one finding on this engine's board:
// N confirmation replays on restored state classify it stable / flaky /
// unreproducible, then — if it reproduced at all — a budgeted ddmin pass
// shrinks the program and simplifies its arguments while the cluster keeps
// matching. The report is updated in place (Reproducibility, ReplayHits,
// OrigCalls, MinCalls, Repro) and all board time spent lands in the
// triaging bucket. A board failure mid-triage keeps whatever verdict was
// reached and surfaces the error to the caller.
func (e *Engine) TriageBug(b *BugReport, p *prog.Prog) error {
	if err := e.Setup(); err != nil {
		return err
	}
	start := e.clock.Now()
	e.tracer.Emit(trace.Event{Kind: trace.TriageBegin, Reason: b.Cluster, Edges: len(p.Calls)})
	e.triaging = true
	defer func() { e.triaging = false }()

	b.OrigCalls = len(p.Calls)
	b.MinCalls = len(p.Calls)
	b.Replays = e.cfg.Triage.Replays
	hits := 0
	var boardErr error
	for i := 0; i < b.Replays; i++ {
		hit, err := e.replayOnce(p, b.Cluster)
		if err != nil {
			boardErr = err
			break
		}
		if hit {
			hits++
		}
	}
	b.ReplayHits = hits
	b.Reproducibility = triage.Classify(hits, b.Replays)

	best := p
	if hits > 0 && boardErr == nil {
		minimized, _, err := triage.Minimize(p, func(cand *prog.Prog) (bool, error) {
			return e.replayOnce(cand, b.Cluster)
		}, e.cfg.Triage.MinBudget, func(phase string, cand *prog.Prog, hit bool) {
			verdict := ":miss"
			if hit {
				verdict = ":hit"
			}
			e.tracer.Emit(trace.Event{Kind: trace.TriageMinStep, Reason: phase + verdict, Edges: len(cand.Calls)})
		})
		if minimized != nil {
			best = minimized
		}
		boardErr = err
	}
	b.MinCalls = len(best.Calls)
	if js, err := prog.ToJSON(best); err == nil {
		b.Repro = string(js)
	}
	b.Prog = best.String()
	e.stats.TriagedBugs++
	e.tracer.Emit(trace.Event{
		Kind:   trace.TriageEnd,
		Exec:   hits,
		Edges:  b.MinCalls,
		Reason: b.Cluster + ":" + b.Reproducibility,
		Dur:    e.clock.Now() - start,
	})
	return boardErr
}

// replayOnce re-runs p on restored state and reports whether the run
// reproduced the cluster.
func (e *Engine) replayOnce(p *prog.Prog, cluster string) (bool, error) {
	if err := e.ensurePristine(); err != nil {
		return false, err
	}
	captured, err := e.executeProg(p)
	if err != nil {
		return false, err
	}
	return captured != nil && captured.Cluster == cluster, nil
}

// ensurePristine restores the board unless the previous restore left it
// parked at executor_main untouched, so every replay starts from clean
// state as the paper's triage protocol requires.
func (e *Engine) ensurePristine() error {
	if e.pristine {
		return nil
	}
	if err := e.restore("triage"); err != nil && !errors.Is(err, errRestart) {
		return err
	}
	return nil
}

// executeProg delivers p and pumps it to completion like a fuzzing
// iteration, but in capture mode: bug reports divert to e.captured instead
// of the campaign's findings, coverage is discarded, and no exec events or
// corpus updates happen. Returns the captured report, if the run crashed.
func (e *Engine) executeProg(p *prog.Prog) (*BugReport, error) {
	buf, err := e.packProg(p)
	if err != nil {
		return nil, err
	}
	e.captured = nil
	e.stats.TriageReplays++
	if err := e.pumpToMain(p, buf); err != nil {
		if errors.Is(err, errRestart) {
			return e.captured, nil
		}
		return nil, err
	}
	// Parked at executor_main without a restore: flush what the run left in
	// the coverage buffer and the UART so the next replay starts clean.
	if _, cerr := e.drainCoverage(); cerr != nil {
		if errors.Is(cerr, ocd.ErrTimeout) {
			if rerr := e.restore("timeout"); rerr != nil && !errors.Is(rerr, errRestart) {
				return nil, rerr
			}
			return e.captured, nil
		}
		return nil, cerr
	}
	if serr := e.scanLog(p); serr != nil {
		return nil, serr
	}
	return e.captured, nil
}

// ConfirmRepro replays a loaded reproducer n times (0 = the configured
// replay count) and returns how many runs reproduced the cluster. This is
// the standalone `-replay` path: parse the repro file, build a fresh engine
// for its target and confirm.
func (e *Engine) ConfirmRepro(p *prog.Prog, cluster string, n int) (int, error) {
	if n <= 0 {
		n = e.cfg.Triage.Replays
	}
	if err := e.Setup(); err != nil {
		return 0, err
	}
	e.triaging = true
	defer func() { e.triaging = false }()
	hits := 0
	for i := 0; i < n; i++ {
		hit, err := e.replayOnce(p, cluster)
		if err != nil {
			return hits, err
		}
		if hit {
			hits++
		}
	}
	return hits, nil
}

// ParseProgJSON parses a JSON-form program against this engine's target
// spec.
func (e *Engine) ParseProgJSON(data []byte) (*prog.Prog, error) {
	return e.target.FromJSON(data)
}

// BuildRepro renders a triaged finding as a portable repro file.
func BuildRepro(b *BugReport) (*triage.Repro, error) {
	if b.Repro == "" {
		return nil, fmt.Errorf("core: bug %q has no serialized reproducer", b.Sig)
	}
	return &triage.Repro{
		Version:         triage.ReproVersion,
		OS:              b.OS,
		Board:           b.Board,
		Cluster:         b.Cluster,
		Sig:             b.Sig,
		Kind:            b.Kind,
		Monitor:         b.Monitor,
		Title:           b.Title,
		Reproducibility: b.Reproducibility,
		ReplayHits:      b.ReplayHits,
		Replays:         b.Replays,
		OrigCalls:       b.OrigCalls,
		MinCalls:        b.MinCalls,
		Prog:            []byte(b.Repro),
	}, nil
}
