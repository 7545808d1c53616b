// Package core implements the EOF engine: the feedback-guided fuzzing loop
// that drives an embedded OS on a (virtual) board purely through the debug
// port — test-case delivery into the target mailbox, breakpoint-synchronised
// execution, coverage collection, log and exception bug monitors, the
// connection-timeout and PC-stall liveness watchdogs of Algorithm 1, and
// state restoration by reflashing every partition when the image is damaged.
package core

import (
	"time"

	"github.com/eof-fuzz/eof/internal/backend"
	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/link"
	"github.com/eof-fuzz/eof/internal/osinfo"
	"github.com/eof-fuzz/eof/internal/trace"
)

// Watchdogs selects the liveness mechanisms (ablation E7 disables them
// individually).
type Watchdogs struct {
	// ConnectionTimeout treats a dead debug link as a boot failure /
	// unresponsive target (Algorithm 1, watchdog 1).
	ConnectionTimeout bool
	// PCStall treats repeated budget-exhausted stops at an unchanged PC as
	// a wedged target (Algorithm 1, watchdog 2).
	PCStall bool
	// ExecTimeout bounds one test case's virtual runtime.
	ExecTimeout time.Duration
}

// DefaultWatchdogs enables everything the paper describes.
func DefaultWatchdogs() Watchdogs {
	return Watchdogs{
		ConnectionTimeout: true,
		PCStall:           true,
		ExecTimeout:       3 * time.Second,
	}
}

// Config parameterises one engine instance.
type Config struct {
	OS    *osinfo.Info
	Board *board.Spec
	Seed  int64

	// Backend selects the execution substrate the engine drives. Nil picks
	// the classic hardware stack (debug probe over the board model);
	// backend.Emulated swaps in VM facilities behind the same link contract,
	// turning this engine into an emulation explore shard.
	Backend backend.Factory
	// ConfirmCapture makes the engine queue every corpus-admitted input
	// (with the fresh edges that earned its slot) and every recorded crash
	// as ConfirmItems for re-execution on a hardware board. Set on emulation
	// tier shards; the fleet drains the queue at epoch barriers.
	ConfirmCapture bool

	// Instrumented selects the SanCov-instrumented image (off only for the
	// overhead experiments).
	Instrumented bool
	// FeedbackGuided enables corpus retention, mutation and adjacency
	// rewards (off = the EOF-nf variant).
	FeedbackGuided bool
	// APIAware uses the validated specification for argument generation;
	// off degenerates to AFL-style random arguments (ablation E8).
	APIAware bool

	Watchdogs Watchdogs

	// ContinueBudget is the per-continue block budget (the debugger's
	// halt-and-inspect interval).
	ContinueBudget int64
	// MaxContinues hard-caps debugger round-trips per test case so a
	// watchdog-less configuration cannot livelock; hitting it counts as a
	// manual intervention.
	MaxContinues int
	// MaxCalls bounds generated program length.
	MaxCalls int
	// SampleEvery sets the coverage time-series resolution.
	SampleEvery time.Duration

	// LegacyLink disables the vectored debug-link commands (vCovDrain,
	// vRun, vSnap, vRestore), forcing the multi-round-trip sequences older
	// probe firmware needs. Used by the round-trip-accounting comparisons;
	// the engine also falls back automatically when the probe rejects a
	// vectored command.
	LegacyLink bool

	// Snapshots enables the snapshot/delta restore rung: the engine caches
	// a golden snapshot probe-side at interesting kernel states and
	// satisfies restores with a single vRestore round trip shipping only
	// dirty state. Off by default, so classic campaigns (and their journals)
	// are byte-identical to previous releases. Requires a vectored-capable
	// probe; with LegacyLink (or after an Ebadcmd latch) every restore falls
	// back to the classic ladder.
	Snapshots bool
	// SnapshotStates selects the kernel states snapshots are (re-)taken at,
	// as a comma-separated subset of "post-boot,post-init". Empty selects
	// both; with both enabled the cache ends at the quieter post-init park.
	SnapshotStates string

	// LinkFaults configures deterministic fault injection on the debug
	// link (flaky-adapter modelling). The zero value injects nothing. A
	// zero LinkFaults.Seed defaults to the campaign Seed, so fleet shards
	// draw distinct fault sequences automatically.
	LinkFaults link.FaultConfig
	// LinkRetries bounds the session layer's transparent per-command
	// retries of transient link faults (0 = link.DefaultRetries, negative
	// disables retries so every fault surfaces to the watchdogs).
	LinkRetries int

	// Triage configures the crash-triage pipeline: replay confirmation,
	// ddmin minimization and cluster-keyed repro emission. The zero value
	// disables triage entirely (findings are reported exactly as before).
	Triage TriageConfig

	// Health tunes the escalating recovery ladder (per-rung attempt
	// budgets, resume cap, EWMA decay, sick threshold). Zero fields take
	// the HealthConfig defaults.
	Health HealthConfig
	// Degrade configures the virtual board's degradation model: wear-
	// limited flash sectors, intermittent boot failures, permanent death.
	// The zero value is a perfect board. A zero Degrade.Seed defaults to
	// the campaign Seed, so fleet shards age independently but
	// deterministically.
	Degrade board.DegradeConfig

	// Shard tags this engine's trace events with its fleet shard index
	// (0 in solo mode).
	Shard int
	// TraceSink receives the engine's structured trace journal (exec,
	// coverage, restore, link and sync events). Nil discards events. In
	// fleet mode the fleet substitutes per-shard buffers and merges them
	// into the configured sink in shard order at every epoch barrier, so
	// the journal stays deterministic.
	TraceSink trace.Sink
	// StatusSink receives the same events live (unbuffered, concurrently
	// from every fleet shard — implementations must be thread-safe). Used
	// by the -status-every progress display.
	StatusSink trace.Sink
	// FlightRecorder sets the size of the pre-crash event ring attached to
	// every bug report (0 = trace.DefaultRingSize).
	FlightRecorder int

	// CallFilter restricts the specification to the named calls — the
	// application-level evaluation fuzzes only the HTTP/JSON entry points.
	// Empty means the full API surface.
	CallFilter []string
	// CovModules confines instrumentation to functions whose source file
	// starts with one of these prefixes, mirroring a build that instruments
	// only the modules under test. Empty instruments the whole image.
	CovModules []string
}

// DefaultConfig returns the paper's EOF configuration for an OS/board pair.
func DefaultConfig(os *osinfo.Info, spec *board.Spec) Config {
	return Config{
		OS:             os,
		Board:          spec,
		Seed:           1,
		Instrumented:   true,
		FeedbackGuided: true,
		APIAware:       true,
		Watchdogs:      DefaultWatchdogs(),
		ContinueBudget: 500_000,
		MaxContinues:   256,
		MaxCalls:       10,
		SampleEvery:    5 * time.Minute,
	}
}
