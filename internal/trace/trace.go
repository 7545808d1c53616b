// Package trace is the campaign observability layer: a structured,
// virtual-clock-stamped event journal for the whole fuzzing stack. The engine
// emits typed events (exec begin/end, coverage gain, restore begin/end with
// reason, reflash, corpus add, bug), the link layers emit fault/retry/
// reconnect events, and the fleet emits sync-epoch events tagged with shard
// id. Three consumers sit on top:
//
//   - the flight recorder — a fixed-size ring every Tracer keeps; its last N
//     events are attached to every bug report, giving each bug its pre-crash
//     context;
//   - the JSONL journal — a deterministic event stream written one JSON
//     object per line (fleet shards are buffered per epoch and merged in
//     shard order, so the journal is reproducible run to run);
//   - the live sink — one Fold of the stream as it happens, behind the
//     periodic status line and the metrics server's /metrics and /status.
//
// Fold is the one reduction of the stream: the live status line, the
// metrics server and `eoftrace summary` (folding a replayed journal) all
// report its fields, so they agree by construction.
//
// The package also owns board-time accounting: an Accountant attributes every
// virtual-clock delta of the debug-link stack to one of the TimeBy categories
// (executing / restoring / reflashing / link-overhead / sync-barrier), which
// reproduces the paper's argument that on-hardware throughput is dominated by
// restoration and link round trips.
//
// The default sink is a nop; emitting into it costs a ring store and two
// no-op interface calls, so tracing is always on and near free unless a
// consumer is attached.
package trace

import (
	"time"

	"github.com/eof-fuzz/eof/internal/vtime"
)

// Kind is the event type tag.
type Kind uint8

// Event kinds. The engine emits the exec/restore/corpus/bug kinds, the link
// layers the link kinds, and the fleet the sync kind.
const (
	// ExecBegin marks the start of one test-case attempt (Exec is the
	// ordinal the attempt is working toward; a restored attempt re-begins
	// under the same ordinal).
	ExecBegin Kind = iota
	// ExecEnd marks a completed test case (Exec is its ordinal).
	ExecEnd
	// CovGain records globally new coverage (Edges = fresh edge count).
	CovGain
	// RestoreBegin marks the start of state restoration (Reason = trigger:
	// "crash", "timeout", "pc-stall", ...).
	RestoreBegin
	// RestoreEnd marks restoration complete (Reason = trigger, Dur = total
	// restoration cost including any reflash).
	RestoreEnd
	// Reflash records a full image reflash inside a restoration.
	Reflash
	// CorpusAdd records a coverage-increasing input joining the corpus
	// (Edges = the fresh edges that earned it a slot).
	CorpusAdd
	// Bug records a newly deduplicated finding (Reason = signature).
	Bug
	// LinkFault records an injected or observed link fault (Reason =
	// "<kind>:<command>").
	LinkFault
	// LinkRetry records a transparent command re-send (Reason = command).
	LinkRetry
	// LinkReconnect records a recovered link death.
	LinkReconnect
	// SyncEpoch marks a fleet feedback-exchange barrier (Exec = epoch
	// number, Edges = fleet-wide distinct edges after the exchange).
	SyncEpoch
	// RungEscalate records the recovery ladder climbing past a failed rung
	// (Reason = "<rung>:<restore reason>").
	RungEscalate
	// Quarantine records the fleet supervisor retiring a board (Exec =
	// slot, Reason = "dead" or "sick").
	Quarantine
	// SparePromote records a hot spare taking over a quarantined slot
	// (Exec = slot, Edges = shared-history edges imported at promotion).
	SparePromote
	// TriageBegin marks the start of triaging one finding (Reason = cluster,
	// Edges = the recorded program's call count).
	TriageBegin
	// TriageMinStep records one minimization probe (Reason =
	// "<phase>:hit|miss", Edges = the candidate program's call count).
	TriageMinStep
	// TriageEnd marks a finding fully triaged (Reason =
	// "<cluster>:<reproducibility>", Exec = replay hits, Edges = minimized
	// call count, Dur = total triage cost).
	TriageEnd
	// SnapshotTake records a golden snapshot being cached (Reason = kernel
	// state: "post-boot", "post-init").
	SnapshotTake
	// DeltaRestore records a restoration satisfied by the snapshot rung
	// (Reason = trigger, Edges = bytes shipped). It appears between
	// RestoreBegin and RestoreEnd in place of any Reflash event.
	DeltaRestore
	// TierConfirm records the hardware tier reproducing an emulation-tier
	// finding (Reason = "cov" or "crash:<cluster>", Exec = the emulation
	// shard, Edges = the confirmed fresh-edge count for coverage items).
	TierConfirm
	// TierDiverge records a cross-tier disagreement (Reason =
	// "emul-only-cov", "emul-only-crash:<cluster>" or
	// "hw-only-crash:<cluster>", Exec = the emulation shard, Edges = the
	// unconfirmed fresh-edge count for coverage items).
	TierDiverge
	// ConfirmEnqueue records an emulation-tier observation joining the
	// confirmation queue (coverage items: Edges = the claimed fresh edges;
	// crash items: Reason = the cluster). Only ConfirmCapture engines emit
	// it, so untiered journals are unchanged. The live consumers derive the
	// confirmation-queue depth from enqueues minus drawn verdicts.
	ConfirmEnqueue
	// TimeBudget is the end-of-campaign accounting record: one event per
	// board-time category (Reason = the category name, Dur = the accounted
	// time, zero buckets included), plus the "restoring-delta" /
	// "restoring-full" sub-buckets and a terminal "duration" record carrying
	// the shard's accounted campaign Duration. In fleet mode the budgets are
	// emitted after barrier-idle attribution, so each shard's buckets sum to
	// the pool wall-clock exactly — eoftrace rebuilds Report.TimeBy from
	// these events and cross-checks that invariant.
	TimeBudget
	// Checkpoint records a durable campaign checkpoint committed at an epoch
	// barrier (Exec = the campaign-lifetime epoch ordinal, Edges = the
	// checkpointed cumulative edge count). Emitted by the persistence layer
	// with Shard = -1 (campaign level, its own sequence space), so per-shard
	// streams are untouched by `-corpus`.
	Checkpoint
	// Distill records a corpus distillation shrinking the on-disk store to a
	// minimal covering set (Exec = the epoch, Edges = entries dropped,
	// Reason = "kept:<n>"). Shard = -1, like Checkpoint.
	Distill

	numKinds
)

var kindNames = [numKinds]string{
	"exec-begin", "exec-end", "cov-gain",
	"restore-begin", "restore-end", "reflash",
	"corpus-add", "bug",
	"link-fault", "link-retry", "link-reconnect",
	"sync-epoch",
	"rung-escalate", "quarantine", "spare-promote",
	"triage-begin", "triage-min-step", "triage-end",
	"snapshot-take", "delta-restore",
	"tier-confirm", "tier-diverge",
	"confirm-enqueue", "time-budget",
	"checkpoint", "distill",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindByName maps a journal kind string back to its Kind — the decoder-side
// inverse of Kind.String used by the journal analytics reader.
func KindByName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// Event is one journal entry. The Tracer stamps Seq, At and Shard; emitters
// fill Kind and whichever payload fields apply.
type Event struct {
	// Seq is the per-shard emission ordinal (deterministic for a fixed
	// seed, so journals diff cleanly run to run).
	Seq uint64
	// At is the virtual campaign time of the event.
	At time.Duration
	// Shard is the emitting engine's fleet shard index (0 in solo mode).
	Shard int
	Kind  Kind
	// Exec is the test-case ordinal (exec events) or epoch number (sync).
	Exec int
	// Edges carries an edge count where the kind defines one.
	Edges int
	// Reason carries the restore trigger, bug signature, or link command.
	Reason string
	// Dur is a span cost where the kind defines one (RestoreEnd).
	Dur time.Duration
}

// Sink consumes emitted events. Implementations attached as a live sink in
// fleet mode must be safe for concurrent use; journal sinks are only written
// from one goroutine at a time.
type Sink interface {
	Emit(Event)
}

type nopSink struct{}

func (nopSink) Emit(Event) {}

// Nop is the default sink; it discards every event.
var Nop Sink = nopSink{}

// DefaultRingSize is the flight recorder's capacity when unconfigured: big
// enough to hold several execs of pre-crash context, small enough that a bug
// report stays readable.
const DefaultRingSize = 64

// Tracer is one engine's emission point: it stamps events with the virtual
// clock and shard id, keeps the flight-recorder ring, and forwards to the
// journal and live sinks. A Tracer is single-goroutine like the engine that
// owns it; the sinks handle their own concurrency.
type Tracer struct {
	shard int
	clock *vtime.Clock
	sink  Sink // journal (deterministic path)
	live  Sink // status (live path)
	ring  []Event
	seq   uint64
}

// New builds a tracer for the given shard. ringSize <= 0 selects
// DefaultRingSize. Both sinks start as Nop.
func New(shard int, clock *vtime.Clock, ringSize int) *Tracer {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	return &Tracer{
		shard: shard,
		clock: clock,
		sink:  Nop,
		live:  Nop,
		ring:  make([]Event, 0, ringSize),
	}
}

// SetSink attaches the journal consumer (nil resets to Nop).
func (t *Tracer) SetSink(s Sink) {
	if s == nil {
		s = Nop
	}
	t.sink = s
}

// SetLive attaches the live consumer (nil resets to Nop).
func (t *Tracer) SetLive(s Sink) {
	if s == nil {
		s = Nop
	}
	t.live = s
}

// Emit stamps ev (Seq, At, Shard), records it in the flight-recorder ring
// and forwards it to the sinks.
func (t *Tracer) Emit(ev Event) {
	ev.Seq = t.seq
	ev.At = t.clock.Now()
	ev.Shard = t.shard
	t.seq++
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, ev)
	} else {
		t.ring[int(ev.Seq)%len(t.ring)] = ev
	}
	t.sink.Emit(ev)
	t.live.Emit(ev)
}

// Emitted returns how many events this tracer has emitted.
func (t *Tracer) Emitted() uint64 { return t.seq }

// Recent snapshots the flight-recorder ring, oldest first. This is the
// pre-crash context attached to bug reports.
func (t *Tracer) Recent() []Event {
	n := len(t.ring)
	out := make([]Event, 0, n)
	if t.seq <= uint64(n) {
		return append(out, t.ring...)
	}
	start := int(t.seq % uint64(n))
	out = append(out, t.ring[start:]...)
	return append(out, t.ring[:start]...)
}

// Multi fans one event stream out to several sinks.
func Multi(sinks ...Sink) Sink {
	kept := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil && s != Nop {
			kept = append(kept, s)
		}
	}
	switch len(kept) {
	case 0:
		return Nop
	case 1:
		return kept[0]
	}
	return multiSink(kept)
}

type multiSink []Sink

func (m multiSink) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}
