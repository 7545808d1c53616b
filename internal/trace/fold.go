package trace

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"time"
)

// RestoreBounds are the upper bounds of Fold.RestoreDur's buckets, spanning
// delta restores (tens of milliseconds) through full reflash+power-cycle
// ladders (tens of seconds).
var RestoreBounds = [...]time.Duration{
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	time.Second, 2500 * time.Millisecond, 5 * time.Second, 10 * time.Second, 30 * time.Second,
}

// Fold is the one reduction of a campaign's event stream: the status line,
// /metrics, /status and `eoftrace summary` all report its fields, so they
// agree by construction. Apply is the only place that counts event kinds.
// Build one with NewFold; a Fold is not safe for concurrent use, so live
// consumers keep it behind their own mutex.
type Fold struct {
	// EmulStart is the first emulation-tier shard (Header.EmulStart), or -1
	// for an untiered campaign; shards below it are the hardware tier.
	EmulStart int

	Events     int
	VirtualEnd time.Duration // virtual-clock high-water mark
	// Shards counts the distinct boards seen. Negative shards are
	// campaign-level streams (the persister's checkpoints), not boards.
	Shards int

	Execs   int
	HWExecs int
	EmExecs int

	// Edges is the hardware tier's distinct edge count: the largest
	// hardware sync-epoch total once the pool has journalled a barrier, and
	// until then the sum of the hardware cov-gain records. A fleet of one
	// journals no barrier, so its total is always that sum.
	Edges int
	// EmEdges is the largest emulation-tier sync-epoch total.
	EmEdges int

	CorpusAdds int
	Restores   int
	ByReason   map[string]int // restore-begin records by trigger
	// DeltaRestores counts restores the snapshot rung satisfied; every other
	// restore walked the full ladder (FullRestores).
	DeltaRestores int
	Reflashes     int
	SnapshotTakes int
	// RestoreDur counts restore-end records by duration: bucket i holds
	// those up to RestoreBounds[i], the last bucket the rest.
	RestoreDur    [len(RestoreBounds) + 1]int
	RestoreDurSum time.Duration

	// Bugs counts distinct hardware-tier bug signatures, the merged
	// Report's ground truth: emulation-tier findings are provisional.
	Bugs    int
	Triaged int

	LinkFaults     int
	LinkRetries    int
	LinkReconnects int

	SyncEpochs    int
	Quarantines   int
	SparePromotes int

	ConfirmEnqueues int
	Confirms        map[string]int // tier-confirm verdicts by kind: "cov", "crash"
	Divergences     map[string]int // tier-diverge verdicts by kind

	// Checkpoints, Distills and DistillDropped count the persister's
	// campaign-level records; DurableEdges is the largest checkpointed edge
	// count.
	Checkpoints    int
	Distills       int
	DistillDropped int
	DurableEdges   int

	// TimeBy sums every board's time-budget records and Duration is the
	// longest board's accounted duration: the Report's budget, rebuilt.
	// Budgets holds each board's own, in shard order.
	TimeBy   TimeBy
	Duration time.Duration
	Budgets  []ShardBudget

	shards   map[int]*ShardCounts
	sigs     map[string]bool // hardware-tier bug signatures seen
	hwCov    int             // hardware cov-gain sum
	hwSynced bool            // a hardware sync-epoch has been folded
	retired  int             // verdicts that retire a confirmation-queue entry
}

// ShardCounts is one shard's slice of a Fold: the per-shard rows of /status.
type ShardCounts struct {
	Shard    int
	Execs    int
	Edges    int // the shard's cov-gain sum
	Restores int
	Bugs     int // the shard's bug records
}

// ShardBudget is one board's budget rebuilt from its time-budget records.
type ShardBudget struct {
	Shard    int
	TimeBy   TimeBy
	Duration time.Duration
	// Drift is TimeBy.Sum() - Duration; zero when the journal satisfies the
	// report invariant (every shard's buckets sum to its accounted duration).
	Drift time.Duration
}

// NewFold returns an empty fold for a campaign whose emulation tier starts at
// emulStart (negative when untiered).
func NewFold(emulStart int) Fold {
	if emulStart < 0 {
		emulStart = -1
	}
	return Fold{
		EmulStart:   emulStart,
		ByReason:    map[string]int{},
		Confirms:    map[string]int{},
		Divergences: map[string]int{},
		shards:      map[int]*ShardCounts{},
		sigs:        map[string]bool{},
	}
}

// Emul reports whether shard belongs to the emulation tier.
func (f *Fold) Emul(shard int) bool { return f.EmulStart >= 0 && shard >= f.EmulStart }

// Apply folds one event.
func (f *Fold) Apply(ev Event) {
	f.Events++
	f.VirtualEnd = max(f.VirtualEnd, ev.At)
	sh := f.shards[ev.Shard]
	if sh == nil {
		sh = &ShardCounts{Shard: ev.Shard}
		f.shards[ev.Shard] = sh
		if ev.Shard >= 0 {
			f.Shards++
		}
	}
	emul := f.Emul(ev.Shard)
	switch ev.Kind {
	case ExecEnd:
		f.Execs++
		sh.Execs++
		if emul {
			f.EmExecs++
		} else {
			f.HWExecs++
		}
	case CovGain:
		sh.Edges += ev.Edges
		if !emul {
			f.hwCov += ev.Edges
			if !f.hwSynced {
				f.Edges = f.hwCov
			}
		}
	case SyncEpoch:
		f.SyncEpochs++
		switch {
		case emul:
			f.EmEdges = max(f.EmEdges, ev.Edges)
		case f.hwSynced:
			f.Edges = max(f.Edges, ev.Edges)
		default:
			// The first barrier replaces the cov-gain sum, which counts an
			// edge once per shard that found it.
			f.Edges, f.hwSynced = ev.Edges, true
		}
	case CorpusAdd:
		f.CorpusAdds++
	case RestoreBegin:
		f.Restores++
		f.ByReason[ev.Reason]++
		sh.Restores++
	case DeltaRestore:
		f.DeltaRestores++
	case RestoreEnd:
		f.RestoreDur[sort.Search(len(RestoreBounds), func(i int) bool { return RestoreBounds[i] >= ev.Dur })]++
		f.RestoreDurSum += ev.Dur
	case Reflash:
		f.Reflashes++
	case SnapshotTake:
		f.SnapshotTakes++
	case Bug:
		sh.Bugs++
		if !emul && !f.sigs[ev.Reason] {
			f.sigs[ev.Reason] = true
			f.Bugs++
		}
	case TriageEnd:
		f.Triaged++
	case LinkFault:
		f.LinkFaults++
	case LinkRetry:
		f.LinkRetries++
	case LinkReconnect:
		f.LinkReconnects++
	case Quarantine:
		f.Quarantines++
	case SparePromote:
		f.SparePromotes++
	case ConfirmEnqueue:
		f.ConfirmEnqueues++
	case TierConfirm:
		kind := "cov"
		if strings.HasPrefix(ev.Reason, "crash:") {
			kind = "crash"
		}
		f.Confirms[kind]++
		f.retired++
	case TierDiverge:
		kind, _, _ := strings.Cut(ev.Reason, ":")
		f.Divergences[kind]++
		// hw-only-crash verdicts are extras discovered while replaying a
		// coverage item; they do not retire a queue entry.
		if kind != "hw-only-crash" {
			f.retired++
		}
	case Checkpoint:
		f.Checkpoints++
		f.DurableEdges = max(f.DurableEdges, ev.Edges)
	case Distill:
		f.Distills++
		f.DistillDropped += ev.Edges
	case TimeBudget:
		if ev.Shard >= 0 {
			f.applyBudget(ev)
		}
	}
}

// applyBudget folds one board's time-budget record into its budget and the
// campaign's.
func (f *Fold) applyBudget(ev Event) {
	i, found := slices.BinarySearchFunc(f.Budgets, ev.Shard, func(b ShardBudget, shard int) int { return cmp.Compare(b.Shard, shard) })
	if !found {
		f.Budgets = slices.Insert(f.Budgets, i, ShardBudget{Shard: ev.Shard})
	}
	b := &f.Budgets[i]
	switch ev.Reason {
	case "duration":
		b.Duration = ev.Dur
		f.Duration = max(f.Duration, ev.Dur)
	case "restoring-delta":
		b.TimeBy.RestoringDelta += ev.Dur
		f.TimeBy.RestoringDelta += ev.Dur
	case "restoring-full":
		b.TimeBy.RestoringFull += ev.Dur
		f.TimeBy.RestoringFull += ev.Dur
	default:
		for _, c := range Categories() {
			if c.String() == ev.Reason {
				b.TimeBy.Add(c, ev.Dur)
				f.TimeBy.Add(c, ev.Dur)
			}
		}
	}
	b.Drift = b.TimeBy.Sum() - b.Duration
}

// FullRestores counts the restores the snapshot rung did not satisfy.
func (f *Fold) FullRestores() int { return f.Restores - f.DeltaRestores }

// ConfirmQueueDepth is the number of emulation observations still awaiting a
// hardware verdict.
func (f *Fold) ConfirmQueueDepth() int { return max(0, f.ConfirmEnqueues-f.retired) }

// ExecsPerSec returns hardware-tier executions per accounted virtual second
// (the clock high-water mark for journals without time-budget records).
func (f *Fold) ExecsPerSec() float64 {
	d := f.Duration
	if d == 0 {
		d = f.VirtualEnd
	}
	if d <= 0 {
		return 0
	}
	return float64(f.HWExecs) / d.Seconds()
}

// PerShard returns every shard's counts in shard order.
func (f *Fold) PerShard() []ShardCounts {
	out := make([]ShardCounts, 0, len(f.shards))
	for _, sh := range f.shards {
		out = append(out, *sh)
	}
	slices.SortFunc(out, func(a, b ShardCounts) int { return cmp.Compare(a.Shard, b.Shard) })
	return out
}
