// Package fleet shards one fuzzing campaign across a pool of virtual boards.
// N engines attach to N boards and run concurrently, each on an equal slice
// of the total board-time budget; their feedback cross-pollinates through a
// thread-safe shared coverage collector (live, order-independent set union)
// and an epoch-barrier corpus-sync exchange: at fixed virtual intervals every
// shard drains the new-coverage seeds, fresh edges and choice-table rewards
// it found, and the deltas are broadcast to sibling shards in shard order.
// Because each shard's execution between barriers is self-contained and
// deterministic, and the barrier exchange happens in a fixed order, the
// merged report is reproducible run to run for a fixed seed.
//
// The pool models the paper's practical deployment: on-hardware fuzzing is
// throughput-bound by the debug link and one board's execution speed, so
// labs attach several cheap boards to one host. Virtual time in this repo is
// board wall-clock, so a fleet report's Duration is the pool's wall-clock —
// total board-time divided by the shard count — and edges per Duration
// second is the pool's effective throughput.
//
// A board-health supervisor runs at every epoch barrier: a board whose
// engine reported core.ErrBoardDead — or whose health score fell below the
// sick threshold while a spare is available — is quarantined, and the next
// hot spare from the configured pool takes over its slot, re-seeded from the
// cumulative broadcast history so the newcomer starts with the fleet's
// collective corpus. One doomed board therefore costs the pool roughly one
// shard-epoch of throughput instead of the whole campaign.
//
// With EmulShards > 0 the fleet runs tiered: alongside the hardware pool, a
// wide pool of cheap emulated shards (backend.Emulated over a spec twin that
// keeps edge IDs comparable) explores the same campaign at emulation speed.
// The tiers share one direction of feedback — every hardware broadcast also
// reaches the emulation shards, but emulation discoveries never enter the
// hardware corpus or shared collector directly. Instead, each emulation
// shard queues its corpus admissions and crashes as confirmation items, and
// at every epoch barrier the fleet replays them on the hardware pool
// (round-robin over manned slots): a replay that reproduces the coverage or
// crash emits TierConfirm and feeds the hardware campaign normally, while a
// replay that does not emits TierDiverge and records a first-class
// cross-tier divergence on the merged report. Hardware stays the ground
// truth; emulation only proposes.
//
// A single hardware board with no emulation tier is a fleet of one, the
// paper's own setup, and every solo campaign runs as one. It has nothing to
// exchange, so its barriers only flush the journal and commit checkpoints; it
// triages its own findings between iterations instead of on a dedicated
// board; and its epochs run on the board's own clock, so a sliced run
// executes exactly the iterations of one unsliced engine.Run.
package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eof-fuzz/eof/internal/backend"
	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/core"
	"github.com/eof-fuzz/eof/internal/corpus"
	"github.com/eof-fuzz/eof/internal/cov"
	"github.com/eof-fuzz/eof/internal/link"
	"github.com/eof-fuzz/eof/internal/prog"
	"github.com/eof-fuzz/eof/internal/trace"
)

// DefaultSyncEvery is the epoch-barrier interval when Options leaves it
// unset: long enough that barrier overhead is negligible, short enough that
// a shard's discovery reaches siblings while it still matters.
const DefaultSyncEvery = 10 * time.Minute

// shardSeedStride separates shard RNG streams. Shard 0 keeps the configured
// seed, so a 1-shard fleet explores exactly like a solo engine.
const shardSeedStride = 1_000_003

// Options parameterises a fleet campaign.
type Options struct {
	// Shards is the number of boards in the pool (minimum 1). One board
	// with no EmulShards is a fleet of one (see the package comment).
	Shards int
	// SyncEvery is the virtual interval between feedback-exchange barriers
	// (default DefaultSyncEvery).
	SyncEvery time.Duration
	// FocusBoost, when positive, soft-partitions the search space: shard i
	// biases fresh generation toward every i-th spec call by adding this
	// weight, without removing any call from any shard. Zero disables
	// focus (all shards explore uniformly, differing only by seed).
	FocusBoost float64
	// Spares is the hot-spare pool size: boards built alongside the shards
	// (physical indices Shards..Shards+Spares-1) but held powered off until
	// the supervisor promotes one into a quarantined slot.
	Spares int
	// Degrade overrides the degradation model per physical board index
	// (shards first, then spares); boards beyond the slice inherit
	// cfg.Degrade. Tests and the resilience ablation use it to doom one
	// specific board.
	Degrade []board.DegradeConfig
	// EmulShards is the emulation explore tier's width: that many emulated
	// shards (physical indices after the hardware pool and the triage board)
	// run alongside the hardware slots, with their corpus admissions and
	// crashes re-executed on hardware at every epoch barrier. Zero disables
	// tiering entirely — the fleet behaves (and journals) exactly as an
	// all-hardware pool.
	EmulShards int
	// Persist, when non-nil, makes campaign state durable at every epoch
	// barrier: broadcast corpus admissions, the cumulative coverage bitmap,
	// crash clusters and per-shard cursors all land in the on-disk store
	// before the next epoch starts. Persistence runs on the supervisor
	// goroutine between epochs, so it never perturbs engine determinism.
	Persist *corpus.Persister
}

// withDefaults fills zero fields with the defaults and clamps negative
// sizes. A fleet of one has no pool to fail over within, so it holds no
// spares.
func (o Options) withDefaults() Options {
	o.Shards = max(o.Shards, 1)
	o.Spares = max(o.Spares, 0)
	o.EmulShards = max(o.EmulShards, 0)
	if o.SyncEvery <= 0 {
		o.SyncEvery = DefaultSyncEvery
	}
	if o.solo() {
		o.Spares = 0
	}
	return o
}

// solo reports whether the options describe a fleet of one: a single
// hardware board and no emulation tier.
func (o Options) solo() bool { return o.Shards <= 1 && o.EmulShards <= 0 }

// Layout returns the physical board layout New builds for these options, in
// the topology fields of a journal header: Shards hardware slots, then Spares
// hot spares, then the dedicated triage board when Triage is set (triage
// names whether the campaign triages at all), then EmulShards emulated
// shards. A fleet of one has neither spares nor a triage board.
func (o Options) Layout(triage bool) trace.Header {
	o = o.withDefaults()
	return trace.Header{Shards: o.Shards, Spares: o.Spares, Triage: triage && !o.solo(), EmulShards: o.EmulShards}
}

// Fleet is one sharded campaign over a board pool with hot-spare failover.
type Fleet struct {
	opts    Options
	engines []*core.Engine // physical boards: shards first, then spares
	shared  *cov.Collector
	ran     bool
	// solo marks a fleet of one (see the package comment).
	solo bool

	// stop is the graceful-shutdown flag: set from a signal handler, checked
	// after each epoch barrier so the campaign drains with a final durable
	// checkpoint instead of dying mid-epoch.
	stop atomic.Bool

	// slots maps each shard slot to the physical board serving it (-1 when
	// the slot is unmanned because the spare pool ran dry); spares is the
	// FIFO of boards still in reserve; active marks boards that were ever
	// powered on (their reports merge into the campaign report).
	slots  []int
	spares []int
	active []bool

	// history accumulates every broadcast delta so a promoted spare can be
	// re-seeded with the fleet's collective feedback at promotion time.
	history     core.SyncDelta
	quarantines []core.Quarantine

	sickThreshold float64

	// journal is the campaign-level trace sink (cfg.TraceSink); each board
	// writes into its own buffer, drained into the journal in slot order at
	// every epoch barrier so the merged stream is deterministic. flushQueue
	// holds, per slot, retired boards whose final events (ending in their
	// quarantine) must flush before the slot's current occupant's stream.
	journal    trace.Sink
	buffers    []*trace.Buffer
	flushQueue [][]int

	// triageIdx is the dedicated triage board's physical index (after the
	// spares; -1 when triage is disabled). Shards run with deferred triage
	// and the fleet drains their queues onto this board at every epoch
	// barrier in slot order, so findings are confirmed on different
	// hardware than found them and the merged journal stays deterministic.
	// triaged caches completed verdicts by cluster so a finding another
	// shard already confirmed is copied, not replayed again.
	triageIdx  int
	triageDead bool
	triaged    map[string]*core.BugReport

	// Emulation tier state. emulIdx lists the emulated boards' physical
	// indices (immutable, used for journal flushing); emulSlots mirrors it
	// but drops to -1 when a shard is quarantined. Emulation coverage feeds
	// its own shared collector — emulation edges reach the hardware
	// collector only through a confirmed hardware replay. confirmNext is the
	// persistent round-robin cursor over manned hardware slots for
	// confirmation replays.
	emulIdx     []int
	emulSlots   []int
	emulShared  *cov.Collector
	confirmNext int
	divergences []core.TierDivergence
	confirmed   int
	diverged    int

	shardReports []*core.Report
}

// New builds a pool of opts.Shards+opts.Spares engines from cfg. Physical
// board i runs with seed cfg.Seed + i*stride and feeds the fleet-wide shared
// collector; shard slots also receive their round-robin slice of the API
// surface as a soft generation bias when FocusBoost is set (a promoted spare
// inherits its slot's focus). The board seed also feeds each board's
// link-fault injector and degradation model (when their Seeds are zero), so
// every board in the pool ages and faults deterministically but differently.
func New(cfg core.Config, opts Options) (*Fleet, error) {
	opts = opts.withDefaults()
	lay := opts.Layout(cfg.Triage.Enabled)
	f := &Fleet{
		opts:          opts,
		solo:          opts.solo(),
		shared:        cov.NewCollector(),
		sickThreshold: cfg.Health.WithDefaults().SickThreshold,
		triageIdx:     -1,
		triaged:       make(map[string]*core.BugReport),
	}
	if opts.EmulShards > 0 {
		f.emulShared = cov.NewCollector()
	}
	if cfg.TraceSink != nil {
		f.journal = cfg.TraceSink
	}
	total := opts.Shards + opts.Spares
	boards := total
	if lay.Triage {
		// One extra physical board, dedicated to triage: shards defer
		// (enqueue only) and the barrier drains their queues onto it. A
		// fleet of one triages in-line between iterations instead.
		f.triageIdx = total
		boards = total + 1
	}
	for i := 0; i < boards; i++ {
		scfg := cfg
		scfg.Seed = cfg.Seed + int64(i)*shardSeedStride
		scfg.Shard = i
		scfg.Triage.Deferred = lay.Triage
		if i < len(opts.Degrade) && i < total {
			scfg.Degrade = opts.Degrade[i]
		}
		if f.journal != nil {
			// Buffer per board; the Run loop merges in slot order at each
			// barrier so the journal stays deterministic. The live StatusSink
			// (thread-safe by contract) stays attached directly.
			buf := trace.NewBuffer()
			f.buffers = append(f.buffers, buf)
			scfg.TraceSink = buf
		}
		e, err := core.NewEngine(scfg)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: board %d: %w", i, err)
		}
		e.SetSharedSink(f.shared)
		switch {
		case i < opts.Shards:
			f.setFocus(e, i)
			f.slots = append(f.slots, i)
		case i < total:
			f.spares = append(f.spares, i)
		}
		f.engines = append(f.engines, e)
	}
	// The emulation tier's boards come last, so every hardware board keeps
	// the physical index — and therefore the seed, fault stream and journal
	// position — it would have in an untiered fleet.
	for j := 0; j < opts.EmulShards; j++ {
		i := boards + j
		scfg := cfg
		scfg.Seed = cfg.Seed + int64(i)*shardSeedStride
		scfg.Shard = i
		scfg.Backend = backend.Emulated()
		scfg.Board = backend.EmulSpecFor(cfg.Board)
		scfg.ConfirmCapture = true
		// Emulation findings are provisional: no triage, no link faults, no
		// hardware aging — the VM substrate has none of those failure modes,
		// and crashes are confirmed (and then triaged) on hardware instead.
		scfg.Triage = core.TriageConfig{}
		scfg.LinkFaults = link.FaultConfig{}
		scfg.Degrade = board.DegradeConfig{}
		if f.journal != nil {
			buf := trace.NewBuffer()
			f.buffers = append(f.buffers, buf)
			scfg.TraceSink = buf
		}
		e, err := core.NewEngine(scfg)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: emul shard %d: %w", j, err)
		}
		e.SetSharedSink(f.emulShared)
		f.emulIdx = append(f.emulIdx, i)
		f.emulSlots = append(f.emulSlots, i)
		f.engines = append(f.engines, e)
	}
	f.active = make([]bool, len(f.engines))
	f.flushQueue = make([][]int, opts.Shards)
	return f, nil
}

// setFocus applies slot's round-robin soft partition of the API surface to e.
func (f *Fleet) setFocus(e *core.Engine, slot int) {
	if f.opts.FocusBoost <= 0 || f.opts.Shards <= 1 {
		return
	}
	var names []string
	for j, name := range e.SpecCalls() {
		if j%f.opts.Shards == slot {
			names = append(names, name)
		}
	}
	e.SetFocus(names, f.opts.FocusBoost)
}

// Engines exposes the pool (shards first, then spares) for tests and
// experiment harnesses.
func (f *Fleet) Engines() []*core.Engine { return f.engines }

// SharedEdges returns the hardware tier's fleet-wide distinct edge count so
// far (the campaign's ground-truth coverage).
func (f *Fleet) SharedEdges() int { return f.shared.Total() }

// EmulEdges returns the emulation tier's distinct edge count so far (zero in
// an untiered fleet).
func (f *Fleet) EmulEdges() int {
	if f.emulShared == nil {
		return 0
	}
	return f.emulShared.Total()
}

// Divergences returns the cross-tier divergences recorded so far.
func (f *Fleet) Divergences() []core.TierDivergence { return f.divergences }

// Quarantines returns the quarantine records so far, in supervision order.
func (f *Fleet) Quarantines() []core.Quarantine { return f.quarantines }

// RequestStop asks the fleet to drain at the next epoch barrier: every
// engine ends its current slice at an iteration boundary, the barrier runs
// normally (feedback exchange, supervision, journal flush, and the final
// persistence checkpoint when configured), then Run returns the merged
// report. Safe to call from another goroutine.
func (f *Fleet) RequestStop() {
	f.stop.Store(true)
	for _, e := range f.engines {
		e.RequestStop()
	}
}

// SeedFrom pre-seeds the whole pool from a resumed campaign's persisted
// state before Run: the delta's edges become pre-seen in the shared
// collector and every engine, its seeds join every corpus, and the cluster
// keys are marked known so the previous run's findings are not re-reported.
// The delta also joins the broadcast history, so spares promoted later
// inherit the resumed corpus exactly like live discoveries.
func (f *Fleet) SeedFrom(d core.SyncDelta, clusters []string) {
	f.shared.Ingest(d.Edges)
	for _, e := range f.engines {
		e.ImportSyncDelta(d)
		e.MarkKnownClusters(clusters)
	}
	f.appendHistory(d)
}

// mannedCount returns how many shard slots currently have a board.
func (f *Fleet) mannedCount() int {
	n := 0
	for _, b := range f.slots {
		if b >= 0 {
			n++
		}
	}
	return n
}

// Run executes the campaign with the given total board-time budget, split
// evenly across the shard slots: each slot fuzzes for total/Shards of
// virtual board time, so the pool's wall-clock is total/Shards. Boards that
// die mid-campaign are quarantined at the next epoch barrier and replaced
// from the spare pool; Run only fails when every slot is unmanned (or on a
// non-death engine error). Run may be called once.
func (f *Fleet) Run(total time.Duration) (*core.Report, error) {
	if f.ran {
		return nil, fmt.Errorf("fleet: Run called twice")
	}
	f.ran = true
	n := f.opts.Shards
	shardBudget := total / time.Duration(n)

	// Provision and boot sequentially: board bring-up mutates no shared
	// state, but a deterministic order keeps any setup-time failure and its
	// quarantine/promotion handling stable.
	for slot := 0; slot < n; slot++ {
		if err := f.manSlot(slot); err != nil {
			return nil, err
		}
	}
	if f.mannedCount() == 0 {
		f.flushJournal()
		return nil, fmt.Errorf("fleet: every board died during setup: %w", core.ErrBoardDead)
	}
	// Bring up the emulation tier after the hardware pool. A VM that fails
	// setup is quarantined like a dead board (the tier has no spares); any
	// other error is campaign-fatal.
	for j, b := range f.emulSlots {
		f.active[b] = true
		if err := f.engines[b].Setup(); err != nil {
			if !errors.Is(err, core.ErrBoardDead) {
				return nil, fmt.Errorf("fleet: emul shard %d setup: %w", j, err)
			}
			f.quarantineEmul(j, 0)
		}
	}

	var series, emulSeries []core.CoverSample
	var elapsed time.Duration
	start := f.engines[0].Clock().Now()
	for epochs := 1; elapsed < shardBudget; epochs++ {
		slice := min(f.opts.SyncEvery, shardBudget-elapsed)
		// Run the epoch slice on every manned slot concurrently — hardware
		// and emulation tiers alike. Each engine owns its board, link and
		// RNG; the only shared state is a mutex-protected collector sink
		// (one per tier), whose set union is order-independent.
		occupants := make([]int, n)
		copy(occupants, f.slots)
		emulOcc := make([]int, len(f.emulSlots))
		copy(emulOcc, f.emulSlots)
		errs := make([]error, n)
		emulErrs := make([]error, len(emulOcc))
		var wg sync.WaitGroup
		for slot, b := range occupants {
			if b < 0 {
				continue
			}
			wg.Add(1)
			go func(slot, b int) {
				defer wg.Done()
				errs[slot] = f.engines[b].RunFor(slice)
			}(slot, b)
		}
		for j, b := range emulOcc {
			if b < 0 {
				continue
			}
			wg.Add(1)
			go func(j, b int) {
				defer wg.Done()
				emulErrs[j] = f.engines[b].RunFor(slice)
			}(j, b)
		}
		wg.Wait()
		// A dead board is the supervisor's job at the barrier below; any
		// other engine error stays campaign-fatal.
		died := make([]bool, n)
		for slot, err := range errs {
			if err == nil {
				continue
			}
			if errors.Is(err, core.ErrBoardDead) {
				died[slot] = true
				continue
			}
			return nil, fmt.Errorf("fleet: shard %d: %w", slot, err)
		}
		emulDied := make([]bool, len(emulOcc))
		for j, err := range emulErrs {
			if err == nil {
				continue
			}
			if errors.Is(err, core.ErrBoardDead) {
				emulDied[j] = true
				continue
			}
			return nil, fmt.Errorf("fleet: emul shard %d: %w", j, err)
		}
		if f.solo {
			// A fleet of one follows its board's clock: each slice absorbs the
			// previous one's overshoot, so the last deadline is exactly the
			// budget and slicing changes no iteration of the run.
			elapsed = f.engines[0].Clock().Now() - start
		} else {
			elapsed += slice
		}

		// Barrier: exchange feedback in fixed slot order so every board sees
		// the same import sequence run to run. A dying board's final partial
		// delta still broadcasts — its discoveries outlive it.
		deltas := make([]core.SyncDelta, n)
		for slot, b := range occupants {
			if b < 0 {
				continue
			}
			deltas[slot] = f.engines[b].DrainSyncDelta()
			f.appendHistory(deltas[slot])
		}
		for slot := range occupants {
			for j, b := range occupants {
				if j == slot || b < 0 || died[j] {
					continue
				}
				f.engines[b].ImportSyncDelta(deltas[slot])
			}
		}
		// Tier exchange: feedback flows hardware -> emulation and between
		// emulation siblings, never emulation -> hardware. The hardware
		// corpus only sees emulation discoveries through a confirmed replay,
		// so an emulation-only artifact cannot steer the ground-truth tier.
		emulDeltas := make([]core.SyncDelta, len(emulOcc))
		for j, b := range emulOcc {
			if b < 0 {
				continue
			}
			emulDeltas[j] = f.engines[b].DrainSyncDelta()
		}
		for j, b := range emulOcc {
			if b < 0 || emulDied[j] {
				continue
			}
			e := f.engines[b]
			for slot, ob := range occupants {
				if ob < 0 {
					continue
				}
				e.ImportSyncDelta(deltas[slot])
			}
			for k := range emulOcc {
				if k == j || emulOcc[k] < 0 {
					continue
				}
				e.ImportSyncDelta(emulDeltas[k])
			}
		}

		// Supervise in slot order: journal the epoch for survivors (a fleet
		// of one exchanged nothing, so it journals no epoch), quarantine dead
		// boards, retire the chronically sick (only when a spare is ready — a
		// sick board still beats an empty slot), promote spares.
		for slot, b := range occupants {
			if b < 0 {
				continue
			}
			e := f.engines[b]
			if died[slot] {
				if err := f.quarantine(slot, "dead", elapsed); err != nil {
					return nil, err
				}
				continue
			}
			if !f.solo {
				e.Tracer().Emit(trace.Event{Kind: trace.SyncEpoch, Exec: epochs, Edges: f.shared.Total()})
			}
			if e.Health().Sick(f.sickThreshold) && len(f.spares) > 0 {
				if err := f.quarantine(slot, "sick", elapsed); err != nil {
					return nil, err
				}
			}
		}
		// Supervise the emulation tier: journal the epoch against its own
		// shared collector, quarantine dead VMs. No spares — a lost explore
		// shard just narrows the tier.
		for j, b := range emulOcc {
			if b < 0 {
				continue
			}
			if emulDied[j] {
				f.quarantineEmul(j, elapsed)
				continue
			}
			f.engines[b].Tracer().Emit(trace.Event{Kind: trace.SyncEpoch, Exec: epochs, Edges: f.emulShared.Total()})
		}
		if err := f.runConfirm(emulOcc, elapsed); err != nil {
			return nil, err
		}
		if err := f.runTriage(occupants); err != nil {
			return nil, err
		}
		f.flushJournal()
		if err := f.persistBarrier(epochs, elapsed, deltas); err != nil {
			return nil, err
		}
		if f.mannedCount() == 0 {
			return nil, fmt.Errorf("fleet: every board dead after %v: %w", elapsed, core.ErrBoardDead)
		}
		series = append(series, core.CoverSample{At: elapsed, Edges: f.shared.Total()})
		if f.emulShared != nil {
			emulSeries = append(emulSeries, core.CoverSample{At: elapsed, Edges: f.emulShared.Total()})
		}
		if f.stop.Load() {
			// Graceful shutdown: the barrier above already exchanged the last
			// feedback, flushed the journal and committed the final
			// checkpoint; end the campaign cleanly with a merged report.
			break
		}
	}
	return f.mergeReport(series, emulSeries), nil
}

// persistBarrier commits one completed epoch to the durable store: every
// broadcast seed with its edge attribution, the fleet-wide coverage bitmap,
// the known crash clusters and each slot's resume cursor. Runs after the
// journal flush so persistence events land at a deterministic stream
// position; errors are campaign-fatal (a store that cannot accept writes is
// losing the work the campaign exists to accumulate).
func (f *Fleet) persistBarrier(epoch int, elapsed time.Duration, deltas []core.SyncDelta) error {
	p := f.opts.Persist
	if p == nil {
		return nil
	}
	b := corpus.Barrier{Epoch: epoch, Elapsed: elapsed, Edges: f.shared.Edges()}
	for slot, d := range deltas {
		for _, s := range d.Seeds {
			blob, err := prog.ToJSON(s.P)
			if err != nil {
				return fmt.Errorf("fleet: persist slot %d seed: %w", slot, err)
			}
			b.Admissions = append(b.Admissions, corpus.Admission{
				Prog: blob, NewEdges: s.NewEdges, Edges: s.Edges, Shard: slot,
			})
		}
	}
	clusters := make(map[string]bool)
	for bd, e := range f.engines {
		if !f.active[bd] {
			continue
		}
		for _, c := range e.KnownClusters() {
			clusters[c] = true
		}
	}
	for c := range clusters {
		b.Clusters = append(b.Clusters, c)
	}
	for slot, bd := range f.slots {
		cur := corpus.ShardCursor{Shard: slot}
		if bd >= 0 {
			cur.Execs = f.engines[bd].Execs()
		}
		b.Cursors = append(b.Cursors, cur)
	}
	return p.Barrier(b)
}

// manSlot performs initial bring-up of slot's board, quarantining setup-time
// deaths and promoting spares until the slot is manned or the pool runs dry.
func (f *Fleet) manSlot(slot int) error {
	b := f.slots[slot]
	f.active[b] = true
	err := f.engines[b].Setup()
	if err == nil {
		return nil
	}
	if !errors.Is(err, core.ErrBoardDead) {
		return fmt.Errorf("fleet: shard %d setup: %w", slot, err)
	}
	return f.quarantine(slot, "dead", 0)
}

// quarantine retires the board serving slot and promotes the next viable
// spare into it. The retired board's buffered events (ending with its
// quarantine event) flush ahead of the slot's next occupant, keeping the
// journal deterministic.
func (f *Fleet) quarantine(slot int, reason string, at time.Duration) error {
	b := f.slots[slot]
	e := f.engines[b]
	e.Tracer().Emit(trace.Event{Kind: trace.Quarantine, Exec: slot, Reason: reason})
	f.flushQueue[slot] = append(f.flushQueue[slot], b)
	f.slots[slot] = -1
	f.quarantines = append(f.quarantines, core.Quarantine{
		Slot: slot, Board: b, Spare: -1, Reason: reason, At: at, Health: e.Health(),
	})
	qi := len(f.quarantines) - 1
	spare, err := f.promote(slot, at)
	if err != nil {
		return err
	}
	f.quarantines[qi].Spare = spare
	return nil
}

// promote mans slot with the next spare that survives bring-up, importing
// the cumulative broadcast history so the newcomer starts from the fleet's
// collective corpus. Returns -1 when the spare pool ran dry. A spare that is
// dead on arrival earns its own quarantine record and the next one is tried.
func (f *Fleet) promote(slot int, at time.Duration) (int, error) {
	for len(f.spares) > 0 {
		s := f.spares[0]
		f.spares = f.spares[1:]
		e := f.engines[s]
		f.active[s] = true
		if err := e.Setup(); err != nil {
			if !errors.Is(err, core.ErrBoardDead) {
				return -1, fmt.Errorf("fleet: spare %d setup: %w", s, err)
			}
			e.Tracer().Emit(trace.Event{Kind: trace.Quarantine, Exec: slot, Reason: "dead"})
			f.flushQueue[slot] = append(f.flushQueue[slot], s)
			f.quarantines = append(f.quarantines, core.Quarantine{
				Slot: slot, Board: s, Spare: -1, Reason: "dead", At: at, Health: e.Health(),
			})
			continue
		}
		f.setFocus(e, slot)
		e.ImportSyncDelta(f.history)
		e.Tracer().Emit(trace.Event{Kind: trace.SparePromote, Exec: slot, Edges: len(f.history.Edges)})
		f.slots[slot] = s
		return s, nil
	}
	return -1, nil
}

// runTriage drains every occupant's deferred triage queue onto the dedicated
// triage board, in slot order so replay verdicts and journal events are
// identical run to run. A finding whose cluster was already confirmed —
// possibly by a different shard — inherits the cached verdict instead of
// burning board time on a duplicate. Dead boards still appear in occupants,
// so a dying shard's last findings get triaged too. If the triage board
// itself dies, the remaining findings stay untriaged rather than killing the
// campaign.
func (f *Fleet) runTriage(occupants []int) error {
	if f.triageIdx < 0 {
		return nil
	}
	te := f.engines[f.triageIdx]
	for _, b := range occupants {
		if b < 0 {
			continue
		}
		for _, item := range f.engines[b].DrainTriageQueue() {
			if prior, ok := f.triaged[item.Bug.Cluster]; ok {
				copyTriage(prior, item.Bug)
				continue
			}
			if f.triageDead {
				continue
			}
			f.active[f.triageIdx] = true
			if err := te.TriageBug(item.Bug, item.P); err != nil {
				if !errors.Is(err, core.ErrBoardDead) {
					return fmt.Errorf("fleet: triage board: %w", err)
				}
				f.triageDead = true
			}
			f.triaged[item.Bug.Cluster] = item.Bug
		}
	}
	return nil
}

// quarantineEmul retires emulation shard j. The tier has no spares, so the
// slot stays unmanned; the shard's buffered events (ending with its
// quarantine) flush with the tier at the barrier.
func (f *Fleet) quarantineEmul(j int, at time.Duration) {
	b := f.emulSlots[j]
	e := f.engines[b]
	e.Tracer().Emit(trace.Event{Kind: trace.Quarantine, Exec: j, Reason: "dead"})
	f.emulSlots[j] = -1
	f.quarantines = append(f.quarantines, core.Quarantine{
		Slot: j, Board: b, Spare: -1, Reason: "dead", At: at, Health: e.Health(), Tier: "emul",
	})
}

// runConfirm drains every emulation shard's confirmation queue, in tier-slot
// order, and replays each item on the hardware pool round-robin (the cursor
// persists across barriers so replay load spreads evenly). Dead emulation
// shards still appear in emulOcc, so a dying shard's last findings are
// confirmed too.
func (f *Fleet) runConfirm(emulOcc []int, at time.Duration) error {
	for _, b := range emulOcc {
		if b < 0 {
			continue
		}
		for _, item := range f.engines[b].DrainConfirmQueue() {
			if err := f.confirmOne(b, item, at); err != nil {
				return err
			}
		}
	}
	return nil
}

// confirmOne re-executes one emulation-tier item on the next manned hardware
// slot and classifies the outcome. A replay that kills its board quarantines
// the slot and retries the item on the next one; the campaign only fails when
// no hardware board remains to confirm on.
func (f *Fleet) confirmOne(src int, item core.ConfirmItem, at time.Duration) error {
	for {
		slot := f.nextConfirmSlot()
		if slot < 0 {
			return fmt.Errorf("fleet: every hardware board dead during confirmation: %w", core.ErrBoardDead)
		}
		e := f.engines[f.slots[slot]]
		res, err := e.ConfirmProg(item.P)
		if err != nil {
			if errors.Is(err, core.ErrBoardDead) {
				if qerr := f.quarantine(slot, "dead", at); qerr != nil {
					return qerr
				}
				continue
			}
			return fmt.Errorf("fleet: confirm replay: %w", err)
		}
		f.classify(e, src, item, res, at)
		return nil
	}
}

// nextConfirmSlot returns the next manned hardware slot in round-robin
// order, or -1 when every slot is unmanned.
func (f *Fleet) nextConfirmSlot() int {
	n := f.opts.Shards
	for i := 0; i < n; i++ {
		slot := (f.confirmNext + i) % n
		if f.slots[slot] >= 0 {
			f.confirmNext = (slot + 1) % n
			return slot
		}
	}
	return -1
}

// classify compares what the emulation tier claimed against what the
// hardware replay observed, emitting TierConfirm / TierDiverge on the
// confirming engine's tracer (src is the emulation shard's physical index).
// Three divergence kinds exist: coverage the hardware run never executed,
// an emulation crash hardware cannot reproduce, and a hardware crash the
// emulation run never hit. The replay itself already fed the hardware
// campaign — a confirmed seed joined the corpus and sync delta inside
// ConfirmProg, and a hardware crash was recorded as a native finding — so
// classification only has to score the comparison.
func (f *Fleet) classify(e *core.Engine, src int, item core.ConfirmItem, res core.ConfirmResult, at time.Duration) {
	tr := e.Tracer()
	if item.Bug != nil {
		if res.Bug != nil && res.Bug.Cluster == item.Bug.Cluster {
			f.confirmed++
			tr.Emit(trace.Event{Kind: trace.TierConfirm, Exec: src, Reason: "crash:" + item.Bug.Cluster})
		} else {
			f.diverged++
			tr.Emit(trace.Event{Kind: trace.TierDiverge, Exec: src, Reason: "emul-only-crash:" + item.Bug.Cluster})
			f.divergences = append(f.divergences, core.TierDivergence{
				Kind: "emul-only-crash", Cluster: item.Bug.Cluster, Prog: item.P.String(), Shard: src, At: at,
			})
		}
		return
	}
	got := make(map[uint32]bool, len(res.Edges))
	for _, id := range res.Edges {
		got[id] = true
	}
	missing := 0
	for _, id := range item.Edges {
		if !got[id] {
			missing++
		}
	}
	if missing == 0 {
		f.confirmed++
		tr.Emit(trace.Event{Kind: trace.TierConfirm, Exec: src, Reason: "cov", Edges: len(item.Edges)})
	} else {
		f.diverged++
		tr.Emit(trace.Event{Kind: trace.TierDiverge, Exec: src, Reason: "emul-only-cov", Edges: missing})
		f.divergences = append(f.divergences, core.TierDivergence{
			Kind: "emul-only-cov", Edges: missing, Prog: item.P.String(), Shard: src, At: at,
		})
	}
	if res.Bug != nil {
		f.diverged++
		tr.Emit(trace.Event{Kind: trace.TierDiverge, Exec: src, Reason: "hw-only-crash:" + res.Bug.Cluster})
		f.divergences = append(f.divergences, core.TierDivergence{
			Kind: "hw-only-crash", Cluster: res.Bug.Cluster, Prog: item.P.String(), Shard: src, At: at,
		})
	}
}

// copyTriage copies a cached triage verdict onto a duplicate finding.
func copyTriage(from, to *core.BugReport) {
	to.Reproducibility = from.Reproducibility
	to.ReplayHits = from.ReplayHits
	to.Replays = from.Replays
	to.OrigCalls = from.OrigCalls
	to.MinCalls = from.MinCalls
	to.Repro = from.Repro
	to.Prog = from.Prog
}

// appendHistory accumulates a broadcast delta into the promotion history.
// Only a spare still in reserve can need it, so a pool with none left (a
// fleet of one never has any) keeps nothing. ImportSyncDelta clones seed
// programs on import, so sharing the slices with the original broadcast is
// safe.
func (f *Fleet) appendHistory(d core.SyncDelta) {
	if len(f.spares) == 0 {
		return
	}
	f.history.Edges = append(f.history.Edges, d.Edges...)
	f.history.Seeds = append(f.history.Seeds, d.Seeds...)
	f.history.Rewards = append(f.history.Rewards, d.Rewards...)
}

// flushJournal drains buffered events into the campaign journal in slot
// order: first each slot's retired boards (their streams end with the
// quarantine event), then the slot's current occupant. Supervision happens
// in slot order before the flush, so the merged stream is identical run to
// run.
func (f *Fleet) flushJournal() {
	if f.journal == nil {
		return
	}
	for slot := 0; slot < f.opts.Shards; slot++ {
		for _, b := range f.flushQueue[slot] {
			f.flushBuffer(b)
		}
		f.flushQueue[slot] = nil
		if b := f.slots[slot]; b >= 0 {
			f.flushBuffer(b)
		}
	}
	// The triage board's events (all produced at the barrier, after every
	// shard's slice) flush next, then the emulation tier in slot order —
	// appending the tier's streams keeps the hardware prefix of a tiered
	// journal identical to the untiered journal.
	if f.triageIdx >= 0 {
		f.flushBuffer(f.triageIdx)
	}
	for _, b := range f.emulIdx {
		f.flushBuffer(b)
	}
}

func (f *Fleet) flushBuffer(b int) {
	for _, ev := range f.buffers[b].Drain() {
		f.journal.Emit(ev)
	}
}

// ShardReports returns each activated board's individual report from the
// finished campaign, in physical-board order (quarantined boards and
// promoted spares included), with fleet sync-barrier idle time already
// attributed (a board's SyncBarrier covers how much longer the pool ran
// than it did). Nil before Run completes.
func (f *Fleet) ShardReports() []*core.Report { return f.shardReports }

// mergeReport folds the activated boards' reports into one campaign report
// with stable ordering: stats summed in physical-board order, bugs
// deduplicated by cluster in (board, discovery) order, Duration = the
// longest board's virtual runtime (= the pool's wall-clock, since slots run
// concurrently). Board-time accounting: a board that finished early — or
// died early, or joined late as a spare — sat out the rest of the pool's
// wall-clock, so the gap to the pool Duration is charged to its SyncBarrier
// bucket; afterwards every activated board's TimeBy sums to the pool
// Duration and the merged TimeBy sums to activated-boards x Duration. The
// merged Health is the pool's sickest board; BoardHealth and Quarantines
// carry the full story. A fleet of one has nothing to merge: its board's
// report, with the board's own coverage series and per-command link stats,
// is the campaign's, exactly as engine.Run returns it.
func (f *Fleet) mergeReport(series, emulSeries []core.CoverSample) *core.Report {
	if f.solo {
		rep := f.engines[0].Report()
		f.shardReports = []*core.Report{rep}
		f.engines[0].EmitTimeBudget(rep.TimeBy, rep.Duration)
		f.flushJournal()
		return rep
	}
	out := &core.Report{
		Series: series, Edges: f.shared.Total(),
		Quarantines: f.quarantines, Divergences: f.divergences,
	}
	tiered := len(f.emulIdx) > 0
	emulStart := len(f.engines)
	if tiered {
		emulStart = f.emulIdx[0]
	}
	hwTier := core.TierStats{Class: backend.HW.String(), Edges: f.shared.Total(), Confirmed: f.confirmed, Diverged: f.diverged}
	emTier := core.TierStats{Class: backend.Emul.String()}
	if tiered {
		emTier.Edges = f.emulShared.Total()
		hwTier.Series = series
		emTier.Series = emulSeries
	}
	seen := make(map[string]bool)
	f.shardReports = f.shardReports[:0]
	var emul []bool // aligned with shardReports
	for b, e := range f.engines {
		if !f.active[b] {
			continue
		}
		r := e.Report()
		f.shardReports = append(f.shardReports, r)
		emul = append(emul, b >= emulStart)
		if b < emulStart {
			out.OS, out.Board = r.OS, r.Board
		}
		out.Stats.Merge(r.Stats)
		out.BoardHealth = append(out.BoardHealth, r.Health)
		if len(f.shardReports) == 1 || healthWorse(r.Health, out.Health) {
			out.Health = r.Health
		}
		for _, bug := range r.Bugs {
			// An emulation-tier finding is provisional: if hardware
			// reproduced it, the confirmation replay recorded it natively on
			// the hardware tier; if not, it lives on as a TierDivergence.
			// Either way the merged bug list carries only ground truth.
			if bug.Tier == backend.Emul.String() {
				continue
			}
			key := bug.Cluster
			if key == "" {
				key = bug.Sig
			}
			if !seen[key] {
				seen[key] = true
				out.Bugs = append(out.Bugs, bug)
			}
		}
		if r.Duration > out.Duration {
			out.Duration = r.Duration
		}
	}
	for i, r := range f.shardReports {
		r.TimeBy.SyncBarrier += out.Duration - r.Duration
		out.TimeBy.Merge(r.TimeBy)
		if emul[i] {
			emTier.Boards++
			emTier.Execs += r.Stats.Execs
			emTier.TimeBy.Merge(r.TimeBy)
		} else {
			hwTier.Boards++
			hwTier.Execs += r.Stats.Execs
			hwTier.ConfirmReplays += r.Stats.ConfirmReplays
			hwTier.TimeBy.Merge(r.TimeBy)
		}
	}
	if tiered {
		out.Tiers = []core.TierStats{hwTier, emTier}
	}
	// Journal each activated board's final time budget now that barrier-idle
	// time is attributed (every shard's buckets sum to the pool Duration), then
	// drain the buffers one last time. The last barrier already flushed the
	// per-slot queues, so a straight physical-order pass over the activated
	// boards is deterministic.
	i := 0
	for b, e := range f.engines {
		if !f.active[b] {
			continue
		}
		e.EmitTimeBudget(f.shardReports[i].TimeBy, out.Duration)
		i++
	}
	if f.journal != nil {
		for b := range f.engines {
			if f.active[b] {
				f.flushBuffer(b)
			}
		}
	}
	return out
}

// healthWorse reports whether a is in worse shape than b.
func healthWorse(a, b core.Health) bool {
	if a.Dead != b.Dead {
		return a.Dead
	}
	return a.Score < b.Score
}

// Close releases every board's debug link and core, spares included.
func (f *Fleet) Close() {
	for _, e := range f.engines {
		e.Close()
	}
}
