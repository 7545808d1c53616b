package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"github.com/eof-fuzz/eof/internal/agent"
	"github.com/eof-fuzz/eof/internal/backend"
	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/cov"
	"github.com/eof-fuzz/eof/internal/cpu"
	"github.com/eof-fuzz/eof/internal/fsb"
	"github.com/eof-fuzz/eof/internal/link"
	"github.com/eof-fuzz/eof/internal/ocd"
	"github.com/eof-fuzz/eof/internal/osinfo"
	"github.com/eof-fuzz/eof/internal/prog"
	"github.com/eof-fuzz/eof/internal/specgen"
	"github.com/eof-fuzz/eof/internal/sym"
	"github.com/eof-fuzz/eof/internal/syzlang"
	"github.com/eof-fuzz/eof/internal/trace"
	"github.com/eof-fuzz/eof/internal/triage"
	"github.com/eof-fuzz/eof/internal/vtime"
)

// CoverSample is one point of the coverage-over-time series (Figures 7/8).
type CoverSample struct {
	At    time.Duration
	Edges int
}

// Stats aggregates campaign counters.
type Stats struct {
	Execs               int
	ExecFailures        int // deserialisation/infrastructure failures
	Crashes             int
	Restores            int
	Reflashes           int
	StallResets         int
	TimeoutResets       int
	ExecTimeoutResets   int
	ManualInterventions int // watchdog-less livelocks broken by the hard cap
	CovFullTraps        int
	// DegradedMonitors counts exception symbols left unarmed because the
	// board ran out of breakpoint comparators; the engine silently degrades
	// to log/stall detection for them, and this counter makes the
	// degradation visible in reports.
	DegradedMonitors int
	// RestoresByReason breaks Restores down by trigger ("crash", "fault",
	// "timeout", "pc-stall", "exec-timeout", ...).
	RestoresByReason map[string]int
	// RungEscalations counts recovery-ladder climbs past the first rung: a
	// restore that a plain reset did not satisfy. PowerCycles counts the
	// ladder reaching its most expensive rung.
	RungEscalations int
	PowerCycles     int
	// LinkOps is the number of debug-link round trips the campaign issued
	// (including retried attempts); LinkOps/Execs is the per-exec transport
	// cost the vectored commands cut.
	LinkOps int64
	// LinkRetries counts commands the session layer transparently re-sent
	// after a transient link fault (dropped or corrupt frame).
	LinkRetries int64
	// LinkReconnects counts link deaths the session layer recovered from:
	// adapter revived, breakpoints re-armed, capability latch refreshed.
	LinkReconnects int64
	// TriageReplays counts program re-executions spent confirming and
	// minimizing findings; they are not Execs, and their board time lands
	// in the triaging bucket. TriagedBugs counts findings that completed
	// the pipeline.
	TriageReplays int
	TriagedBugs   int
	// ConfirmReplays counts cross-tier confirmation re-executions this
	// (hardware) engine ran on behalf of emulation shards; like triage
	// replays they are not Execs, and their board time lands in the
	// confirming bucket.
	ConfirmReplays int
	// DeltaRestores counts restores satisfied by the snapshot rung (one
	// vRestore round trip shipping only dirty state); FullRestores counts
	// restores that went through the classic reset/reflash ladder.
	// DeltaRestores + FullRestores == Restores always holds.
	DeltaRestores int
	FullRestores  int
	// SnapshotTakes counts golden snapshots cached probe-side.
	SnapshotTakes int
	// RestoreBytesShipped and RestoreBytesSkipped total the delta-restore
	// bytes actually re-shipped vs proven clean and left in place.
	RestoreBytesShipped int64
	RestoreBytesSkipped int64
}

// addRestoreReason records one restore attributed to reason.
func (s *Stats) addRestoreReason(reason string) {
	if s.RestoresByReason == nil {
		s.RestoresByReason = make(map[string]int)
	}
	s.RestoresByReason[reason]++
}

// RestoreReasons renders the per-reason restore counts as a stable
// "reason=count" list, sorted by reason, for tables and CSV cells.
func (s *Stats) RestoreReasons() string {
	if len(s.RestoresByReason) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(s.RestoresByReason))
	for k := range s.RestoresByReason {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", k, s.RestoresByReason[k])
	}
	return out
}

// Merge accumulates o into s (fleet report aggregation).
func (s *Stats) Merge(o Stats) {
	s.Execs += o.Execs
	s.ExecFailures += o.ExecFailures
	s.Crashes += o.Crashes
	s.Restores += o.Restores
	s.Reflashes += o.Reflashes
	s.StallResets += o.StallResets
	s.TimeoutResets += o.TimeoutResets
	s.ExecTimeoutResets += o.ExecTimeoutResets
	s.ManualInterventions += o.ManualInterventions
	s.CovFullTraps += o.CovFullTraps
	s.DegradedMonitors += o.DegradedMonitors
	s.RungEscalations += o.RungEscalations
	s.PowerCycles += o.PowerCycles
	s.LinkOps += o.LinkOps
	s.LinkRetries += o.LinkRetries
	s.LinkReconnects += o.LinkReconnects
	s.TriageReplays += o.TriageReplays
	s.TriagedBugs += o.TriagedBugs
	s.ConfirmReplays += o.ConfirmReplays
	s.DeltaRestores += o.DeltaRestores
	s.FullRestores += o.FullRestores
	s.SnapshotTakes += o.SnapshotTakes
	s.RestoreBytesShipped += o.RestoreBytesShipped
	s.RestoreBytesSkipped += o.RestoreBytesSkipped
	for k, v := range o.RestoresByReason {
		if s.RestoresByReason == nil {
			s.RestoresByReason = make(map[string]int)
		}
		s.RestoresByReason[k] += v
	}
}

// Report is a finished campaign's outcome.
type Report struct {
	OS       string
	Board    string
	Stats    Stats
	Edges    int
	Bugs     []*BugReport
	Series   []CoverSample
	Duration time.Duration
	// LinkPerCmd is the metrics layer's per-command round-trip accounting
	// (counts and virtual-latency histograms), sorted by command name.
	LinkPerCmd []link.CmdStat
	// TimeBy breaks the board-time budget into executing / restoring /
	// reflashing / link-overhead / sync-barrier. For a solo engine it sums
	// to Duration exactly; a merged fleet report sums shard board time
	// (Shards x the pool's wall-clock Duration).
	TimeBy trace.TimeBy
	// Health is the board's final health record. A merged fleet report
	// carries the pool's sickest board here; BoardHealth lists every
	// activated board in physical order (nil for solo reports).
	Health      Health
	BoardHealth []Health
	// Quarantines lists the boards the fleet supervisor retired (empty for
	// solo campaigns and healthy fleets).
	Quarantines []Quarantine
	// Tiers summarises each capability tier of a heterogeneous fleet in
	// display order (hw first); nil for solo campaigns and tiers-off fleets.
	Tiers []TierStats
	// Divergences lists every cross-tier disagreement the confirmation
	// pipeline recorded: emulation-claimed coverage or crashes the hardware
	// tier could not reproduce, and crashes only the hardware replay hit.
	Divergences []TierDivergence
}

// TierStats summarises one capability tier of a heterogeneous fleet.
type TierStats struct {
	// Class is the tier's capability class ("hw" or "emul").
	Class string
	// Boards is how many boards the tier activated (including promoted
	// spares and the triage board for the hardware tier).
	Boards int
	// Execs / Edges are the tier's test-case and distinct-edge totals; the
	// emulation tier's edge set is provisional until confirmed.
	Execs int
	Edges int
	// TimeBy sums the tier's board-time budgets.
	TimeBy trace.TimeBy
	// Series is the tier's coverage growth sampled at epoch barriers, so
	// the tiers' discovery rates compare on a common timeline.
	Series []CoverSample
	// ConfirmReplays / Confirmed / Diverged summarise the confirmation
	// pipeline from this tier's perspective: the hardware tier counts
	// replays it ran, the emulation tier counts its items' verdicts.
	ConfirmReplays int
	Confirmed      int
	Diverged       int
}

// TierDivergence is one cross-tier disagreement, promoted to a first-class
// finding on the merged report: what one substrate observed, the other did
// not reproduce.
type TierDivergence struct {
	// Kind is "emul-only-cov" (claimed fresh edges the hardware replay did
	// not execute), "emul-only-crash" (an emulation crash the hardware
	// replay did not reproduce) or "hw-only-crash" (a crash only the
	// hardware replay of an emulation-admitted input hit).
	Kind string
	// Cluster is the crash cluster for crash kinds ("" for coverage).
	Cluster string
	// Edges counts the unconfirmed fresh edges for emul-only-cov.
	Edges int
	// Prog is the program that produced the divergence.
	Prog string
	// Shard is the emulation shard whose item diverged.
	Shard int
	// At is the virtual campaign time of the classification.
	At time.Duration
}

// errRestart signals that the target was restored and the fuzzing loop must
// re-synchronise at executor_main.
var errRestart = errors.New("core: target restored")

// SeedShare is one coverage-increasing input exported for sibling shards.
type SeedShare struct {
	P        *prog.Prog
	NewEdges int
	// Edges lists the fresh edge IDs the seed contributed — the attribution
	// the persistent corpus store records and distillation minimizes over.
	Edges []uint32
}

// RewardShare is one choice-table adjacency reward exported for siblings.
type RewardShare struct {
	Prev, Next string
	Amount     float64
}

// SyncDelta is the feedback a shard accumulated since the previous fleet
// sync: the edges it found first, the seeds that found them and the
// adjacency rewards they earned. Fleet campaigns drain deltas at epoch
// barriers and broadcast them to sibling shards in shard order, which keeps
// cross-pollination deterministic.
type SyncDelta struct {
	Edges   []uint32
	Seeds   []SeedShare
	Rewards []RewardShare
}

// Engine is one EOF instance attached to one board.
type Engine struct {
	cfg   Config
	clock *vtime.Clock
	bk    backend.Backend
	brd   *board.Board
	// srv is the hardware backend's debug server (nil on other substrates);
	// retained for tests that poke probe capabilities.
	srv *ocd.Server
	// client is the top of the layered debug-link stack the fuzzing loop
	// speaks: timing → session → metrics → (injector) → transport. The layers
	// below are retained for accounting and test access.
	client   link.Link
	session  *link.Session
	metrics  *link.Metrics
	injector *link.Injector // nil unless cfg.LinkFaults is enabled

	target *prog.Target
	gen    *prog.Generator
	ct     *prog.ChoiceTable
	rnd    *rand.Rand

	syms      *sym.Table
	lay       board.Layout
	images    *osinfo.Images
	mainAddr  uint64
	excAddrs  map[uint64]string
	collector *cov.Collector
	shared    *cov.Collector // optional fleet-wide sink, nil on a bare engine
	corpus    *Corpus
	logMon    *LogMonitor

	stats   Stats
	health  Health
	bugs    []*BugReport
	bugSigs map[string]bool
	series  []CoverSample

	// tracer is the engine's trace emission point (flight-recorder ring
	// plus optional journal/status sinks); acct attributes every virtual-
	// clock delta of the link stack to a board-time category. restoring
	// and reflashing are mode flags linkCategory reads.
	tracer     *trace.Tracer
	acct       *trace.Accountant
	restoring  bool
	reflashing bool
	// deltaRestoring marks the vRestore round trip so the timed link bills
	// it to the restoring-delta sub-bucket. snapValid tracks whether the
	// probe holds a usable golden snapshot; snapPostBoot/snapPostInit are
	// the configured (re-)snapshot states.
	deltaRestoring bool
	snapValid      bool
	snapPostBoot   bool
	snapPostInit   bool

	// triaging flags replay/minimization mode: the timed link bills every
	// round trip to the triaging bucket, recordBug diverts to captured
	// instead of the findings list, and coverage is discarded. pristine
	// tracks whether the board is freshly restored and untouched, so
	// replays only pay for a restore when the state is actually dirty.
	// triageQueue holds recorded findings awaiting the pipeline.
	triaging    bool
	pristine    bool
	captured    *BugReport
	triageQueue []TriageItem

	// confirming flags cross-tier confirmation mode on a hardware engine:
	// the timed link bills round trips to the confirming bucket, ingested
	// edges are additionally accumulated in confirmSeen, and recordBug notes
	// the replay's hit in confirmCaptured (while still recording normally —
	// hardware observations are ground truth). confirmQueue is the emulation
	// side: ConfirmCapture engines append every corpus-admitted input and
	// recorded crash for the fleet to drain. lastFresh keeps the most recent
	// drain's fresh edge IDs so capture knows what earned a corpus slot.
	confirming      bool
	confirmSeen     []uint32
	confirmCaptured *BugReport
	confirmQueue    []ConfirmItem
	lastFresh       []uint32

	// vectored tracks whether the probe accepts the single-round-trip
	// commands; it latches off on the first Ebadcmd and the engine degrades
	// to the legacy multi-round-trip sequences.
	vectored bool
	ready    bool
	delta    SyncDelta

	// stop is the graceful-shutdown request flag: set from a signal-handler
	// goroutine (hence atomic, unlike the rest of the single-goroutine
	// engine), checked by RunFor between iterations so the campaign drains
	// at a clean test-case boundary.
	stop atomic.Bool

	lastBudgetPC uint64
	stallRuns    int
	started      time.Duration
	lastSample   time.Duration
}

// NewEngine builds the full stack: images, board, debug server and client,
// specification pipeline and generator. The returned engine owns the board.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.ContinueBudget <= 0 {
		cfg.ContinueBudget = 500_000
	}
	if cfg.MaxContinues <= 0 {
		cfg.MaxContinues = 256
	}
	if cfg.MaxCalls <= 0 {
		cfg.MaxCalls = 10
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 5 * time.Minute
	}
	cfg.Health = cfg.Health.WithDefaults()
	cfg.Triage = cfg.Triage.WithDefaults()

	osInfo := cfg.OS
	if len(cfg.CovModules) > 0 {
		osInfo = osinfo.WithCovModules(cfg.OS, cfg.CovModules)
	}

	specRes, err := specgen.Generate(osInfo)
	if err != nil {
		return nil, err
	}
	if len(cfg.CallFilter) > 0 {
		filterSpec(specRes.Spec, cfg.CallFilter)
		if len(specRes.Spec.Calls) == 0 {
			return nil, fmt.Errorf("core: call filter matched nothing")
		}
	}
	target, err := prog.NewTarget(specRes.Spec, osInfo)
	if err != nil {
		return nil, err
	}
	images, err := osInfo.BuildImages(cfg.Board, cfg.Instrumented)
	if err != nil {
		return nil, err
	}
	syms := images.Syms
	dcfg := cfg.Degrade
	if dcfg.Enabled() && dcfg.Seed == 0 {
		// Like the link-fault injector: each engine (and fleet shard)
		// derives its own deterministic aging sequence from its seed.
		dcfg.Seed = cfg.Seed
	}
	factory := cfg.Backend
	if factory == nil {
		factory = backend.Hardware()
	}
	clock := &vtime.Clock{}
	bk, err := factory(backend.Env{
		Info:    osInfo,
		Spec:    cfg.Board,
		Images:  images,
		Clock:   clock,
		Latency: ocd.DefaultLatency(),
		Degrade: dcfg,
	})
	if err != nil {
		return nil, err
	}
	brd := bk.Board()

	ct := prog.NewChoiceTable(specRes.Spec)
	gen := prog.NewGenerator(target, cfg.Seed, ct)
	gen.RandomOnly = !cfg.APIAware

	e := &Engine{
		cfg:       cfg,
		clock:     clock,
		bk:        bk,
		brd:       brd,
		health:    Health{Score: 1},
		vectored:  !cfg.LegacyLink,
		target:    target,
		gen:       gen,
		ct:        ct,
		rnd:       rand.New(rand.NewSource(cfg.Seed ^ 0x5EED)),
		syms:      syms,
		lay:       board.LayoutFor(cfg.Board),
		images:    images,
		collector: cov.NewCollector(),
		corpus:    &Corpus{},
		logMon:    &LogMonitor{},
		bugSigs:   make(map[string]bool),
		excAddrs:  make(map[uint64]string),
	}
	e.snapPostBoot, e.snapPostInit = parseSnapshotStates(cfg.SnapshotStates)
	e.acct = trace.NewAccountant(clock)
	e.tracer = trace.New(cfg.Shard, clock, cfg.FlightRecorder)
	e.tracer.SetSink(cfg.TraceSink)
	e.tracer.SetLive(cfg.StatusSink)
	e.mainAddr = syms.Addr(agent.SymExecutorMain)
	for _, name := range osInfo.ExceptionSyms {
		e.excAddrs[syms.Addr(name)] = name
	}
	e.excAddrs[syms.Addr(agent.SymHandleException)] = agent.SymHandleException
	return e, nil
}

// filterSpec keeps only the named calls in the specification.
func filterSpec(spec *syzlang.Spec, names []string) {
	allowed := make(map[string]bool, len(names))
	for _, n := range names {
		allowed[n] = true
	}
	kept := spec.Calls[:0]
	for _, c := range spec.Calls {
		if allowed[c.Name] {
			kept = append(kept, c)
		}
	}
	spec.Calls = kept
}

// Board exposes the engine's board for in-process inspection by tests and
// experiment harnesses (never used by the fuzzing loop itself, which talks
// only through the debug client).
func (e *Engine) Board() *board.Board { return e.brd }

// Class returns the engine's execution-substrate capability class.
func (e *Engine) Class() backend.Class { return e.bk.Class() }

// Clock returns the campaign's virtual clock.
func (e *Engine) Clock() *vtime.Clock { return e.clock }

// Coverage returns the number of distinct edges observed so far.
func (e *Engine) Coverage() int { return e.collector.Total() }

// CollectorEdges returns the engine's observed edge set in ascending order.
func (e *Engine) CollectorEdges() []uint32 { return e.collector.Edges() }

// LinkOps returns the number of debug-link round trips issued so far.
func (e *Engine) LinkOps() int64 {
	if e.metrics == nil {
		return 0
	}
	return e.metrics.Ops()
}

// LinkMetrics exposes the metrics middleware for reports and tests.
func (e *Engine) LinkMetrics() *link.Metrics { return e.metrics }

// Tracer exposes the engine's trace emission point; the fleet uses it to
// emit sync-epoch events into each shard's journal, and tests to inspect the
// flight recorder.
func (e *Engine) Tracer() *trace.Tracer { return e.tracer }

// TimeBy returns the board-time budget accounted so far.
func (e *Engine) TimeBy() trace.TimeBy { return e.acct.Snapshot() }

// Health returns the board's health record so far; fleet supervisors poll it
// at epoch barriers to spot chronically sick boards.
func (e *Engine) Health() Health { return e.health }

// SetSharedSink attaches a fleet-wide collector that every drained edge is
// also ingested into. The sink is thread-safe and order-independent (set
// union), so sibling shards can feed it concurrently without disturbing the
// per-shard deterministic state. Must be set before Setup.
func (e *Engine) SetSharedSink(c *cov.Collector) { e.shared = c }

// RequestStop asks the engine to stop fuzzing at the next iteration
// boundary. Safe to call from another goroutine (signal handlers); RunFor
// then returns early and the campaign drains normally.
func (e *Engine) RequestStop() { e.stop.Store(true) }

// Execs returns the completed test-case count so far.
func (e *Engine) Execs() int { return e.stats.Execs }

// KnownClusters returns the crash-dedup cluster keys recorded so far,
// sorted. The persistence layer checkpoints them so a resumed campaign does
// not re-report the previous run's findings.
func (e *Engine) KnownClusters() []string {
	out := make([]string, 0, len(e.bugSigs))
	for c := range e.bugSigs {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// MarkKnownClusters pre-seeds the crash dedup set: findings matching these
// cluster keys are treated as already reported. Campaign resume uses it to
// suppress duplicates of the previous run's bugs.
func (e *Engine) MarkKnownClusters(clusters []string) {
	for _, c := range clusters {
		e.bugSigs[c] = true
	}
}

// DrainSyncDelta returns the feedback accumulated since the last drain and
// resets the accumulator. Fleet campaigns call it at epoch barriers.
func (e *Engine) DrainSyncDelta() SyncDelta {
	d := e.delta
	e.delta = SyncDelta{}
	return d
}

// ImportSyncDelta merges a sibling shard's feedback: its new edges become
// pre-seen (so this shard stops spending budget rediscovering them), its
// seeds join the corpus for further mutation, and its adjacency rewards
// shape future generation. Imports must happen between RunFor slices, in a
// deterministic order, to keep campaigns reproducible.
func (e *Engine) ImportSyncDelta(d SyncDelta) {
	e.collector.Ingest(d.Edges)
	for _, s := range d.Seeds {
		e.corpus.Add(s.P.Clone(), s.NewEdges)
	}
	for _, r := range d.Rewards {
		e.ct.Reward(r.Prev, r.Next, r.Amount)
	}
}

// Setup provisions flash, boots, attaches the probe and arms breakpoints,
// leaving the target parked at executor_main. It is idempotent; Run calls it
// implicitly and fleet campaigns call it before the first epoch slice.
func (e *Engine) Setup() error {
	if e.ready {
		return nil
	}
	if err := e.bk.Provision(); err != nil {
		return err
	}
	if err := e.bootWithRetry(); err != nil {
		return fmt.Errorf("core: initial boot: %w", err)
	}
	e.client = e.buildLinkStack()
	if err := e.armBreakpoints(); err != nil {
		return err
	}
	if err := e.runToMain(); err != nil {
		return err
	}
	// Cache the golden snapshot(s) before accounting starts, so the setup
	// captures stay outside the reported budget like the rest of bring-up.
	e.refreshSnapshot()
	e.ready = true
	e.pristine = true
	e.started = e.clock.Now()
	// Accounting starts at `started`, so setup round trips (provisioning,
	// first boot, initial arm and resync) stay outside the reported budget
	// and TimeBy sums to the report's Duration exactly.
	e.acct.Reset()
	return nil
}

// setupBootAttempts bounds initial bring-up retries against the degradation
// model's transient power-on failures.
const setupBootAttempts = 3

// bootWithRetry boots the board directly (the probe is not attached yet),
// absorbing transient power-on failures. A dead board surfaces as
// ErrBoardDead so fleet supervisors can quarantine the slot before the
// campaign starts; a bricked board (image/config problem) stays fatal.
func (e *Engine) bootWithRetry() error {
	var err error
	for attempt := 0; attempt < setupBootAttempts; attempt++ {
		if err = e.bk.Boot(); err == nil {
			return nil
		}
		if errors.Is(err, board.ErrDead) {
			e.health.Dead = true
			return fmt.Errorf("%v: %w", err, ErrBoardDead)
		}
		if e.brd.State() != board.Off {
			return err
		}
	}
	return err
}

// buildLinkStack composes the layered debug link the fuzzing loop speaks.
// Bottom-up: the backend's transport (the ocd client on hardware, VM
// facilities on the emulation tier), an optional fault injector
// (flaky-adapter model), the metrics layer (so faulted and retried attempts
// count as the real round trips they cost), and on top the session layer
// that absorbs the injector's faults via retries and reconnects.
func (e *Engine) buildLinkStack() link.Link {
	l := e.bk.Connect()
	if s, ok := e.bk.(interface{ Server() *ocd.Server }); ok {
		e.srv = s.Server()
	}
	if fcfg := e.cfg.LinkFaults; fcfg.Enabled() {
		if fcfg.Seed == 0 {
			fcfg.Seed = e.cfg.Seed
		}
		e.injector = link.NewInjector(l, fcfg, e.clock)
		e.injector.SetOnFault(func(k link.FaultKind, cmd string) {
			e.tracer.Emit(trace.Event{Kind: trace.LinkFault, Reason: k.String() + ":" + cmd})
		})
		l = link.Typed(e.injector)
	} else {
		e.injector = nil
	}
	e.metrics = link.NewMetrics(e.clock)
	e.session = link.NewSession(e.metrics.Wrap(l), link.SessionConfig{
		MaxRetries: e.cfg.LinkRetries,
		Clock:      e.clock,
		Reconnect: func() error {
			if e.injector != nil {
				e.injector.Revive()
			}
			return nil
		},
		OnRetry: func(cmd string) {
			e.tracer.Emit(trace.Event{Kind: trace.LinkRetry, Reason: cmd})
		},
		OnReconnect: func() {
			// A fresh adapter may speak the vectored commands even if the
			// previous one degraded mid-campaign; re-latch capability.
			e.vectored = !e.cfg.LegacyLink
			e.tracer.Emit(trace.Event{Kind: trace.LinkReconnect})
		},
	})
	// The timed wrapper tops the stack so its categories include everything
	// below: session backoff, injected fault penalties, adapter latency,
	// payload transfer and executed target cycles.
	return link.Typed(timedLink{e: e, inner: e.session})
}

// parseSnapshotStates interprets Config.SnapshotStates: a comma-separated
// subset of "post-boot,post-init", empty meaning both.
func parseSnapshotStates(s string) (postBoot, postInit bool) {
	if strings.TrimSpace(s) == "" {
		return true, true
	}
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "post-boot":
			postBoot = true
		case "post-init":
			postInit = true
		}
	}
	return postBoot, postInit
}

func (e *Engine) armBreakpoints() error {
	if err := e.client.SetBreakpoint(e.mainAddr); err != nil {
		return fmt.Errorf("core: arming executor_main: %w", err)
	}
	// Arm in address order: which symbols win the scarce comparators must
	// not depend on map iteration order, or campaigns stop being
	// reproducible.
	addrs := make([]uint64, 0, len(e.excAddrs))
	for addr := range e.excAddrs {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for i, addr := range addrs {
		if err := e.client.SetBreakpoint(addr); err != nil {
			// Breakpoint comparators are scarce on some boards; the engine
			// degrades to log/stall detection for the remaining symbols and
			// records how many monitors were lost.
			e.stats.DegradedMonitors += len(addrs) - i
			break
		}
	}
	return nil
}

// Close releases the debug link and the execution substrate.
func (e *Engine) Close() {
	if e.client != nil {
		e.client.Close()
	}
	e.bk.Close()
}

// Run executes a campaign for the given virtual-time budget.
func (e *Engine) Run(budget time.Duration) (*Report, error) {
	if err := e.Setup(); err != nil {
		return nil, err
	}
	if err := e.RunFor(budget); err != nil {
		return nil, err
	}
	rep := e.Report()
	e.EmitTimeBudget(rep.TimeBy, rep.Duration)
	return rep, nil
}

// RunFor fuzzes for one slice of the campaign budget. Fleet campaigns call
// it repeatedly with epoch-sized slices, exchanging feedback between calls;
// Run calls it once with the whole budget. Setup must have succeeded first.
func (e *Engine) RunFor(budget time.Duration) error {
	deadline := e.clock.DeadlineIn(budget)
	for !deadline.Expired(e.clock) && !e.stop.Load() {
		if err := e.iteration(); err != nil && !errors.Is(err, errRestart) {
			return err
		}
		if err := e.drainTriage(); err != nil {
			return err
		}
		e.sample()
	}
	return nil
}

// Report snapshots the campaign outcome so far.
func (e *Engine) Report() *Report {
	e.sampleForce()
	e.stats.LinkOps = e.LinkOps()
	if e.session != nil {
		e.stats.LinkRetries = e.session.Retries()
		e.stats.LinkReconnects = e.session.Reconnects()
	}
	rep := &Report{
		OS:       e.cfg.OS.Name,
		Board:    e.cfg.Board.Name,
		Stats:    e.stats,
		Edges:    e.collector.Total(),
		Bugs:     e.bugs,
		Series:   e.series,
		Duration: e.clock.Now() - e.started,
	}
	if e.metrics != nil {
		rep.LinkPerCmd = e.metrics.Snapshot()
	}
	rep.TimeBy = e.acct.Snapshot()
	rep.Health = e.health
	return rep
}

// EmitTimeBudget journals the end-of-campaign board-time budget: one
// TimeBudget event per category (zero buckets included), the restore
// sub-buckets, and a terminal "duration" record carrying the accounted
// campaign Duration. Solo campaigns call it with their own snapshot; the
// fleet calls it per shard after barrier-idle attribution, so the journalled
// buckets always sum to the duration record exactly — the invariant eoftrace
// rebuilds and checks offline.
func (e *Engine) EmitTimeBudget(by trace.TimeBy, duration time.Duration) {
	for _, c := range trace.Categories() {
		e.tracer.Emit(trace.Event{Kind: trace.TimeBudget, Reason: c.String(), Dur: by.Of(c)})
	}
	e.tracer.Emit(trace.Event{Kind: trace.TimeBudget, Reason: "restoring-delta", Dur: by.RestoringDelta})
	e.tracer.Emit(trace.Event{Kind: trace.TimeBudget, Reason: "restoring-full", Dur: by.RestoringFull})
	e.tracer.Emit(trace.Event{Kind: trace.TimeBudget, Reason: "duration", Dur: duration})
}

func (e *Engine) sample() {
	if e.clock.Now()-e.lastSample >= e.cfg.SampleEvery {
		e.sampleForce()
	}
}

func (e *Engine) sampleForce() {
	e.lastSample = e.clock.Now()
	e.series = append(e.series, CoverSample{At: e.clock.Now() - e.started, Edges: e.collector.Total()})
}

// mutateBias is the probability of mutating a corpus seed instead of
// generating fresh, when the corpus is non-empty.
const mutateBias = 0.7

// nextProg picks the next input: mutate a corpus seed under feedback
// guidance, otherwise generate fresh from the specification.
func (e *Engine) nextProg() *prog.Prog {
	if e.cfg.FeedbackGuided && e.corpus.Len() > 0 && e.rnd.Float64() < mutateBias {
		if s := e.corpus.Pick(e.rnd); s != nil {
			return e.gen.Mutate(s.P)
		}
	}
	return e.gen.Generate(e.cfg.MaxCalls)
}

// iteration runs one test case end to end.
func (e *Engine) iteration() error {
	p := e.nextProg()
	buf, err := e.packProg(p)
	if err != nil {
		return err
	}
	e.tracer.Emit(trace.Event{Kind: trace.ExecBegin, Exec: e.stats.Execs + 1})
	if err := e.pumpToMain(p, buf); err != nil {
		return err
	}
	// Back at executor_main: collect feedback.
	e.stats.Execs++
	fresh, err := e.drainCoverage()
	if err != nil && errors.Is(err, ocd.ErrTimeout) {
		return e.restore("timeout")
	}
	if fresh > 0 {
		e.tracer.Emit(trace.Event{Kind: trace.CovGain, Exec: e.stats.Execs, Edges: fresh})
	}
	if err := e.scanLog(p); err != nil {
		return err
	}
	if fresh > 0 && e.cfg.FeedbackGuided {
		e.corpus.Add(p, fresh)
		e.tracer.Emit(trace.Event{Kind: trace.CorpusAdd, Exec: e.stats.Execs, Edges: fresh})
		e.delta.Seeds = append(e.delta.Seeds, SeedShare{
			P: p, NewEdges: fresh, Edges: append([]uint32(nil), e.lastFresh...),
		})
		if e.cfg.ConfirmCapture {
			e.confirmQueue = append(e.confirmQueue, ConfirmItem{
				P:     p.Clone(),
				Edges: append([]uint32(nil), e.lastFresh...),
			})
			e.tracer.Emit(trace.Event{Kind: trace.ConfirmEnqueue, Exec: e.stats.Execs, Edges: fresh})
		}
		names := p.CallNames()
		for i := 1; i < len(names); i++ {
			e.ct.Reward(names[i-1], names[i], 0.5)
			e.delta.Rewards = append(e.delta.Rewards, RewardShare{Prev: names[i-1], Next: names[i], Amount: 0.5})
		}
	}
	e.tracer.Emit(trace.Event{Kind: trace.ExecEnd, Exec: e.stats.Execs})
	return nil
}

// packProg serializes p into the length-prefixed mailbox wire format.
func (e *Engine) packProg(p *prog.Prog) ([]byte, error) {
	wp, err := e.target.Serialize(p)
	if err != nil {
		return nil, err
	}
	raw, err := wp.Marshal()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 4+len(raw))
	binary.LittleEndian.PutUint32(buf, uint32(len(raw)))
	copy(buf[4:], raw)
	return buf, nil
}

// deliverAndResume places the test case into the inbound mailbox and resumes
// the target, returning the first stop event. With a vectored-capable probe
// the write and the continue travel as one round trip (vRun); otherwise they
// are two commands, with the write's timeout handled as a boot failure.
func (e *Engine) deliverAndResume(buf []byte) (cpu.Stop, bool, error) {
	if e.vectored {
		st, err := e.client.WriteMemContinue(e.lay.MailboxIn, buf, e.cfg.ContinueBudget)
		if !isBadCmd(err) {
			return st, true, err
		}
		e.vectored = false // probe predates vRun: degrade for the campaign
	}
	if err := e.client.WriteMem(e.lay.MailboxIn, buf); err != nil {
		return cpu.Stop{}, false, err
	}
	st, err := e.client.Continue(e.cfg.ContinueBudget)
	return st, true, err
}

// isBadCmd reports whether err is the probe rejecting an unknown command.
func isBadCmd(err error) bool {
	return ocd.IsCode(err, ocd.CodeBadCmd)
}

// pumpToMain delivers the test case and resumes the target until it parks at
// executor_main again, handling every other stop event: coverage-buffer
// traps, faults, exception breakpoints, stall/budget events and link
// timeouts.
func (e *Engine) pumpToMain(p *prog.Prog, buf []byte) error {
	start := e.clock.Now()
	e.pristine = false
	for i := 0; i < e.cfg.MaxContinues; i++ {
		var st cpu.Stop
		var delivered bool
		var err error
		if i == 0 {
			st, delivered, err = e.deliverAndResume(buf)
			if err != nil && !delivered {
				// The mailbox write itself failed: a dead link here means
				// the target never came up, which restoration handles.
				if errors.Is(err, ocd.ErrTimeout) {
					return e.restore("timeout")
				}
				return err
			}
		} else {
			st, err = e.client.Continue(e.cfg.ContinueBudget)
		}
		if err != nil {
			if errors.Is(err, ocd.ErrTimeout) && e.cfg.Watchdogs.ConnectionTimeout {
				e.stats.TimeoutResets++
				return e.restore("connection-timeout")
			}
			if i == 0 && errors.Is(err, ocd.ErrTimeout) {
				// Watchdog off, but the combined deliver+resume timed out:
				// treat like the legacy mailbox-write timeout.
				return e.restore("timeout")
			}
			return err
		}
		switch st.Kind {
		case cpu.StopBreakpoint:
			if st.PC == e.mainAddr {
				e.stallRuns = 0
				return nil
			}
			if name, isExc := e.excAddrs[st.PC]; isExc {
				e.onException(name, p)
				if !e.triaging {
					e.stats.Crashes++
				}
				return e.restore("crash")
			}
			// Foreign breakpoint: fall through and resume.
		case cpu.StopCovFull:
			e.stats.CovFullTraps++
			if _, err := e.drainCoverage(); err != nil {
				if errors.Is(err, ocd.ErrTimeout) {
					return e.restore("timeout")
				}
				return err
			}
		case cpu.StopFault:
			// No exception breakpoint fired (symbol not armed); the halt
			// itself still reveals the crash on the link.
			e.onFaultStop(st, p)
			if !e.triaging {
				e.stats.Crashes++
			}
			return e.restore("fault")
		case cpu.StopBudget:
			if e.cfg.Watchdogs.PCStall {
				if st.PC == e.lastBudgetPC {
					e.stallRuns++
				} else {
					e.lastBudgetPC, e.stallRuns = st.PC, 0
				}
				if e.stallRuns >= 2 {
					// Degraded state: check the log first (assert hangs are
					// bugs, plain wedges are not), then restore.
					if err := e.scanLog(p); err != nil {
						return err
					}
					e.stats.StallResets++
					return e.restore("pc-stall")
				}
			}
			if e.cfg.Watchdogs.ExecTimeout > 0 && e.clock.Now()-start > e.cfg.Watchdogs.ExecTimeout {
				if err := e.scanLog(p); err != nil {
					return err
				}
				e.stats.ExecTimeoutResets++
				return e.restore("exec-timeout")
			}
		case cpu.StopExit, cpu.StopKilled:
			return e.restore("target-exit")
		}
	}
	// Without watchdogs the loop would spin forever; this is the manual
	// intervention the paper's liveness machinery exists to avoid.
	e.stats.ManualInterventions++
	return e.restore("manual-intervention")
}

// drainCoverage reads, ingests and clears the target coverage buffer,
// returning the number of globally new edges. With a vectored-capable probe
// the whole read-and-clear is one vCovDrain round trip; otherwise the legacy
// three-round-trip sequence runs.
func (e *Engine) drainCoverage() (int, error) {
	if !e.cfg.Instrumented {
		return 0, nil
	}
	if e.vectored {
		entries, lost, err := e.client.DrainCov(e.lay.Cov, e.cfg.Board.CovEntries)
		if !isBadCmd(err) {
			if err != nil {
				return 0, err
			}
			e.collector.AddLost(lost)
			return e.ingestEdges(entries), nil
		}
		e.vectored = false // probe predates vCovDrain: degrade for the campaign
	}
	return e.drainCoverageLegacy()
}

// drainCoverageLegacy is the multi-round-trip drain older probe firmware
// needs: a speculative read of header plus typical entry volume, a tail read
// when the buffer holds more, and a write clearing the count word.
func (e *Engine) drainCoverageLegacy() (int, error) {
	// Speculatively read the header plus the typical entry volume in one
	// transfer; only unusually full buffers need a second read. Probe round
	// trips dominate drain cost, so batching matters more than bytes.
	first := 16 + 1024*4
	if max := 16 + e.cfg.Board.CovEntries*4; first > max {
		first = max
	}
	raw, err := e.client.ReadMem(e.lay.Cov, first)
	if err != nil {
		return 0, err
	}
	count := int(binary.LittleEndian.Uint32(raw[4:]))
	if count < 0 || count > e.cfg.Board.CovEntries {
		return 0, fmt.Errorf("core: corrupt coverage header count=%d", count)
	}
	if count == 0 {
		return 0, nil
	}
	if need := 16 + count*4; need > len(raw) {
		rest, err := e.client.ReadMem(e.lay.Cov+uint64(len(raw)), need-len(raw))
		if err != nil {
			return 0, err
		}
		raw = append(raw, rest...)
	}
	entries := make([]uint32, count)
	for i := range entries {
		entries[i] = binary.LittleEndian.Uint32(raw[16+i*4:])
	}
	// Clear: zero the count word so the runtime reuses the buffer.
	if err := e.client.WriteMem(e.lay.Cov+4, []byte{0, 0, 0, 0}); err != nil {
		return 0, err
	}
	return e.ingestEdges(entries), nil
}

// ingestEdges feeds drained entries into the local collector, the pending
// fleet sync delta, and (when fleet-attached) the shared sink.
func (e *Engine) ingestEdges(entries []uint32) int {
	if e.triaging {
		// Replays must not perturb the campaign's feedback state: the
		// buffer is cleared on the target, the drained edges are dropped.
		return 0
	}
	if e.confirming {
		// Confirmation replays additionally record everything the hardware
		// actually executed, so the fleet can check the emulation tier's
		// claimed edges against ground truth. Unlike triage, the edges still
		// feed the campaign normally — hardware observations are real.
		e.confirmSeen = append(e.confirmSeen, entries...)
	}
	fresh := e.collector.Ingest(entries)
	e.lastFresh = fresh
	if len(fresh) > 0 {
		e.delta.Edges = append(e.delta.Edges, fresh...)
	}
	if e.shared != nil {
		e.shared.Ingest(entries)
	}
	return len(fresh)
}

// scanLog drains the UART through the log monitor, recording a bug when a
// crash pattern matches.
func (e *Engine) scanLog(p *prog.Prog) error {
	if e.client == nil {
		return nil
	}
	lines, err := e.client.DrainUART()
	if err != nil {
		if errors.Is(err, ocd.ErrTimeout) {
			return nil // UART capture is best-effort while the link is down
		}
		return err
	}
	sig, line, ok := e.logMon.Scan(lines)
	if !ok {
		return nil
	}
	kind := "assert"
	if !hasAssert(line) {
		kind = "panic"
	}
	e.recordBug(&BugReport{
		Sig:     sig,
		Title:   "log: " + line,
		Kind:    kind,
		Monitor: "log",
		Log:     e.logMon.Context(),
		Prog:    p.String(),
	}, p)
	return nil
}

func hasAssert(line string) bool {
	return len(line) >= 6 && line[:6] == "ASSERT"
}

// onException handles a stop at an exception-function breakpoint: read the
// fault status block over the link and attribute the crash.
func (e *Engine) onException(symName string, p *prog.Prog) {
	raw, err := e.client.ReadMem(e.lay.FSB, board.FSBSize)
	if err != nil {
		e.recordBug(&BugReport{
			Sig:     "exc:" + symName,
			Title:   "exception at " + symName + " (fault block unreadable)",
			Kind:    "panic",
			Monitor: "exception",
			Prog:    p.String(),
		}, p)
		return
	}
	fault, err := fsb.Decode(raw)
	if err != nil || fault == nil {
		e.recordBug(&BugReport{
			Sig:     "exc:" + symName,
			Title:   "exception at " + symName + " (no fault record)",
			Kind:    "panic",
			Monitor: "exception",
			Prog:    p.String(),
		}, p)
		return
	}
	e.scanLogQuiet()
	e.recordBug(&BugReport{
		Sig:     faultSig(fault),
		Title:   faultTitle(fault),
		Kind:    "panic",
		Monitor: "exception",
		Fault:   fault,
		Log:     e.logMon.Context(),
		Prog:    p.String(),
	}, p)
}

// onFaultStop handles a raw fault halt (no exception breakpoint armed).
func (e *Engine) onFaultStop(st cpu.Stop, p *prog.Prog) {
	f := st.Fault
	if f == nil {
		f = &cpu.Fault{Kind: cpu.FaultHard, PC: st.PC, Msg: "halted with fault"}
	}
	e.scanLogQuiet()
	e.recordBug(&BugReport{
		Sig:     faultSig(f),
		Title:   faultTitle(f),
		Kind:    "panic",
		Monitor: "exception",
		Fault:   f,
		Log:     e.logMon.Context(),
		Prog:    p.String(),
	}, p)
}

// scanLogQuiet pulls UART context without pattern-triggered reports (the
// exception path owns the report).
func (e *Engine) scanLogQuiet() {
	lines, err := e.client.DrainUART()
	if err != nil {
		return
	}
	e.logMon.Scan(lines)
}

func (e *Engine) recordBug(b *BugReport, p *prog.Prog) {
	b.Cluster = triage.Cluster(b.Fault, b.Sig)
	if e.triaging {
		// Replay capture mode: the pipeline only wants the cluster of
		// whatever this run hit; nothing joins the findings list.
		e.captured = b
		return
	}
	if e.confirming {
		// Note what the confirmation replay hit (even if it dedups below):
		// the fleet compares it against the emulation tier's claim.
		e.confirmCaptured = b
	}
	// Dedup on the normalized cluster, not the raw signature: the same
	// fault reached through two callers (or observed by two monitors with
	// jittering message text) is one bug.
	if e.bugSigs[b.Cluster] {
		return
	}
	e.bugSigs[b.Cluster] = true
	b.OS = e.cfg.OS.Name
	b.Board = e.cfg.Board.Name
	b.Tier = e.bk.Class().String()
	b.FoundAt = e.clock.Now() - e.started
	// Flight recorder: attach the last events leading up to the detection,
	// then journal the detection itself.
	b.Trace = e.tracer.Recent()
	e.bugs = append(e.bugs, b)
	e.tracer.Emit(trace.Event{Kind: trace.Bug, Exec: e.stats.Execs, Reason: b.Sig})
	if e.cfg.Triage.Enabled && p != nil {
		e.triageQueue = append(e.triageQueue, TriageItem{Bug: b, P: p.Clone()})
	}
	if e.cfg.ConfirmCapture && p != nil {
		e.confirmQueue = append(e.confirmQueue, ConfirmItem{P: p.Clone(), Bug: b})
		e.tracer.Emit(trace.Event{Kind: trace.ConfirmEnqueue, Exec: e.stats.Execs, Reason: b.Cluster})
	}
}

// snapshotsActive reports whether the snapshot/delta rung can be used right
// now: configured on, and the probe still speaking the vectored commands.
func (e *Engine) snapshotsActive() bool {
	return e.cfg.Snapshots && e.vectored
}

// takeSnapshot caches the board's current state probe-side as the golden
// snapshot. A probe rejecting the command latches the legacy fallback; any
// other failure just leaves the cache invalid, so the next restore walks the
// classic ladder (and reports "snapshot-miss").
func (e *Engine) takeSnapshot(state string) {
	if !e.snapshotsActive() {
		return
	}
	if err := e.client.Snapshot(); err != nil {
		if isBadCmd(err) {
			e.vectored = false
		}
		e.snapValid = false
		return
	}
	e.snapValid = true
	e.stats.SnapshotTakes++
	e.tracer.Emit(trace.Event{Kind: trace.SnapshotTake, Exec: e.stats.Execs, Reason: state})
}

// refreshSnapshot (re-)caches the golden snapshot at the configured kernel
// states. With post-init enabled the coverage slab is drained and the boot
// chatter flushed first, so the cached state is the quiet post-init park a
// restored board should resume from.
func (e *Engine) refreshSnapshot() {
	if !e.snapshotsActive() {
		return
	}
	if e.snapPostBoot {
		e.takeSnapshot("post-boot")
	}
	if e.snapPostInit {
		e.drainCoverage()
		e.scanLogQuiet()
		e.takeSnapshot("post-init")
	}
}

// tryDeltaRestore attempts the snapshot rung: one vRestore round trip that
// rolls flash and RAM back to the golden snapshot, shipping only the dirty
// delta. ok reports success; on failure the classic ladder takes over — a
// torn sector escalates naturally (reset fails boot validation → reflash),
// and a dead board surfaces through the ladder's dead-code handling.
func (e *Engine) tryDeltaRestore() (board.RestoreStats, bool) {
	e.deltaRestoring = true
	defer func() { e.deltaRestoring = false }()
	st, err := e.client.RestoreSnapshot()
	if err == nil {
		return st, true
	}
	if isBadCmd(err) {
		e.vectored = false
	}
	if ocd.IsCode(err, ocd.CodeSnap) {
		// The probe lost the cache (e.g. a replaced adapter): re-take before
		// the next restore.
		e.snapValid = false
	}
	return board.RestoreStats{}, false
}

// restore generalises Algorithm 1's StateRestoration into an escalating
// recovery ladder: reset → reflash+reset → power-cycle(+reflash) → declare
// the board dead. Each rung has its own attempt budget (Config.Health) and
// pays its own virtual-clock cost; every outcome feeds the board's EWMA
// health score. Every exit path emits a terminal RestoreEnd event — success
// with the triggering reason, failure with a ":failed" marker — so the
// journal's begin/end pairs stay balanced and the restore time stays
// attributed even when the board never comes back.
func (e *Engine) restore(reason string) error {
	snapActive := e.snapshotsActive()
	if snapActive && !e.snapValid {
		// Snapshots are on but the cache is cold (never taken, or dropped
		// after a capture failure): the full ladder this restore pays is the
		// snapshot rung's miss cost, so attribute the reason accordingly.
		reason = "snapshot-miss"
	}
	e.stats.Restores++
	e.stats.addRestoreReason(reason)
	e.health.Restores++
	e.stallRuns = 0
	e.lastBudgetPC = 0

	restoreStart := e.clock.Now()
	e.tracer.Emit(trace.Event{Kind: trace.RestoreBegin, Exec: e.stats.Execs, Reason: reason})
	e.restoring = true
	defer func() { e.restoring = false }()

	if snapActive && e.snapValid {
		if st, ok := e.tryDeltaRestore(); ok {
			// The delta rung leaves the board parked at executor_main with
			// breakpoints re-armed, so none of the classic rung's re-arm /
			// resync work is needed.
			e.stats.DeltaRestores++
			e.stats.RestoreBytesShipped += st.RestoredBytes
			e.stats.RestoreBytesSkipped += st.SkippedBytes
			e.noteRestoreOutcome(rungReset, nil)
			e.tracer.Emit(trace.Event{
				Kind:   trace.DeltaRestore,
				Exec:   e.stats.Execs,
				Reason: reason,
				Edges:  int(st.RestoredBytes),
			})
			e.pristine = true
			e.tracer.Emit(trace.Event{
				Kind:   trace.RestoreEnd,
				Exec:   e.stats.Execs,
				Reason: reason,
				Dur:    e.clock.Now() - restoreStart,
			})
			return errRestart
		}
		// Delta failed (torn flash, dead board, stale cache...): fall
		// through to the classic ladder, which handles every such state.
	}
	e.stats.FullRestores++

	rung, err := e.climbLadder(reason)
	e.noteRestoreOutcome(rung, err)
	if err != nil {
		e.tracer.Emit(trace.Event{
			Kind:   trace.RestoreEnd,
			Exec:   e.stats.Execs,
			Reason: reason + ":failed",
			Dur:    e.clock.Now() - restoreStart,
		})
		return fmt.Errorf("core: restore(%s): %w", reason, err)
	}
	e.pristine = true
	e.tracer.Emit(trace.Event{
		Kind:   trace.RestoreEnd,
		Exec:   e.stats.Execs,
		Reason: reason,
		Dur:    e.clock.Now() - restoreStart,
	})
	return errRestart
}

// climbLadder walks the recovery rungs until the target is parked at
// executor_main again, returning the rung that satisfied the restore. Any
// command answered with the probe's dead code — or exhausting every rung's
// budget — wraps ErrBoardDead.
func (e *Engine) climbLadder(reason string) (int, error) {
	budgets := [numRungs]int{
		e.cfg.Health.ResetAttempts,
		e.cfg.Health.ReflashAttempts,
		e.cfg.Health.PowerCycleAttempts,
	}
	var lastErr error
	for rung := 0; rung < numRungs; rung++ {
		if rung > 0 {
			e.stats.RungEscalations++
			e.health.Escalations++
			e.tracer.Emit(trace.Event{
				Kind:   trace.RungEscalate,
				Exec:   e.stats.Execs,
				Reason: rungNames[rung] + ":" + reason,
			})
		}
		for attempt := 0; attempt < budgets[rung]; attempt++ {
			lastErr = e.runRung(rung, reason)
			if lastErr == nil {
				return rung, nil
			}
			if ocd.IsCode(lastErr, ocd.CodeDead) {
				e.health.Dead = true
				return rung, fmt.Errorf("%v: %w", lastErr, ErrBoardDead)
			}
		}
	}
	e.health.Dead = true
	return numRungs - 1, fmt.Errorf("recovery ladder exhausted (last: %v): %w", lastErr, ErrBoardDead)
}

// runRung performs one attempt at the given rung: the rung's board action,
// then the breakpoint re-arm and executor_main resynchronisation every rung
// shares. Any failure escalates to the next rung instead of killing the
// campaign.
func (e *Engine) runRung(rung int, reason string) error {
	switch rung {
	case rungReset:
		if err := e.client.Reset(); err != nil {
			return err
		}
	case rungReflash:
		// Reboot failed: the image is damaged; reflash from the partition
		// table (GetPartitionTable(KConfig) in the paper's pseudocode).
		if err := e.reflash(reason); err != nil {
			return err
		}
		if err := e.client.Reset(); err != nil {
			return err
		}
	case rungPowerCycle:
		if err := e.reflash(reason); err != nil {
			return err
		}
		if err := e.powerCycle(); err != nil {
			return err
		}
	}
	if err := e.armBreakpoints(); err != nil {
		return err
	}
	// Flush boot chatter through the monitor without reporting.
	e.scanLogQuiet()
	if err := e.runToMain(); err != nil {
		return err
	}
	// The board is freshly parked at a known-good state: re-cache the golden
	// snapshot so the next restore can take the delta rung again.
	e.refreshSnapshot()
	return nil
}

// reflash rewrites every partition from the build outputs.
func (e *Engine) reflash(reason string) error {
	e.stats.Reflashes++
	e.health.Reflashes++
	e.reflashing = true
	defer func() { e.reflashing = false }()
	tab := e.brd.PartitionTable()
	for _, part := range []struct {
		name string
		data []byte
	}{{"bootloader", e.images.Boot}, {"kernel", e.images.Kernel}} {
		pt := tab.Lookup(part.name)
		if pt == nil {
			return fmt.Errorf("core: restore: partition %q missing", part.name)
		}
		if err := e.client.FlashErase(pt.Offset, pt.Size); err != nil {
			return fmt.Errorf("core: restore erase: %w", err)
		}
		if err := e.client.FlashWrite(pt.Offset, part.data); err != nil {
			return fmt.Errorf("core: restore write: %w", err)
		}
	}
	e.tracer.Emit(trace.Event{Kind: trace.Reflash, Exec: e.stats.Execs, Reason: reason})
	return nil
}

// powerCycle cold-boots the board through the probe. Probe firmware that
// predates the command earns a warm reset instead, so the deepest rung still
// does something useful on old adapters.
func (e *Engine) powerCycle() error {
	e.stats.PowerCycles++
	e.health.PowerCycles++
	err := e.client.PowerCycle()
	if isBadCmd(err) {
		return e.client.Reset()
	}
	return err
}

// runToMain resumes a freshly booted target until the executor_main
// breakpoint parks it, ready for the first test case. Exhausting the resume
// budget returns a ladder-escalatable error rather than a campaign-fatal one.
func (e *Engine) runToMain() error {
	for i := 0; i < e.cfg.Health.MaxResumes; i++ {
		st, err := e.client.Continue(e.cfg.ContinueBudget)
		if err != nil {
			return fmt.Errorf("core: run to executor_main: %w", err)
		}
		if st.Kind == cpu.StopBreakpoint && st.PC == e.mainAddr {
			return nil
		}
		if st.Kind == cpu.StopCovFull {
			if _, err := e.drainCoverage(); err != nil {
				return err
			}
		}
	}
	return errResumesExhausted
}
