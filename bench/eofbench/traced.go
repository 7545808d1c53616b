package main

// The traced run times each layer from outside the program, at the seams the
// engine already exposes: core.Config.Backend (every call into the transport),
// core.Config.StatusSink (host timestamps of exec and restore spans) and the
// process CPU profile. It builds the campaign from the internal packages the
// way eof.NewCampaign does, so its virtual results must match the untraced
// run's exactly; the harness checks that they do.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	eof "github.com/eof-fuzz/eof"
	"github.com/eof-fuzz/eof/internal/backend"
	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/boards"
	"github.com/eof-fuzz/eof/internal/core"
	"github.com/eof-fuzz/eof/internal/corpus"
	"github.com/eof-fuzz/eof/internal/cpu"
	"github.com/eof-fuzz/eof/internal/fleet"
	"github.com/eof-fuzz/eof/internal/link"
	"github.com/eof-fuzz/eof/internal/targets"
	"github.com/eof-fuzz/eof/internal/trace"
)

// layers is what one traced campaign measured, beside its virtual results.
type layers struct {
	// BringupMS is the host time of each explicit engine Setup before Run.
	BringupMS []float64
	// ExecUS and RestoreMS are the host durations of every exec and restore
	// span during Run.
	ExecUS    []float64
	RestoreMS []float64
	// Calls and NS count and time the transport calls during Run, by method;
	// RunCPUS is the process CPU time of Run alone.
	Calls   [numMethods]int64
	NS      [numMethods]int64
	RunCPUS float64
	// Profile is the CPU profile of Run.
	Profile string
}

// Transport methods of link.Link, grouped by what the engine uses them for.
const (
	mContinue = iota
	mWriteMemContinue
	mReset
	mPowerCycle
	mFlashErase
	mFlashWrite
	mRestoreSnapshot
	mDrainCov
	mDrainUART
	mReadMem
	mWriteMem
	mSetBreakpoint
	mClearBreakpoint
	mSnapshot
	mBoardState
	mClose
	numMethods
)

// methodGroup maps each transport method to its backend.* metric group.
func methodGroup(m int) string {
	switch {
	case m <= mWriteMemContinue:
		return "run"
	case m <= mRestoreSnapshot:
		return "restore"
	case m <= mDrainUART:
		return "drain"
	}
	return "other"
}

// transport accumulates one engine's transport call counts and host time.
// Each engine drives its own backend from one goroutine at a time, and the
// harness reads the totals only after Run has returned.
type transport struct {
	calls [numMethods]int64
	ns    [numMethods]int64
}

func (t *transport) done(m int, start time.Time) {
	t.calls[m]++
	t.ns[m] += int64(time.Since(start))
}

// timedBackends wraps backend.Hardware so that the link each engine connects
// to is timed. Emulated fleet shards get their backend inside internal/fleet
// and stay unwrapped; the CPU profile covers them.
type timedBackends struct {
	mu  sync.Mutex
	all []*transport
}

func (tb *timedBackends) factory() backend.Factory {
	hw := backend.Hardware()
	return func(env backend.Env) (backend.Backend, error) {
		b, err := hw(env)
		if err != nil {
			return nil, err
		}
		t := &transport{}
		tb.mu.Lock()
		tb.all = append(tb.all, t)
		tb.mu.Unlock()
		return timedBackend{Backend: b, t: t}, nil
	}
}

// totals sums the counters of every backend built so far.
func (tb *timedBackends) totals() (calls, ns [numMethods]int64) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	for _, t := range tb.all {
		for m := range calls {
			calls[m] += t.calls[m]
			ns[m] += t.ns[m]
		}
	}
	return calls, ns
}

type timedBackend struct {
	backend.Backend
	t *transport
}

func (b timedBackend) Connect() link.Link { return &timedLink{inner: b.Backend.Connect(), t: b.t} }

// timedLink times every call into the transport.
type timedLink struct {
	inner link.Link
	t     *transport
}

func (l *timedLink) ReadMem(addr uint64, n int) ([]byte, error) {
	defer l.t.done(mReadMem, time.Now())
	return l.inner.ReadMem(addr, n)
}

func (l *timedLink) WriteMem(addr uint64, data []byte) error {
	defer l.t.done(mWriteMem, time.Now())
	return l.inner.WriteMem(addr, data)
}

func (l *timedLink) SetBreakpoint(addr uint64) error {
	defer l.t.done(mSetBreakpoint, time.Now())
	return l.inner.SetBreakpoint(addr)
}

func (l *timedLink) ClearBreakpoint(addr uint64) error {
	defer l.t.done(mClearBreakpoint, time.Now())
	return l.inner.ClearBreakpoint(addr)
}

func (l *timedLink) Continue(budget int64) (cpu.Stop, error) {
	defer l.t.done(mContinue, time.Now())
	return l.inner.Continue(budget)
}

func (l *timedLink) Reset() error {
	defer l.t.done(mReset, time.Now())
	return l.inner.Reset()
}

func (l *timedLink) PowerCycle() error {
	defer l.t.done(mPowerCycle, time.Now())
	return l.inner.PowerCycle()
}

func (l *timedLink) FlashErase(off, n int) error {
	defer l.t.done(mFlashErase, time.Now())
	return l.inner.FlashErase(off, n)
}

func (l *timedLink) FlashWrite(off int, data []byte) error {
	defer l.t.done(mFlashWrite, time.Now())
	return l.inner.FlashWrite(off, data)
}

func (l *timedLink) DrainCov(addr uint64, maxEntries int) ([]uint32, uint32, error) {
	defer l.t.done(mDrainCov, time.Now())
	return l.inner.DrainCov(addr, maxEntries)
}

func (l *timedLink) WriteMemContinue(addr uint64, data []byte, budget int64) (cpu.Stop, error) {
	defer l.t.done(mWriteMemContinue, time.Now())
	return l.inner.WriteMemContinue(addr, data, budget)
}

func (l *timedLink) Snapshot() error {
	defer l.t.done(mSnapshot, time.Now())
	return l.inner.Snapshot()
}

func (l *timedLink) RestoreSnapshot() (board.RestoreStats, error) {
	defer l.t.done(mRestoreSnapshot, time.Now())
	return l.inner.RestoreSnapshot()
}

func (l *timedLink) DrainUART() ([]string, error) {
	defer l.t.done(mDrainUART, time.Now())
	return l.inner.DrainUART()
}

func (l *timedLink) BoardState() (board.State, int, string, error) {
	defer l.t.done(mBoardState, time.Now())
	return l.inner.BoardState()
}

func (l *timedLink) Close() error {
	defer l.t.done(mClose, time.Now())
	return l.inner.Close()
}

// spanSink records host-time exec and restore spans from the live event
// stream. Fleet shards emit concurrently, so spans are keyed by shard.
type spanSink struct {
	mu           sync.Mutex
	execStart    map[int]time.Time
	restoreStart map[int]time.Time
	execUS       []float64
	restoreMS    []float64
}

func newSpanSink() *spanSink {
	return &spanSink{execStart: map[int]time.Time{}, restoreStart: map[int]time.Time{}}
}

func (s *spanSink) Emit(ev trace.Event) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev.Kind {
	case trace.ExecBegin:
		// A restored attempt begins again under the same ordinal; the span
		// runs from its last beginning.
		s.execStart[ev.Shard] = now
	case trace.ExecEnd:
		if t, ok := s.execStart[ev.Shard]; ok {
			s.execUS = append(s.execUS, float64(now.Sub(t))/float64(time.Microsecond))
			delete(s.execStart, ev.Shard)
		}
	case trace.RestoreBegin:
		s.restoreStart[ev.Shard] = now
	case trace.RestoreEnd:
		if t, ok := s.restoreStart[ev.Shard]; ok {
			s.restoreMS = append(s.restoreMS, float64(now.Sub(t))/float64(time.Millisecond))
			delete(s.restoreStart, ev.Shard)
		}
	}
}

// coreConfig mirrors eof.NewCampaign's mapping of the options the workloads
// set onto core.Config and fleet.Options (nil for a solo campaign). It
// refuses any other option rather than silently dropping it.
func coreConfig(o eof.Options) (core.Config, *fleet.Options, error) {
	rest := o
	rest.OS, rest.Board, rest.Seed = "", "", 0
	rest.Snapshots, rest.Triage, rest.Tiers = false, false, false
	rest.Shards, rest.EmulShards, rest.SyncEvery = 0, 0, 0
	rest.TraceJSONL, rest.CorpusDir = nil, ""
	if !reflect.DeepEqual(rest, eof.Options{}) {
		return core.Config{}, nil, fmt.Errorf("traced run cannot mirror options %+v", rest)
	}
	info, err := targets.ByName(o.OS)
	if err != nil {
		return core.Config{}, nil, err
	}
	spec := boards.ByName(o.Board)
	if spec == nil {
		return core.Config{}, nil, fmt.Errorf("unknown board %q", o.Board)
	}
	cfg := core.DefaultConfig(info, spec)
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	cfg.Snapshots = o.Snapshots
	cfg.Triage.Enabled = o.Triage
	emulShards := 0
	if o.Tiers {
		emulShards = o.EmulShards
		if emulShards <= 0 {
			emulShards = 4
		}
	}
	if o.Shards <= 1 && emulShards == 0 {
		return cfg, nil, nil
	}
	return cfg, &fleet.Options{Shards: o.Shards, SyncEvery: o.SyncEvery, EmulShards: emulShards}, nil
}

// runTraced runs one campaign with every layer timed.
func runTraced(w *workload, c campaignSpec, dir string) campaignResult {
	r, err := traceCampaign(w, c, dir)
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.Err = checkVirtual(r.V)
	return r
}

func traceCampaign(w *workload, c campaignSpec, dir string) (r campaignResult, err error) {
	r.Index = c.Index
	cfg, fopts, err := coreConfig(w.options(c.OS, c.Seed))
	if err != nil {
		return r, err
	}
	tb := &timedBackends{}
	cfg.Backend = tb.factory()
	spans := newSpanSink()
	cfg.StatusSink = spans
	var jr *journal
	if w.journal {
		if jr, err = createJournal(dir, "traced-journal", c.Index); err != nil {
			return r, err
		}
		defer jr.remove()
		cfg.TraceSink = trace.NewJSONL(jr.w)
	}

	// Build the engines, then bring up the boards Run would bring up first:
	// every hardware slot, then the emulation tier.
	var run func(time.Duration) (*core.Report, error)
	var bringup []*core.Engine
	if fopts == nil {
		e, err := core.NewEngine(cfg)
		if err != nil {
			return r, err
		}
		defer e.Close()
		run, bringup = e.Run, []*core.Engine{e}
	} else {
		if w.store {
			storeDir := filepath.Join(dir, fmt.Sprintf("traced-store-%d-%d", os.Getpid(), c.Index))
			defer os.RemoveAll(storeDir)
			s, err := corpus.Open(storeDir, cfg.OS.Name, cfg.Board.Name)
			if err != nil {
				return r, err
			}
			fopts.Persist = corpus.NewPersister(s, corpus.PersisterOptions{Seed: cfg.Seed, Sink: cfg.TraceSink})
		}
		pool, err := fleet.New(cfg, *fopts)
		if err != nil {
			return r, err
		}
		defer pool.Close()
		all := pool.Engines()
		shards := max(1, fopts.Shards)
		run = pool.Run
		bringup = append(append([]*core.Engine(nil), all[:shards]...), all[len(all)-fopts.EmulShards:]...)
	}
	l := &layers{Profile: filepath.Join(dir, fmt.Sprintf("cpu-%d-%d.pprof", os.Getpid(), c.Index))}
	// r.CPUS spans bring-up and Run, like the untraced run's Campaign.Run.
	cpu0 := cpuTime()
	for _, e := range bringup {
		t := time.Now()
		if err := e.Setup(); err != nil {
			return r, fmt.Errorf("bring-up: %w", err)
		}
		l.BringupMS = append(l.BringupMS, float64(time.Since(t))/float64(time.Millisecond))
	}

	prof, err := os.Create(l.Profile)
	if err != nil {
		return r, err
	}
	defer prof.Close()
	calls0, ns0 := tb.totals()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := pprof.StartCPUProfile(prof); err != nil {
		return r, err
	}
	cpu1 := cpuTime()
	rep, err := run(c.Budget)
	cpu2 := cpuTime()
	pprof.StopCPUProfile()
	r.CPUS, l.RunCPUS = (cpu2 - cpu0).Seconds(), (cpu2 - cpu1).Seconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return r, err
	}
	if err := prof.Close(); err != nil {
		return r, err
	}
	r.Mallocs = m1.Mallocs - m0.Mallocs
	r.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	calls1, ns1 := tb.totals()
	for m := range l.Calls {
		l.Calls[m] = calls1[m] - calls0[m]
		l.NS[m] = ns1[m] - ns0[m]
	}
	l.ExecUS, l.RestoreMS = spans.execUS, spans.restoreMS

	r.V = virtual{
		Execs:               rep.Stats.Execs,
		Edges:               rep.Edges,
		Restores:            rep.Stats.Restores,
		DeltaRestores:       rep.Stats.DeltaRestores,
		FullRestores:        rep.Stats.FullRestores,
		Reflashes:           rep.Stats.Reflashes,
		ManualInterventions: rep.Stats.RestoresByReason["manual-intervention"],
		LinkRoundTrips:      rep.Stats.LinkOps,
		TimeBy:              rep.TimeBy,
		Duration:            rep.Duration,
		Boards:              max(1, len(rep.BoardHealth)),
	}
	for _, b := range rep.Bugs {
		r.V.Bugs = append(r.V.Bugs, b.OS+"/"+b.Cluster)
	}
	sort.Strings(r.V.Bugs)
	if jr != nil {
		if _, r.V.Journal, err = jr.digest(false); err != nil {
			return r, err
		}
	}
	r.Layers = l
	return r, nil
}
