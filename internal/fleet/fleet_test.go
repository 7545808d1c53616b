package fleet

import (
	"reflect"
	"testing"
	"time"

	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/boards"
	"github.com/eof-fuzz/eof/internal/core"
	"github.com/eof-fuzz/eof/internal/link"
	"github.com/eof-fuzz/eof/internal/targets"
	"github.com/eof-fuzz/eof/internal/trace"
)

// fleetConfig builds a fast campaign config for tests.
func fleetConfig(t *testing.T, osName string, seed int64) core.Config {
	t.Helper()
	info, err := targets.ByName(osName)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(info, boards.STM32H745())
	cfg.Seed = seed
	cfg.SampleEvery = time.Minute
	return cfg
}

// runFleet runs one fleet campaign and returns the merged report.
func runFleet(t *testing.T, cfg core.Config, opts Options, total time.Duration) *core.Report {
	t.Helper()
	f, err := New(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := f.Run(total)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestFleetMergedCoverage(t *testing.T) {
	cfg := fleetConfig(t, "freertos", 11)
	opts := Options{Shards: 3, SyncEvery: 2 * time.Minute}
	rep := runFleet(t, cfg, opts, 12*time.Minute)

	if rep.Stats.Execs < 30 {
		t.Fatalf("too few execs across the pool: %+v", rep.Stats)
	}
	if rep.Edges < 100 {
		t.Fatalf("too little merged coverage: %d edges", rep.Edges)
	}
	// Each shard got 4 virtual minutes, so the pool's wall-clock must be
	// about that — not the 12-minute total board time.
	if rep.Duration > 6*time.Minute {
		t.Fatalf("merged Duration %v should be pool wall-clock (~4m), not total board time", rep.Duration)
	}
	if len(rep.Series) == 0 {
		t.Fatal("no fleet coverage series")
	}
	last := rep.Series[len(rep.Series)-1]
	if last.Edges != rep.Edges {
		t.Fatalf("series end %d != merged edges %d", last.Edges, rep.Edges)
	}
	t.Logf("fleet: %d execs, %d edges, duration %v, linkops %d",
		rep.Stats.Execs, rep.Edges, rep.Duration, rep.Stats.LinkOps)
}

func TestFleetDeterministic(t *testing.T) {
	run := func() *core.Report {
		cfg := fleetConfig(t, "rtthread", 42)
		return runFleet(t, cfg, Options{Shards: 3, SyncEvery: 2 * time.Minute}, 18*time.Minute)
	}
	a, b := run(), run()
	if a.Edges != b.Edges {
		t.Fatalf("edges differ across identical runs: %d vs %d", a.Edges, b.Edges)
	}
	if a.Stats.Execs != b.Stats.Execs || a.Stats.Restores != b.Stats.Restores ||
		a.Stats.LinkOps != b.Stats.LinkOps {
		t.Fatalf("stats differ: %+v vs %+v", a.Stats, b.Stats)
	}
	if a.Stats.RestoreReasons() != b.Stats.RestoreReasons() {
		t.Fatalf("restore reasons differ: %s vs %s", a.Stats.RestoreReasons(), b.Stats.RestoreReasons())
	}
	if len(a.Bugs) != len(b.Bugs) {
		t.Fatalf("bug counts differ: %d vs %d", len(a.Bugs), len(b.Bugs))
	}
	for i := range a.Bugs {
		if a.Bugs[i].Sig != b.Bugs[i].Sig {
			t.Fatalf("bug %d ordering differs: %s vs %s", i, a.Bugs[i].Sig, b.Bugs[i].Sig)
		}
	}
	if len(a.Series) != len(b.Series) {
		t.Fatalf("series lengths differ: %d vs %d", len(a.Series), len(b.Series))
	}
	for i := range a.Series {
		if a.Series[i] != b.Series[i] {
			t.Fatalf("series point %d differs: %+v vs %+v", i, a.Series[i], b.Series[i])
		}
	}
}

// TestFleetOfOneMatchesEngineRun checks the solo policy: a one-board fleet,
// its budget sliced into several epochs, journals and reports exactly what a
// bare engine.Run does — in-line triage, the engine's own coverage series and
// per-command link stats included — and builds neither spares nor a triage
// board.
func TestFleetOfOneMatchesEngineRun(t *testing.T) {
	cfg := fleetConfig(t, "rtthread", 1234)
	cfg.Triage.Enabled = true
	budget := 7 * time.Minute

	engineJournal := trace.NewBuffer()
	ecfg := cfg
	ecfg.TraceSink = engineJournal
	e, err := core.NewEngine(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	want, err := e.Run(budget)
	if err != nil {
		t.Fatal(err)
	}

	fleetJournal := trace.NewBuffer()
	fcfg := cfg
	fcfg.TraceSink = fleetJournal
	f, err := New(fcfg, Options{Shards: 1, Spares: 2, SyncEvery: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if n := len(f.Engines()); n != 1 {
		t.Fatalf("fleet of one built %d boards, want 1 (no spares, no triage board)", n)
	}
	got, err := f.Run(budget)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.TriagedBugs == 0 {
		t.Fatalf("no finding triaged in-line: %+v", got.Stats)
	}
	if !reflect.DeepEqual(engineJournal.Events(), fleetJournal.Events()) {
		t.Fatal("fleet-of-one journal differs from engine.Run's")
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("fleet-of-one report differs from engine.Run's:\n%+v\n%+v", want, got)
	}
}

// TestLayout pins the board layout New builds: a lone hardware board drops
// its spares and triages in-line, while a pool (or any tiered campaign)
// keeps both, and the emulation tier starts after every hardware board.
func TestLayout(t *testing.T) {
	for _, tc := range []struct {
		opts   Options
		triage bool
		want   trace.Header
		emul   int
	}{
		{Options{}, true, trace.Header{Shards: 1}, -1},
		{Options{Shards: 1, Spares: 2}, true, trace.Header{Shards: 1}, -1},
		{Options{Shards: 2, Spares: 1}, true, trace.Header{Shards: 2, Spares: 1, Triage: true}, -1},
		{Options{Shards: 2, Spares: -1}, false, trace.Header{Shards: 2}, -1},
		{Options{Shards: 1, Spares: 1, EmulShards: 3}, true, trace.Header{Shards: 1, Spares: 1, Triage: true, EmulShards: 3}, 3},
	} {
		got := tc.opts.Layout(tc.triage)
		if got != tc.want || got.EmulStart() != tc.emul {
			t.Errorf("%+v triage=%v: layout %+v (emul start %d), want %+v (%d)",
				tc.opts, tc.triage, got, got.EmulStart(), tc.want, tc.emul)
		}
	}
}

func TestFleetThroughputScalesWithShards(t *testing.T) {
	total := 16 * time.Minute
	solo := runFleet(t, fleetConfig(t, "freertos", 5), Options{Shards: 1}, total)
	pool := runFleet(t, fleetConfig(t, "freertos", 5), Options{Shards: 4, SyncEvery: 2 * time.Minute}, total)

	soloRate := float64(solo.Edges) / solo.Duration.Seconds()
	poolRate := float64(pool.Edges) / pool.Duration.Seconds()
	t.Logf("solo: %d edges / %v = %.2f edges/s; pool: %d edges / %v = %.2f edges/s",
		solo.Edges, solo.Duration, soloRate, pool.Edges, pool.Duration, poolRate)
	if poolRate < 1.8*soloRate {
		t.Fatalf("4-shard pool rate %.2f < 1.8x solo rate %.2f", poolRate, soloRate)
	}
}

func TestFleetSharesSeedsAcrossShards(t *testing.T) {
	// With sync barriers, a shard's corpus should contain imported sibling
	// seeds; verify indirectly: the merged edge count with sharing enabled
	// must be at least each shard's own final count (union property), and
	// the shared collector must match the merged report.
	cfg := fleetConfig(t, "zephyr", 9)
	f, err := New(cfg, Options{Shards: 2, SyncEvery: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := f.Run(8 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Edges != f.SharedEdges() {
		t.Fatalf("merged edges %d != shared collector %d", rep.Edges, f.SharedEdges())
	}
	for i, e := range f.Engines() {
		if own := e.Coverage(); own > rep.Edges {
			t.Fatalf("shard %d coverage %d exceeds merged %d", i, own, rep.Edges)
		}
	}
}

func TestFleetVectoredLinkCutsRoundTrips(t *testing.T) {
	total := 8 * time.Minute
	vec := runFleet(t, fleetConfig(t, "freertos", 3), Options{Shards: 2, SyncEvery: 2 * time.Minute}, total)

	cfgLegacy := fleetConfig(t, "freertos", 3)
	cfgLegacy.LegacyLink = true
	leg := runFleet(t, cfgLegacy, Options{Shards: 2, SyncEvery: 2 * time.Minute}, total)

	vecOps := float64(vec.Stats.LinkOps) / float64(vec.Stats.Execs)
	legOps := float64(leg.Stats.LinkOps) / float64(leg.Stats.Execs)
	t.Logf("vectored: %.2f ops/exec, legacy: %.2f ops/exec", vecOps, legOps)
	if vecOps >= legOps {
		t.Fatalf("vectored link did not reduce round trips: %.2f >= %.2f", vecOps, legOps)
	}
	// The drain saves 2 round trips and the coalesced write+continue saves
	// 1, so demand most of those 3 ops/exec back — not a rounding artifact.
	if vecOps > legOps-1.5 {
		t.Fatalf("vectored link saving too small: %.2f vs %.2f ops/exec", vecOps, legOps)
	}
}

func TestFleetSurvivesLinkFaults(t *testing.T) {
	cfg := fleetConfig(t, "freertos", 21)
	cfg.LinkFaults = link.Profile(0.05, 0) // zero seed: each shard uses its own
	rep := runFleet(t, cfg, Options{Shards: 3, SyncEvery: 2 * time.Minute}, 12*time.Minute)

	if rep.Stats.ExecFailures != 0 {
		t.Fatalf("link faults leaked into exec failures: %+v", rep.Stats)
	}
	if rep.Stats.LinkRetries == 0 {
		t.Fatalf("5%% fault rate across 3 shards caused no retries: %+v", rep.Stats)
	}
	if rep.Stats.Execs < 30 || rep.Edges < 100 {
		t.Fatalf("faulty fleet barely fuzzed: %d execs, %d edges", rep.Stats.Execs, rep.Edges)
	}
	t.Logf("faulty fleet: %d execs, %d edges, %d retries, %d reconnects",
		rep.Stats.Execs, rep.Edges, rep.Stats.LinkRetries, rep.Stats.LinkReconnects)
}

func TestFleetTimeAccounting(t *testing.T) {
	cfg := fleetConfig(t, "freertos", 11)
	f, err := New(cfg, Options{Shards: 3, SyncEvery: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := f.Run(12 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	shardReps := f.ShardReports()
	if len(shardReps) != 3 {
		t.Fatalf("ShardReports returned %d reports, want 3", len(shardReps))
	}
	// With barrier idle time attributed, every shard's budget sums to the
	// pool's wall-clock Duration exactly.
	for i, sr := range shardReps {
		if sr.TimeBy.Sum() != rep.Duration {
			t.Fatalf("shard %d TimeBy sums to %v, want pool Duration %v (%s)",
				i, sr.TimeBy.Sum(), rep.Duration, sr.TimeBy)
		}
	}
	// And the merged budget is total board time: Shards x Duration.
	if want := rep.Duration * 3; rep.TimeBy.Sum() != want {
		t.Fatalf("merged TimeBy sums to %v, want %v (3 x %v)", rep.TimeBy.Sum(), want, rep.Duration)
	}
	t.Logf("pool time accounting: %s", rep.TimeBy)
}

func TestFleetJournalDeterministic(t *testing.T) {
	run := func() []trace.Event {
		cfg := fleetConfig(t, "rtthread", 42)
		buf := trace.NewBuffer()
		cfg.TraceSink = buf
		runFleet(t, cfg, Options{Shards: 3, SyncEvery: 2 * time.Minute}, 18*time.Minute)
		return buf.Events()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("fleet journal empty")
	}
	if len(a) != len(b) {
		t.Fatalf("journal lengths differ across identical runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("journal event %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// TestFleetTriage checks the dedicated-board pipeline: shards defer their
// findings, the barrier drains them onto the extra triage board, every merged
// finding carries a verdict, cross-shard duplicates collapse by cluster, and
// the accounting invariant extends to the extra board.
func TestFleetTriage(t *testing.T) {
	cfg := fleetConfig(t, "rtthread", 1234)
	cfg.Triage.Enabled = true
	f, err := New(cfg, Options{Shards: 2, SyncEvery: 5 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := f.Run(40 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Bugs) == 0 {
		t.Fatalf("no bugs found across the pool: %+v", rep.Stats)
	}
	if rep.Stats.TriagedBugs == 0 || rep.Stats.TriageReplays == 0 {
		t.Fatalf("triage board never worked: %+v", rep.Stats)
	}
	if rep.TimeBy.Triaging <= 0 {
		t.Fatalf("no board time charged to triaging: %v", rep.TimeBy)
	}
	seen := make(map[string]bool)
	for _, b := range rep.Bugs {
		if b.Cluster == "" || b.Reproducibility == "" {
			t.Errorf("merged bug %q missing triage verdict (%q/%q)", b.Sig, b.Cluster, b.Reproducibility)
		}
		if seen[b.Cluster] {
			t.Errorf("cluster %s appears twice in the merged report", b.Cluster)
		}
		seen[b.Cluster] = true
	}
	// 2 shards plus the triage board were activated, and every activated
	// board's budget sums to the pool's wall-clock.
	srs := f.ShardReports()
	if len(srs) != 3 {
		t.Fatalf("ShardReports returned %d reports, want 2 shards + triage board", len(srs))
	}
	for i, sr := range srs {
		if sr.TimeBy.Sum() != rep.Duration {
			t.Fatalf("board %d TimeBy sums to %v, want pool Duration %v (%s)",
				i, sr.TimeBy.Sum(), rep.Duration, sr.TimeBy)
		}
	}
	if want := rep.Duration * time.Duration(len(srs)); rep.TimeBy.Sum() != want {
		t.Fatalf("merged TimeBy sums to %v, want %v (%d x %v)", rep.TimeBy.Sum(), want, len(srs), rep.Duration)
	}
	t.Logf("fleet triage: %d bugs, %d replays, %s", len(rep.Bugs), rep.Stats.TriageReplays, rep.TimeBy)
}

// TestFleetTriageDeterministic extends the journal-determinism guarantee to
// triage-enabled campaigns: two identical seeded runs must produce identical
// journals (triage events included) and identical reproducers.
func TestFleetTriageDeterministic(t *testing.T) {
	run := func() ([]trace.Event, *core.Report) {
		cfg := fleetConfig(t, "rtthread", 1234)
		cfg.Triage.Enabled = true
		buf := trace.NewBuffer()
		cfg.TraceSink = buf
		rep := runFleet(t, cfg, Options{Shards: 2, SyncEvery: 5 * time.Minute}, 40*time.Minute)
		return buf.Events(), rep
	}
	ea, ra := run()
	eb, rb := run()
	if len(ea) == 0 {
		t.Fatal("fleet journal empty")
	}
	if len(ea) != len(eb) {
		t.Fatalf("journal lengths differ across identical runs: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("journal event %d differs:\n%+v\n%+v", i, ea[i], eb[i])
		}
	}
	if len(ra.Bugs) != len(rb.Bugs) {
		t.Fatalf("bug counts differ: %d vs %d", len(ra.Bugs), len(rb.Bugs))
	}
	for i := range ra.Bugs {
		x, y := ra.Bugs[i], rb.Bugs[i]
		if x.Cluster != y.Cluster || x.Reproducibility != y.Reproducibility || x.Repro != y.Repro {
			t.Fatalf("bug %d triage outcome differs:\n%s %s\n%s %s", i, x.Cluster, x.Reproducibility, y.Cluster, y.Reproducibility)
		}
	}
}

func TestFleetJournalMergesInShardOrder(t *testing.T) {
	cfg := fleetConfig(t, "freertos", 11)
	buf := trace.NewBuffer()
	cfg.TraceSink = buf
	runFleet(t, cfg, Options{Shards: 3, SyncEvery: 2 * time.Minute}, 12*time.Minute)

	evs := buf.Events()
	if len(evs) == 0 {
		t.Fatal("fleet journal empty")
	}
	// The journal ends with each board's time-budget block, flushed in
	// physical-board order after the last barrier.
	tail := len(evs)
	for i, ev := range evs {
		if ev.Kind == trace.TimeBudget {
			tail = i
			break
		}
	}
	if tail == len(evs) {
		t.Fatal("no time-budget block at the end of the fleet journal")
	}
	lastShard := -1
	budgets := 0
	for i, ev := range evs[tail:] {
		if ev.Kind != trace.TimeBudget {
			t.Fatalf("event %d (%s) interleaved with the time-budget tail", tail+i, ev.Kind)
		}
		if ev.Shard < lastShard {
			t.Fatalf("time-budget block for shard %d after shard %d", ev.Shard, lastShard)
		}
		lastShard = ev.Shard
		if ev.Reason == "duration" {
			budgets++
		}
	}
	if budgets != 3 {
		t.Fatalf("time-budget duration records = %d, want one per shard", budgets)
	}
	// Before the budget tail, the journal is a sequence of epochs; within
	// each epoch, shard streams appear in shard order, each ending with that
	// shard's sync-epoch event.
	epochs := 0
	shard := 0
	for i, ev := range evs[:tail] {
		if ev.Shard != shard {
			t.Fatalf("event %d from shard %d, expected shard %d's stream (kind %s)",
				i, ev.Shard, shard, ev.Kind)
		}
		if ev.Kind == trace.SyncEpoch {
			if ev.Exec != epochs/3+1 {
				t.Fatalf("sync-epoch %d numbered %d, want %d", i, ev.Exec, epochs/3+1)
			}
			epochs++
			shard = (shard + 1) % 3
		}
	}
	if epochs == 0 {
		t.Fatal("no sync-epoch events in the fleet journal")
	}
	if epochs%3 != 0 {
		t.Fatalf("sync-epoch events (%d) not a multiple of the shard count", epochs)
	}
}

// TestFleetSnapshotJournalDeterministic extends the journal-determinism
// guarantee to snapshot-enabled campaigns: two identical seeded runs produce
// byte-identical journals, snapshot events included, and every shard's
// restores split exactly into delta + full.
func TestFleetSnapshotJournalDeterministic(t *testing.T) {
	run := func() ([]trace.Event, *core.Report) {
		cfg := fleetConfig(t, "rtthread", 42)
		cfg.Snapshots = true
		buf := trace.NewBuffer()
		cfg.TraceSink = buf
		rep := runFleet(t, cfg, Options{Shards: 3, SyncEvery: 2 * time.Minute}, 18*time.Minute)
		return buf.Events(), rep
	}
	ea, ra := run()
	eb, rb := run()
	if len(ea) == 0 {
		t.Fatal("fleet journal empty")
	}
	if len(ea) != len(eb) {
		t.Fatalf("journal lengths differ across identical runs: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("journal event %d differs:\n%+v\n%+v", i, ea[i], eb[i])
		}
	}
	snapTakes, deltaRestores := 0, 0
	for _, ev := range ea {
		switch ev.Kind {
		case trace.SnapshotTake:
			snapTakes++
		case trace.DeltaRestore:
			deltaRestores++
		}
	}
	if snapTakes != ra.Stats.SnapshotTakes {
		t.Fatalf("journal has %d snapshot-take events, merged report says %d", snapTakes, ra.Stats.SnapshotTakes)
	}
	if deltaRestores != ra.Stats.DeltaRestores {
		t.Fatalf("journal has %d delta-restore events, merged report says %d", deltaRestores, ra.Stats.DeltaRestores)
	}
	if ra.Stats.DeltaRestores+ra.Stats.FullRestores != ra.Stats.Restores {
		t.Fatalf("merged delta(%d)+full(%d) != restores(%d)",
			ra.Stats.DeltaRestores, ra.Stats.FullRestores, ra.Stats.Restores)
	}
	if got := ra.TimeBy.RestoringDelta + ra.TimeBy.RestoringFull; got != ra.TimeBy.Restoring {
		t.Fatalf("merged restore sub-buckets %v != Restoring %v", got, ra.TimeBy.Restoring)
	}
	if ra.Stats.DeltaRestores != rb.Stats.DeltaRestores || ra.Stats.SnapshotTakes != rb.Stats.SnapshotTakes {
		t.Fatalf("snapshot stats differ across identical runs: %+v vs %+v", ra.Stats, rb.Stats)
	}
	t.Logf("snapshot fleet: %d takes, %d delta / %d full restores",
		ra.Stats.SnapshotTakes, ra.Stats.DeltaRestores, ra.Stats.FullRestores)
}

// TestFleetSnapshotSparePromotion dooms one shard's board so a hot spare is
// promoted mid-campaign, and asserts the promoted board rebuilds its own
// snapshot cache: the campaign keeps delta-restoring after the failover and
// the journal shows snapshot-take events following the promotion.
func TestFleetSnapshotSparePromotion(t *testing.T) {
	cfg := fleetConfig(t, "freertos", 11)
	cfg.Snapshots = true
	buf := trace.NewBuffer()
	cfg.TraceSink = buf
	rep := runFleet(t, cfg, Options{
		Shards:    2,
		Spares:    1,
		SyncEvery: 2 * time.Minute,
		// Board 0 dies on its first boot attempt; the spare takes its slot.
		Degrade: []board.DegradeConfig{{DieAfterBoots: 1, Seed: 1}},
	}, 12*time.Minute)

	if len(rep.Quarantines) == 0 {
		t.Fatalf("doomed board was never quarantined: %+v", rep.Stats)
	}
	if rep.Quarantines[0].Spare < 0 {
		t.Fatalf("no spare promoted into the dead slot: %+v", rep.Quarantines[0])
	}
	if rep.Stats.DeltaRestores == 0 {
		t.Fatalf("snapshot fleet with failover made no delta restores: %+v", rep.Stats)
	}
	// The promoted spare's stream must contain its own snapshot-take events:
	// every board that ever delta-restored snapshotted first.
	takesByShard := map[int]int{}
	promoted := false
	for _, ev := range buf.Events() {
		switch ev.Kind {
		case trace.SparePromote:
			promoted = true
		case trace.SnapshotTake:
			takesByShard[ev.Shard]++
		}
	}
	if !promoted {
		t.Fatal("journal has no spare-promote event")
	}
	if len(takesByShard) < 2 {
		t.Fatalf("expected snapshot takes from both manned slots, got %v", takesByShard)
	}
	if rep.Stats.DeltaRestores+rep.Stats.FullRestores != rep.Stats.Restores {
		t.Fatalf("delta(%d)+full(%d) != restores(%d)",
			rep.Stats.DeltaRestores, rep.Stats.FullRestores, rep.Stats.Restores)
	}
}
