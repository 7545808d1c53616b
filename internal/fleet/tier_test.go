package fleet

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/eof-fuzz/eof/internal/backend"
	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/core"
	"github.com/eof-fuzz/eof/internal/trace"
)

// tieredEvents partitions a merged journal for a tiered fleet: the emulation
// tier's exploration events (CorpusAdd / Bug emitted by shards at physical
// index >= emulStart) and the hardware tier's confirmation verdicts.
type tieredEvents struct {
	emulCorpusAdds int
	emulBugs       int
	confirms       int
	emulOnlyDiv    int // TierDiverge with an emul-only-* reason
	hwOnlyDiv      int // TierDiverge with an hw-only-crash reason
}

func splitTieredEvents(evs []trace.Event, emulStart int) tieredEvents {
	var out tieredEvents
	for _, ev := range evs {
		switch ev.Kind {
		case trace.CorpusAdd:
			if ev.Shard >= emulStart {
				out.emulCorpusAdds++
			}
		case trace.Bug:
			if ev.Shard >= emulStart {
				out.emulBugs++
			}
		case trace.TierConfirm:
			out.confirms++
		case trace.TierDiverge:
			if len(ev.Reason) >= 5 && ev.Reason[:5] == "emul-" {
				out.emulOnlyDiv++
			} else {
				out.hwOnlyDiv++
			}
		}
	}
	return out
}

// TestTieredFleetConfirmsEveryEmulationFinding is the acceptance property of
// tiered execution: a mixed fleet completes a campaign in which every
// corpus-admitted input and every crash the emulation tier found was either
// hardware-confirmed (TierConfirm) or recorded as a divergence (TierDiverge),
// and no emulation-tier finding reaches the merged bug list unconfirmed.
func TestTieredFleetConfirmsEveryEmulationFinding(t *testing.T) {
	cfg := fleetConfig(t, "freertos", 7)
	buf := trace.NewBuffer()
	cfg.TraceSink = buf
	opts := Options{Shards: 2, SyncEvery: 2 * time.Minute, EmulShards: 2}
	f, err := New(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := f.Run(8 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	if len(rep.Tiers) != 2 {
		t.Fatalf("tiered report has %d tier entries, want 2", len(rep.Tiers))
	}
	hw, em := rep.Tiers[0], rep.Tiers[1]
	if hw.Class != backend.HW.String() || em.Class != backend.Emul.String() {
		t.Fatalf("tier classes %q/%q", hw.Class, em.Class)
	}
	if hw.Boards != 2 || em.Boards != 2 {
		t.Fatalf("tier boards hw=%d emul=%d, want 2/2", hw.Boards, em.Boards)
	}
	if em.Execs == 0 || hw.Execs == 0 {
		t.Fatalf("idle tier: hw=%d emul=%d execs", hw.Execs, em.Execs)
	}
	if hw.ConfirmReplays == 0 {
		t.Fatal("no confirmation replays ran")
	}
	if hw.TimeBy.Confirming == 0 {
		t.Fatal("confirmation replays charged no board time to the confirming bucket")
	}
	if em.TimeBy.Confirming != 0 {
		t.Fatalf("emulation tier billed confirming time: %v", em.TimeBy.Confirming)
	}

	emulStart := opts.Layout(cfg.Triage.Enabled).EmulStart()
	ev := splitTieredEvents(buf.Events(), emulStart)
	if ev.emulCorpusAdds == 0 {
		t.Fatal("emulation tier admitted nothing — campaign too short to exercise confirmation")
	}
	// One verdict per emulation finding: every emulation corpus admission
	// and crash drained into exactly one TierConfirm or one emul-only
	// TierDiverge (hw-only-crash divergences are extra observations layered
	// on a coverage replay, not verdicts on an emulation claim).
	findings := ev.emulCorpusAdds + ev.emulBugs
	verdicts := ev.confirms + ev.emulOnlyDiv
	if verdicts != findings {
		t.Fatalf("confirmation not exhaustive: %d emulation findings (%d cov + %d crash) vs %d verdicts (%d confirm + %d diverge)",
			findings, ev.emulCorpusAdds, ev.emulBugs, verdicts, ev.confirms, ev.emulOnlyDiv)
	}
	if hw.Confirmed+hw.Diverged != ev.confirms+ev.emulOnlyDiv+ev.hwOnlyDiv {
		t.Fatalf("tier stats (%d confirmed, %d diverged) disagree with journal (%d + %d + %d)",
			hw.Confirmed, hw.Diverged, ev.confirms, ev.emulOnlyDiv, ev.hwOnlyDiv)
	}
	if len(rep.Divergences) != hw.Diverged {
		t.Fatalf("%d divergence records vs %d diverged count", len(rep.Divergences), hw.Diverged)
	}
	for _, d := range rep.Divergences {
		switch d.Kind {
		case "emul-only-cov", "emul-only-crash", "hw-only-crash":
		default:
			t.Fatalf("unknown divergence kind %q", d.Kind)
		}
		if d.Prog == "" || d.Shard < emulStart {
			t.Fatalf("divergence missing provenance: %+v", d)
		}
	}
	for _, b := range rep.Bugs {
		if b.Tier == backend.Emul.String() {
			t.Fatalf("unconfirmed emulation bug %q on the merged report", b.Sig)
		}
	}
	t.Logf("tiered: hw %d execs / emul %d execs, %d replays, %d confirmed, %d diverged",
		hw.Execs, em.Execs, hw.ConfirmReplays, hw.Confirmed, hw.Diverged)
}

// TestTieredFleetThroughput asserts the point of the emulation tier: at equal
// shard counts the explore tier completes far more test cases per board than
// the hardware pool does.
func TestTieredFleetThroughput(t *testing.T) {
	cfg := fleetConfig(t, "rtthread", 21)
	rep := runFleet(t, cfg, Options{Shards: 2, SyncEvery: 2 * time.Minute, EmulShards: 2}, 8*time.Minute)
	if len(rep.Tiers) != 2 {
		t.Fatalf("tier entries: %d", len(rep.Tiers))
	}
	hw, em := rep.Tiers[0], rep.Tiers[1]
	if em.Execs < 5*hw.Execs {
		t.Fatalf("emulation tier too slow: %d emul execs vs %d hw execs (want >= 5x at equal width)",
			em.Execs, hw.Execs)
	}
	if em.Edges == 0 {
		t.Fatal("emulation tier found no coverage")
	}
}

// TestTieredFleetDeterministic runs the same tiered campaign twice and
// requires identical journals and tier stats: the confirmation replays,
// round-robin cursor and barrier ordering are all deterministic.
func TestTieredFleetDeterministic(t *testing.T) {
	run := func() ([]trace.Event, *tieredRunStats) {
		cfg := fleetConfig(t, "freertos", 33)
		buf := trace.NewBuffer()
		cfg.TraceSink = buf
		f, err := New(cfg, Options{Shards: 2, SyncEvery: 2 * time.Minute, EmulShards: 3})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rep, err := f.Run(8 * time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return buf.Events(), &tieredRunStats{
			execs: rep.Stats.Execs, edges: rep.Edges,
			tiers: rep.Tiers, divergences: len(rep.Divergences),
		}
	}
	aEvs, a := run()
	bEvs, b := run()
	if len(aEvs) != len(bEvs) {
		t.Fatalf("journal lengths differ: %d vs %d", len(aEvs), len(bEvs))
	}
	for i := range aEvs {
		if aEvs[i] != bEvs[i] {
			t.Fatalf("journal diverges at %d:\n%+v\n%+v", i, aEvs[i], bEvs[i])
		}
	}
	if a.execs != b.execs || a.edges != b.edges || a.divergences != b.divergences {
		t.Fatalf("reports diverge: %+v vs %+v", a, b)
	}
	for i := range a.tiers {
		if !reflect.DeepEqual(a.tiers[i], b.tiers[i]) {
			t.Fatalf("tier %d stats diverge:\n%+v\n%+v", i, a.tiers[i], b.tiers[i])
		}
	}
}

type tieredRunStats struct {
	execs       int
	edges       int
	tiers       []core.TierStats
	divergences int
}

// TestTiersOffIsByteIdentical asserts the default-off promise of the
// backend refactor and the tier machinery: an untiered fleet campaign —
// whether it leaves Config.Backend nil or names backend.Hardware()
// explicitly — journals exactly as it did before backends and tiers
// existed: same events, no confirmation time, no tier stats.
func TestTiersOffIsByteIdentical(t *testing.T) {
	run := func(explicit bool) ([]trace.Event, *core.Report) {
		cfg := fleetConfig(t, "freertos", 42)
		if explicit {
			cfg.Backend = backend.Hardware()
		}
		buf := trace.NewBuffer()
		cfg.TraceSink = buf
		f, err := New(cfg, Options{Shards: 2, SyncEvery: 2 * time.Minute, EmulShards: 0})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rep, err := f.Run(8 * time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return buf.Events(), rep
	}
	nilEvs, nilRep := run(false)
	expEvs, expRep := run(true)
	if len(nilEvs) != len(expEvs) {
		t.Fatalf("explicit hardware backend changed the journal: %d vs %d events", len(nilEvs), len(expEvs))
	}
	for i := range nilEvs {
		if nilEvs[i] != expEvs[i] {
			t.Fatalf("journal diverges at %d:\n%+v\n%+v", i, nilEvs[i], expEvs[i])
		}
		switch nilEvs[i].Kind {
		case trace.TierConfirm, trace.TierDiverge:
			t.Fatalf("tier event in an untiered journal: %+v", nilEvs[i])
		}
	}
	if nilRep.Stats.Execs != expRep.Stats.Execs || nilRep.Edges != expRep.Edges {
		t.Fatalf("reports diverge: %d/%d execs, %d/%d edges",
			nilRep.Stats.Execs, expRep.Stats.Execs, nilRep.Edges, expRep.Edges)
	}
	for _, rep := range []*core.Report{nilRep, expRep} {
		if rep.Tiers != nil || rep.Divergences != nil {
			t.Fatalf("untiered report carries tier fields: %+v %+v", rep.Tiers, rep.Divergences)
		}
		if rep.Stats.ConfirmReplays != 0 || rep.TimeBy.Confirming != 0 {
			t.Fatalf("untiered report billed confirmation: %d replays, %v",
				rep.Stats.ConfirmReplays, rep.TimeBy.Confirming)
		}
	}
}

// TestEmulShardQuarantine kills one emulation shard, once at setup and once
// mid-run, and checks the tier's supervision: the shard is quarantined with
// no spare, its stream ends with the quarantine and flushes at its tier-slot
// position, the campaign finishes, and every emulation finding, the dying
// shard's last ones included, still draws exactly one hardware verdict.
func TestEmulShardQuarantine(t *testing.T) {
	// One hardware board, then emulation slots 0 and 1 at physical 1 and 2.
	const doomed = 1
	for _, tc := range []struct {
		dieAfterBoots int
		at            time.Duration
	}{{1, 0}, {3, 15 * time.Second}} {
		t.Run(fmt.Sprintf("die-after-%d-boots", tc.dieAfterBoots), func(t *testing.T) {
			cfg := fleetConfig(t, "freertos", 7)
			buf := trace.NewBuffer()
			cfg.TraceSink = buf
			// Short epochs keep the emulation work small under -race.
			f, err := New(cfg, Options{Shards: 1, SyncEvery: 15 * time.Second, EmulShards: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			f.Engines()[doomed].Board().SetDegrade(board.DegradeConfig{DieAfterBoots: tc.dieAfterBoots, Seed: 1})
			rep, err := f.Run(30 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Quarantines) != 1 {
				t.Fatalf("quarantines: %+v, want exactly one", rep.Quarantines)
			}
			q := rep.Quarantines[0]
			if q.Tier != "emul" || q.Slot != 0 || q.Board != doomed || q.Spare != -1 || q.Reason != "dead" || !q.Health.Dead {
				t.Fatalf("emulation quarantine record: %+v", q)
			}
			if q.At != tc.at {
				t.Fatalf("quarantined at %v, want %v", q.At, tc.at)
			}

			evs := buf.Events()
			qi := -1
			for i, ev := range evs {
				if ev.Kind != trace.Quarantine {
					continue
				}
				if qi >= 0 {
					t.Fatalf("second quarantine event: %+v", ev)
				}
				qi = i
			}
			if qi < 0 || evs[qi].Shard != doomed || evs[qi].Exec != 0 || evs[qi].Reason != "dead" {
				t.Fatalf("quarantine event missing or wrong")
			}
			// Only the closing time-budget records follow in its stream.
			for _, ev := range evs[qi+1:] {
				if ev.Shard == doomed && ev.Kind != trace.TimeBudget {
					t.Fatalf("%s event after the quarantine of shard %d", ev.Kind, doomed)
				}
			}
			// Its block flushes after the hardware tier and before emulation
			// slot 1.
			start := qi
			for start > 0 && evs[start-1].Shard == doomed {
				start--
			}
			if start == 0 || evs[start-1].Shard != 0 {
				t.Fatalf("dying shard's block does not follow the hardware tier (event %d)", start)
			}
			if qi+1 >= len(evs) || evs[qi+1].Shard != doomed+1 {
				t.Fatalf("dying shard's block is not followed by emulation slot 1")
			}

			ev := splitTieredEvents(evs, doomed)
			if ev.confirms+ev.emulOnlyDiv != ev.emulCorpusAdds+ev.emulBugs {
				t.Fatalf("confirmation not exhaustive: %d confirm + %d emul-only diverge vs %d corpus-add + %d bug",
					ev.confirms, ev.emulOnlyDiv, ev.emulCorpusAdds, ev.emulBugs)
			}
			dyingAdds := 0
			for _, e := range evs[:qi] {
				if e.Shard == doomed && e.Kind == trace.CorpusAdd {
					dyingAdds++
				}
			}
			if tc.at > 0 && dyingAdds == 0 {
				t.Fatal("the shard dying mid-run admitted nothing, so no last findings were confirmed")
			}
			t.Logf("%d emulation corpus-adds (%d from the dying shard), %d confirms, %d emul-only divergences",
				ev.emulCorpusAdds, dyingAdds, ev.confirms, ev.emulOnlyDiv)
		})
	}
}
