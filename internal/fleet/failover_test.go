package fleet

import (
	"errors"
	"testing"
	"time"

	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/core"
	"github.com/eof-fuzz/eof/internal/trace"
)

// TestFleetSurvivesBoardDeath is the resilience acceptance test: a 4-shard
// campaign where one board dies permanently partway through must complete,
// promote the hot spare into the vacated slot, report the quarantine in the
// merged report, and retain most of the healthy fleet's throughput.
func TestFleetSurvivesBoardDeath(t *testing.T) {
	total := 24 * time.Minute
	doomed := Options{
		Shards: 4, Spares: 1, SyncEvery: 2 * time.Minute,
		// Board 2 dies permanently on its fourth boot attempt — a few
		// restores into the campaign.
		Degrade: []board.DegradeConfig{2: {DieAfterBoots: 4}},
	}
	rep := runFleet(t, fleetConfig(t, "freertos", 11), doomed, total)

	if len(rep.Quarantines) != 1 {
		t.Fatalf("quarantines: %+v, want exactly one", rep.Quarantines)
	}
	q := rep.Quarantines[0]
	if q.Slot != 2 || q.Board != 2 || q.Reason != "dead" {
		t.Fatalf("quarantine record: %+v", q)
	}
	if q.Spare != 4 {
		t.Fatalf("spare board 4 not promoted: %+v", q)
	}
	if q.At <= 0 {
		t.Fatalf("board died at setup, not mid-campaign: %+v", q)
	}
	if !q.Health.Dead {
		t.Fatalf("quarantined board's health not dead: %+v", q.Health)
	}
	// All five boards were activated: four shards plus the promoted spare.
	if len(rep.BoardHealth) != 5 {
		t.Fatalf("BoardHealth has %d entries, want 5: %+v", len(rep.BoardHealth), rep.BoardHealth)
	}
	if !rep.BoardHealth[2].Dead || rep.BoardHealth[4].Dead {
		t.Fatalf("per-board health wrong: %+v", rep.BoardHealth)
	}
	if !rep.Health.Dead {
		t.Fatalf("merged health should surface the pool's sickest board: %+v", rep.Health)
	}

	// Throughput: the doomed fleet must retain at least 70% of the healthy
	// fleet's coverage rate — one board of four dying costs at most its
	// unmanned fraction of one epoch plus the spare's catch-up.
	healthy := runFleet(t, fleetConfig(t, "freertos", 11),
		Options{Shards: 4, Spares: 1, SyncEvery: 2 * time.Minute}, total)
	if len(healthy.Quarantines) != 0 {
		t.Fatalf("healthy fleet quarantined boards: %+v", healthy.Quarantines)
	}
	doomedRate := float64(rep.Edges) / rep.Duration.Seconds()
	healthyRate := float64(healthy.Edges) / healthy.Duration.Seconds()
	t.Logf("doomed: %d edges (%.2f/s), healthy: %d edges (%.2f/s), retained %.0f%%",
		rep.Edges, doomedRate, healthy.Edges, healthyRate, 100*doomedRate/healthyRate)
	if doomedRate < 0.7*healthyRate {
		t.Fatalf("doomed fleet retained only %.0f%% of healthy throughput (%.2f vs %.2f edges/s)",
			100*doomedRate/healthyRate, doomedRate, healthyRate)
	}
}

// TestFleetFailoverJournalDeterministic re-runs the death scenario twice and
// demands byte-identical journals: quarantine and promotion must happen at
// the same barrier with the same event stream for a fixed seed.
func TestFleetFailoverJournalDeterministic(t *testing.T) {
	run := func() []trace.Event {
		cfg := fleetConfig(t, "freertos", 11)
		buf := trace.NewBuffer()
		cfg.TraceSink = buf
		runFleet(t, cfg, Options{
			Shards: 4, Spares: 1, SyncEvery: 2 * time.Minute,
			Degrade: []board.DegradeConfig{2: {DieAfterBoots: 4}},
		}, 24*time.Minute)
		return buf.Events()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("failover journal empty")
	}
	if len(a) != len(b) {
		t.Fatalf("journal lengths differ across identical runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("journal event %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
	// The stream must carry the supervision story: the dead board's
	// quarantine (emitted on its own tracer) and the spare's promotion.
	var sawQuarantine, sawPromote bool
	for _, ev := range a {
		switch ev.Kind {
		case trace.Quarantine:
			if ev.Shard != 2 || ev.Exec != 2 || ev.Reason != "dead" {
				t.Fatalf("quarantine event: %+v", ev)
			}
			sawQuarantine = true
		case trace.SparePromote:
			if ev.Shard != 4 || ev.Exec != 2 {
				t.Fatalf("spare-promote event: %+v", ev)
			}
			sawPromote = true
		}
	}
	if !sawQuarantine || !sawPromote {
		t.Fatalf("journal missing supervision events: quarantine=%v promote=%v",
			sawQuarantine, sawPromote)
	}
}

// TestFleetQuarantineWithoutSpares: with an empty spare pool a dead board's
// slot goes unmanned, the quarantine records Spare -1, and the remaining
// shards finish the campaign.
func TestFleetQuarantineWithoutSpares(t *testing.T) {
	opts := Options{
		Shards: 3, SyncEvery: 2 * time.Minute,
		Degrade: []board.DegradeConfig{1: {DieAfterBoots: 4}},
	}
	f, err := New(fleetConfig(t, "freertos", 11), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := f.Run(12 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantines) != 1 {
		t.Fatalf("quarantines: %+v", rep.Quarantines)
	}
	q := rep.Quarantines[0]
	if q.Slot != 1 || q.Spare != -1 || q.Reason != "dead" {
		t.Fatalf("quarantine without spares: %+v", q)
	}
	if len(rep.BoardHealth) != 3 {
		t.Fatalf("BoardHealth entries: %d, want 3", len(rep.BoardHealth))
	}
	if rep.Stats.Execs == 0 || rep.Edges == 0 {
		t.Fatalf("surviving shards did not fuzz: %+v", rep.Stats)
	}
}

// TestFleetAllBoardsDeadFails: when every board (spares included) dies, Run
// must fail with core.ErrBoardDead instead of spinning on an empty pool.
func TestFleetAllBoardsDeadFails(t *testing.T) {
	cfg := fleetConfig(t, "freertos", 11)
	cfg.Degrade = board.DegradeConfig{DieAfterBoots: 1} // every board dies at setup
	f, err := New(cfg, Options{Shards: 2, Spares: 1, SyncEvery: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, err = f.Run(8 * time.Minute)
	if !errors.Is(err, core.ErrBoardDead) {
		t.Fatalf("all-dead fleet: %v", err)
	}
	// Every board earned a quarantine record; none could be replaced.
	if got := len(f.Quarantines()); got != 3 {
		t.Fatalf("quarantine records: %d, want 3", got)
	}
}

// TestFleetSickBoardRetiredForBootedSpare covers sick retirement: a board
// whose health score falls below the threshold, alive, is quarantined as
// "sick" only once a spare has booted, and that spare takes over its slot.
func TestFleetSickBoardRetiredForBootedSpare(t *testing.T) {
	cfg := fleetConfig(t, "rtthread", 7)
	cfg.Health.SickThreshold = 0.9
	cfg.Degrade = board.DegradeConfig{BootFailRate: 0.3, WearLimit: 20}
	buf := trace.NewBuffer()
	cfg.TraceSink = buf
	rep := runFleet(t, cfg, Options{Shards: 2, Spares: 2, SyncEvery: 2 * time.Minute}, 12*time.Minute)

	if len(rep.Quarantines) != 2 {
		t.Fatalf("quarantines: %+v, want one per slot", rep.Quarantines)
	}
	for i, q := range rep.Quarantines {
		if q.Slot != i || q.Board != i || q.Spare != 2+i || q.Reason != "sick" || q.Tier != "" {
			t.Fatalf("sick quarantine record %d: %+v", i, q)
		}
		if q.Health.Dead || q.Health.Score >= cfg.Health.SickThreshold {
			t.Fatalf("quarantined board %d is not sick but alive: %+v", q.Board, q.Health)
		}
	}
	// Each retired board's stream ends with its quarantine (before the
	// closing time budget), and the spare's promotion follows it.
	evs := buf.Events()
	for _, q := range rep.Quarantines {
		last, promoted := -1, -1
		for i, ev := range evs {
			switch {
			case ev.Shard == q.Board && ev.Kind != trace.TimeBudget:
				last = i
			case ev.Shard == q.Spare && ev.Kind == trace.SparePromote:
				promoted = i
			}
		}
		if last < 0 || evs[last].Kind != trace.Quarantine || evs[last].Reason != "sick" || evs[last].Exec != q.Slot {
			t.Fatalf("board %d's stream does not end with its sick quarantine", q.Board)
		}
		if promoted < last || evs[promoted].Exec != q.Slot {
			t.Fatalf("spare %d not promoted into slot %d after the quarantine", q.Spare, q.Slot)
		}
	}
}

// TestFleetSickBoardKeepsSlotWhenSpareIsDead: a sick but working board is
// not retired for a spare that dies on arrival. The spare earns its own
// "dead" record and the sick board keeps fuzzing in its slot, so the pool
// never runs a slot empty and a tiered pool keeps a board to confirm on.
func TestFleetSickBoardKeepsSlotWhenSpareIsDead(t *testing.T) {
	sick := board.DegradeConfig{BootFailRate: 0.3}
	doa := board.DegradeConfig{DieAfterBoots: 1}
	for _, tc := range []struct {
		name  string
		opts  Options
		spare int
	}{
		{"pool", Options{Shards: 2, Spares: 1, SyncEvery: 2 * time.Minute,
			Degrade: []board.DegradeConfig{sick, sick, doa}}, 2},
		// Short epochs keep the emulation work small under -race.
		{"tiered", Options{Shards: 1, Spares: 1, EmulShards: 1, SyncEvery: 15 * time.Second,
			Degrade: []board.DegradeConfig{sick, doa}}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fleetConfig(t, "rtthread", 7)
			cfg.Health.SickThreshold = 0.99
			buf := trace.NewBuffer()
			cfg.TraceSink = buf
			budget := 2 * time.Duration(tc.opts.Shards) * tc.opts.SyncEvery
			rep := runFleet(t, cfg, tc.opts, budget)

			if len(rep.Quarantines) != 1 {
				t.Fatalf("quarantines: %+v, want only the dead spare's", rep.Quarantines)
			}
			q := rep.Quarantines[0]
			if q.Slot != 0 || q.Board != tc.spare || q.Spare != -1 || q.Reason != "dead" || !q.Health.Dead {
				t.Fatalf("dead spare's record: %+v", q)
			}
			// Slot 0's board stays manned: it journals every barrier.
			epochs := 0
			for _, ev := range buf.Events() {
				if ev.Shard == 0 && ev.Kind == trace.SyncEpoch {
					epochs++
				}
			}
			if want := 2; epochs != want {
				t.Fatalf("slot 0's board journaled %d epochs, want %d", epochs, want)
			}
		})
	}
}
