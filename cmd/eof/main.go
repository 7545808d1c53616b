// Command eof runs one fuzzing campaign against a virtual embedded target
// and prints the findings.
//
// Usage:
//
//	eof -os rtthread -board esp32c3 -minutes 30 -seed 7
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/eof-fuzz/eof"
)

func main() {
	var (
		osName    = flag.String("os", "freertos", "target OS: "+strings.Join(eof.Targets(), ", "))
		board     = flag.String("board", "stm32h745", "board: "+strings.Join(eof.Boards(), ", "))
		minutes   = flag.Float64("minutes", 30, "campaign length in virtual minutes")
		seed      = flag.Int64("seed", 1, "deterministic campaign seed")
		nf        = flag.Bool("nf", false, "disable feedback guidance (EOF-nf)")
		random    = flag.Bool("random-args", false, "disable API-aware generation")
		apis      = flag.String("apis", "", "comma-separated API allowlist (application-level mode)")
		modules   = flag.String("modules", "", "comma-separated source prefixes to instrument")
		shards    = flag.Int("shards", 1, "board-pool size: shard the campaign across N boards with shared feedback")
		spares    = flag.Int("spares", 0, "hot-spare boards held in reserve for fleet failover (needs -shards > 1)")
		syncMin   = flag.Float64("sync-minutes", 0, "epoch-barrier interval in virtual minutes: fleet feedback exchange and -corpus checkpoints (0 = default 10)")
		tiers     = flag.Bool("tiers", false, "tiered execution: an emulation tier explores and the hardware pool confirms its findings at sync barriers")
		emulWidth = flag.Int("emul-shards", 0, "emulation explore-tier width (0 = default 4, needs -tiers)")
		legacy    = flag.Bool("legacy-link", false, "disable vectored debug-link commands (older probe firmware)")
		snapshots = flag.Bool("snapshots", false, "cache golden snapshots probe-side and restore by shipping only dirty state")
		snapAt    = flag.String("snapshot-states", "", "kernel states to (re-)snapshot at: comma-separated subset of post-boot,post-init (empty = both)")
		faults    = flag.Float64("link-faults", 0, "per-command debug-link fault rate (flaky-adapter model, e.g. 0.05)")
		retries   = flag.Int("link-retries", 0, "max transparent retries per faulted command (0 = default 4, negative disables)")
		corpusDir = flag.String("corpus", "", "persist the corpus and epoch checkpoints into this directory (crash-safe store)")
		resumeDir = flag.String("resume", "", "resume a persisted campaign from this corpus directory (implies -corpus)")
		distillN  = flag.Int("distill-every", 0, "distill the on-disk corpus to a minimal covering set every N checkpoints (0 = never)")
		traceOut  = flag.String("trace", "", "write the structured trace journal to this file as JSON Lines")
		statusDur = flag.Duration("status-every", 0, "print a live progress line at this host interval (e.g. 10s)")
		metrics   = flag.String("metrics-addr", "", "serve /metrics, /status and /debug/pprof/ on this address while the campaign runs (e.g. :9100)")
		hold      = flag.Duration("metrics-hold", 0, "keep the telemetry server up this long after the campaign finishes (for a final scrape)")
		verbose   = flag.Bool("v", false, "print crash logs and reproducers")

		doTriage  = flag.Bool("triage", false, "triage findings: replay on restored state, classify reproducibility, minimize")
		triageN   = flag.Int("triage-replays", 0, "confirmation replays per finding (0 = default 3)")
		reproOut  = flag.String("repro-out", "", "write one portable repro file per triaged finding into this directory")
		replayArg = flag.String("replay", "", "standalone mode: confirm the given repro file on a fresh board and exit")

		submitURL = flag.String("submit", "", "client mode: submit this campaign to the eofd daemon at the given base URL instead of running locally")
		tenant    = flag.String("tenant", "default", "tenant name for -submit (fair-share accounting identity)")
		priority  = flag.Int("priority", 1, "tenant fair-share weight for -submit")
		waitJob   = flag.Bool("wait", false, "with -submit, wait for the job to finish and print its final status")

		healthResets  = flag.Int("health-reset-attempts", 0, "recovery-ladder reset-rung attempts (0 = default 1)")
		healthReflash = flag.Int("health-reflash-attempts", 0, "recovery-ladder reflash-rung attempts (0 = default 1)")
		healthCycles  = flag.Int("health-cycle-attempts", 0, "recovery-ladder power-cycle-rung attempts (0 = default 2)")
		healthResumes = flag.Int("health-resumes", 0, "max post-boot resumes before the ladder escalates (0 = default 32)")
		healthDecay   = flag.Float64("health-decay", 0, "EWMA weight of the newest restore outcome (0 = default 0.25)")
		healthSick    = flag.Float64("health-sick", 0, "health score below which a fleet board is quarantined (0 = default 0.3)")

		boardWear     = flag.Int("board-wear", 0, "flash sector erase-cycle wear limit (0 = no wear)")
		boardBootfail = flag.Float64("board-bootfail", 0, "per-boot transient failure probability")
		boardDeath    = flag.Float64("board-death", 0, "per-boot permanent death probability")
		boardDieAfter = flag.Int("board-die-after", 0, "kill the board on its Nth boot attempt (0 = never)")
	)
	flag.Parse()

	if *replayArg != "" {
		os.Exit(replayMain(*replayArg, *triageN))
	}

	opts := eof.Options{
		OS:               *osName,
		Board:            *board,
		Seed:             *seed,
		FeedbackDisabled: *nf,
		APIAwareDisabled: *random,
		Shards:           *shards,
		Spares:           *spares,
		SyncEvery:        time.Duration(*syncMin * float64(time.Minute)),
		Tiers:            *tiers,
		EmulShards:       *emulWidth,
		LegacyLink:       *legacy,
		Snapshots:        *snapshots,
		SnapshotStates:   *snapAt,
		LinkFaultRate:    *faults,
		LinkRetries:      *retries,
		Triage:           *doTriage,
		TriageReplays:    *triageN,
		StatusEvery:      *statusDur,
		MetricsAddr:      *metrics,
		Health: eof.HealthOptions{
			ResetAttempts:      *healthResets,
			ReflashAttempts:    *healthReflash,
			PowerCycleAttempts: *healthCycles,
			MaxResumes:         *healthResumes,
			Decay:              *healthDecay,
			SickThreshold:      *healthSick,
		},
		Degrade: eof.DegradeOptions{
			WearLimit:     *boardWear,
			BootFailRate:  *boardBootfail,
			DeathRate:     *boardDeath,
			DieAfterBoots: *boardDieAfter,
		},
	}
	opts.CorpusDir = *corpusDir
	opts.DistillEvery = *distillN
	if *resumeDir != "" {
		if *corpusDir != "" && *corpusDir != *resumeDir {
			fmt.Fprintln(os.Stderr, "eof: -corpus and -resume name different directories")
			os.Exit(1)
		}
		opts.CorpusDir = *resumeDir
		opts.Resume = true
	}
	if *apis != "" {
		opts.RestrictAPIs = strings.Split(*apis, ",")
	}
	if *modules != "" {
		opts.InstrumentModules = strings.Split(*modules, ",")
	}
	if *submitURL != "" {
		os.Exit(submitMain(*submitURL, *tenant, *priority, *minutes, opts, *waitJob))
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "eof:", err)
			os.Exit(1)
		}
		bw := bufio.NewWriter(f)
		defer func() {
			bw.Flush()
			f.Close()
		}()
		opts.TraceJSONL = bw
	}

	c, err := eof.NewCampaign(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eof:", err)
		os.Exit(1)
	}
	defer c.Close()

	// Graceful shutdown: the first SIGINT/SIGTERM drains the campaign at the
	// next epoch barrier (final checkpoint included when -corpus is set) and
	// the report below covers the completed portion; a second signal aborts
	// immediately.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "eof: signal received, draining at the next barrier (signal again to abort)")
		c.RequestStop()
		<-sigs
		fmt.Fprintln(os.Stderr, "eof: second signal, aborting")
		os.Exit(130)
	}()

	if addr := c.MetricsAddr(); addr != "" {
		fmt.Printf("telemetry: http://%s/metrics (/status, /debug/pprof/)\n", addr)
	}
	budget := time.Duration(*minutes * float64(time.Minute))
	if lay := opts.Layout(); lay.EmulShards > 0 {
		fmt.Printf("fuzzing %s on %d %s boards + %d emulated explore shards for %v of total board time (seed %d)\n",
			*osName, lay.Shards, *board, lay.EmulShards, budget, *seed)
	} else if lay.Shards > 1 {
		fmt.Printf("fuzzing %s on a pool of %d %s boards for %v of total board time (seed %d)\n",
			*osName, lay.Shards, *board, budget, *seed)
	} else {
		fmt.Printf("fuzzing %s on %s for %v of virtual time (seed %d)\n", *osName, *board, budget, *seed)
	}
	rep, err := c.Run(budget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eof:", err)
		os.Exit(1)
	}
	defer func() {
		if *hold > 0 && c.MetricsAddr() != "" {
			// The live fold has seen every event and its edge total is
			// pinned to the report, so a scraper has this window to collect
			// the end state.
			fmt.Printf("holding telemetry server at %s for %v\n", c.MetricsAddr(), *hold)
			time.Sleep(*hold)
		}
	}()

	fmt.Printf("\nexecs: %d   branches: %d   crashes: %d   restores: %d (reflashes: %d)\n",
		rep.Execs, rep.Edges, rep.Crashes, rep.Restores, rep.Reflashes)
	if rep.Duration > 0 {
		fmt.Printf("throughput: %.2f execs/s of target time\n", float64(rep.Execs)/rep.Duration.Seconds())
	}
	if len(rep.RestoresByReason) > 0 {
		reasons := make([]string, 0, len(rep.RestoresByReason))
		for r := range rep.RestoresByReason {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		parts := make([]string, 0, len(reasons))
		for _, r := range reasons {
			parts = append(parts, fmt.Sprintf("%s=%d", r, rep.RestoresByReason[r]))
		}
		fmt.Printf("restores by reason: %s\n", strings.Join(parts, " "))
	}
	if rep.SnapshotTakes > 0 && rep.Restores > 0 {
		fmt.Printf("snapshot restores: %d delta / %d full (%d snapshots taken), %s shipped, %s proven clean\n",
			rep.DeltaRestores, rep.FullRestores, rep.SnapshotTakes,
			fmtBytes(rep.RestoreBytesShipped), fmtBytes(rep.RestoreBytesSkipped))
	}
	if p := rep.Persist; p != nil {
		line := fmt.Sprintf("corpus store: %d entries (%d new) in %s, %d checkpoints",
			p.Entries, p.Admitted, p.Dir, p.Checkpoints)
		if p.Distills > 0 {
			line += fmt.Sprintf(", %d distillations dropped %d entries", p.Distills, p.Dropped)
		}
		fmt.Println(line)
		if p.Resumed {
			fmt.Printf("resumed: %d seeds re-imported, %d prior epochs (%v of prior campaign time)\n",
				p.ResumedSeeds, p.PriorEpochs, p.PriorElapsed.Round(time.Second))
		}
		for _, w := range p.Warnings {
			fmt.Printf("store warning: %s\n", w)
		}
	}
	fmt.Printf("board time: %s\n", rep.TimeBy)
	if rep.Execs > 0 {
		fmt.Printf("debug link: %d round trips (%.2f per exec)\n",
			rep.LinkRoundTrips, float64(rep.LinkRoundTrips)/float64(rep.Execs))
	}
	if rep.LinkRetries > 0 || rep.LinkReconnects > 0 {
		fmt.Printf("link faults absorbed: %d retries, %d reconnects\n",
			rep.LinkRetries, rep.LinkReconnects)
	}
	if rep.RungEscalations > 0 || rep.PowerCycles > 0 || rep.Health.Dead {
		state := "ok"
		if rep.Health.Dead {
			state = "DEAD"
		}
		fmt.Printf("board health: score %.2f (%s), %d ladder escalations, %d power cycles\n",
			rep.Health.Score, state, rep.RungEscalations, rep.PowerCycles)
	}
	for _, q := range rep.Quarantines {
		repl := "no spare left, slot unmanned"
		if q.Spare >= 0 {
			repl = fmt.Sprintf("spare board %d promoted", q.Spare)
		} else if q.Tier == "emul" {
			repl = "emulation shard, not replaced"
		}
		fmt.Printf("quarantine: board %d (slot %d) retired %s at %v — %s\n",
			q.Board, q.Slot, q.Reason, q.At.Round(time.Second), repl)
	}
	for _, tr := range rep.Tiers {
		line := fmt.Sprintf("tier %s: %d boards, %d execs, %d edges", tr.Class, tr.Boards, tr.Execs, tr.Edges)
		if tr.Class == "emul" {
			line += " (provisional until confirmed)"
		} else if tr.ConfirmReplays > 0 {
			line += fmt.Sprintf(" — %d confirmation replays: %d confirmed, %d diverged",
				tr.ConfirmReplays, tr.Confirmed, tr.Diverged)
		}
		fmt.Println(line)
	}
	if len(rep.Divergences) > 0 {
		fmt.Printf("cross-tier divergences: %d\n", len(rep.Divergences))
		shown := len(rep.Divergences)
		if !*verbose && shown > 8 {
			shown = 8
		}
		for _, d := range rep.Divergences[:shown] {
			detail := ""
			switch {
			case d.Cluster != "":
				detail = " " + d.Cluster
			case d.Edges > 0:
				detail = fmt.Sprintf(" %d unconfirmed edges", d.Edges)
			}
			fmt.Printf("  %s%s (emul shard %d, at %v)\n", d.Kind, detail, d.Shard, d.At.Round(time.Second))
		}
		if shown < len(rep.Divergences) {
			fmt.Printf("  ... %d more (run with -v to list all)\n", len(rep.Divergences)-shown)
		}
	}
	if rep.DegradedMonitors > 0 {
		fmt.Printf("warning: %d exception symbols unarmed (out of breakpoint comparators)\n", rep.DegradedMonitors)
	}
	if rep.TriagedBugs > 0 {
		fmt.Printf("triage: %d findings confirmed in %d replays\n", rep.TriagedBugs, rep.TriageReplays)
	}
	if len(rep.Bugs) == 0 {
		fmt.Println("\nno bugs found in this window")
		return
	}
	fmt.Printf("\n%d distinct bugs:\n", len(rep.Bugs))
	for i, b := range rep.Bugs {
		fmt.Printf("%2d. [%s/%s] %s (found at %v)\n", i+1, b.Monitor, b.Kind, b.Title, b.FoundAt.Round(time.Second))
		if b.Reproducibility != "" {
			fmt.Printf("      triage: %s (%d/%d replays), minimized %d -> %d calls\n",
				b.Reproducibility, b.ReplayHits, b.Replays, b.OrigCalls, b.MinCalls)
		}
		if *verbose {
			for j, fr := range b.Backtrace {
				fmt.Printf("      Level: %d: %s\n", j+1, fr)
			}
			if b.Reproducer != "" {
				fmt.Printf("      reproducer:\n")
				for _, line := range strings.Split(strings.TrimSpace(b.Reproducer), "\n") {
					fmt.Printf("        %s\n", line)
				}
			}
			if len(b.Trace) > 0 {
				fmt.Printf("      flight recorder (last %d events):\n", len(b.Trace))
				for _, ev := range b.Trace {
					line := fmt.Sprintf("t=%v shard=%d %s", ev.At.Round(time.Millisecond), ev.Shard, ev.Kind)
					if ev.Reason != "" {
						line += " " + ev.Reason
					}
					fmt.Printf("        %s\n", line)
				}
			}
		}
	}
	if *reproOut != "" {
		if err := writeRepros(*reproOut, rep.Bugs); err != nil {
			fmt.Fprintln(os.Stderr, "eof:", err)
			os.Exit(1)
		}
	}
}

// writeRepros saves every triaged finding's portable repro file into dir,
// named deterministically after its cluster.
func writeRepros(dir string, bugs []eof.Bug) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	written := 0
	for i := range bugs {
		b := &bugs[i]
		if b.ReproJSON == "" {
			continue
		}
		data, err := b.ReproFile()
		if err != nil {
			return err
		}
		path := filepath.Join(dir, sanitize(b.Cluster)+".repro.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("repro written: %s\n", path)
		written++
	}
	if written == 0 {
		fmt.Println("no triaged findings to write (did the campaign run with -triage?)")
	}
	return nil
}

// fmtBytes renders a byte count with a binary unit suffix.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

// sanitize maps a cluster key onto a filesystem-safe slug.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-' || r == '_' || r == '.':
			return r
		default:
			return '-'
		}
	}, s)
}

// replayMain is the standalone confirmation mode: load a repro file, build a
// fresh board for its recorded target and replay. Exit 0 only when the crash
// reproduces.
func replayMain(path string, replays int) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eof:", err)
		return 1
	}
	res, err := eof.ReplayRepro(data, replays)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eof:", err)
		return 1
	}
	title := res.Title
	if title == "" {
		title = res.Signature
	}
	fmt.Printf("replaying %s on a fresh %s/%s board: %d/%d runs reproduced %s\n",
		title, res.OS, res.Board, res.Hits, res.Replays, res.Cluster)
	if !res.Confirmed {
		fmt.Println("NOT CONFIRMED")
		return 2
	}
	fmt.Println("confirmed")
	return 0
}
