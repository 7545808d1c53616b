// Command eoftrace mines the deterministic JSONL campaign journals written
// by `eof -trace`. It answers the questions a finished journal can answer
// without re-running the campaign:
//
//	eoftrace summary [-csv] <journal>     totals, rates and the board-time
//	                                      budget (cross-checked against the
//	                                      report invariant)
//	eoftrace cov [-csv] <journal>         time-to-coverage series + longest
//	                                      coverage plateau
//	eoftrace bottleneck [-csv] <journal>  top time sinks per shard/tier
//	eoftrace divergence [-csv] <journal>  tier-confirm / tier-diverge timeline
//
// -csv emits machine-readable output for EXPERIMENTS plots. eoftrace refuses
// journals with an unknown schema version and warns when the header record
// is missing (pre-versioning journals).
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"

	"github.com/eof-fuzz/eof/internal/journal"
	"github.com/eof-fuzz/eof/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet("eoftrace "+cmd, flag.ExitOnError)
	csvOut := fs.Bool("csv", false, "emit CSV instead of text")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	if fs.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	j, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "eoftrace:", err)
		os.Exit(1)
	}
	switch cmd {
	case "summary":
		summary(j, *csvOut)
	case "cov":
		cov(j, *csvOut)
	case "bottleneck":
		bottleneck(j, *csvOut)
	case "divergence":
		divergence(j, *csvOut)
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: eoftrace {summary|cov|bottleneck|divergence} [-csv] <journal.jsonl>")
}

func load(path string) (*journal.Journal, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	j, err := journal.Read(f)
	if err != nil {
		return nil, err
	}
	if j.TornTail != "" {
		fmt.Fprintf(os.Stderr, "eoftrace: warning: %s — campaign likely killed mid-write\n", j.TornTail)
	}
	if !j.HasHeader {
		fmt.Fprintln(os.Stderr, "eoftrace: warning: journal has no header record (pre-versioning journal); tier attribution unavailable")
	}
	return j, nil
}

func summary(j *journal.Journal, csvOut bool) {
	s := journal.Summarize(j)
	if csvOut {
		w := csv.NewWriter(os.Stdout)
		defer w.Flush()
		_ = w.Write([]string{"metric", "value"})
		row := func(k string, v interface{}) { _ = w.Write([]string{k, fmt.Sprint(v)}) }
		row("events", s.Events)
		row("shards", s.Shards)
		row("execs", s.Execs)
		row("hw_execs", s.HWExecs)
		row("emul_execs", s.EmExecs)
		row("execs_per_sec", strconv.FormatFloat(s.ExecsPerSec(), 'f', 3, 64))
		row("edges", s.Edges)
		row("emul_edges", s.EmEdges)
		row("restores", s.Restores)
		row("reflashes", s.Reflashes)
		row("bugs", s.Bugs)
		row("triaged", s.Triaged)
		row("link_retries", s.LinkRetries)
		row("link_reconnects", s.LinkReconnects)
		row("quarantines", s.Quarantines)
		row("checkpoints", s.Checkpoints)
		row("durable_edges", s.DurableEdges)
		row("distills", s.Distills)
		row("distill_dropped", s.DistillDropped)
		row("duration_s", strconv.FormatFloat(s.Duration.Seconds(), 'f', 3, 64))
		for _, c := range trace.Categories() {
			row("time_"+c.String()+"_s", strconv.FormatFloat(s.TimeBy.Of(c).Seconds(), 'f', 3, 64))
		}
		return
	}
	if j.HasHeader {
		h := j.Header
		fmt.Printf("campaign: os=%s board=%s seed=%d shards=%d", h.OS, h.Board, h.Seed, h.Shards)
		if h.Spares > 0 {
			fmt.Printf(" spares=%d", h.Spares)
		}
		if h.Triage {
			fmt.Printf(" triage=on")
		}
		if h.EmulShards > 0 {
			fmt.Printf(" emul-shards=%d", h.EmulShards)
		}
		fmt.Printf(" (journal v%d, digest %s)\n", h.V, h.Digest)
	}
	fmt.Printf("events: %d across %d shard streams\n", s.Events, s.Shards)
	if s.EmExecs > 0 {
		fmt.Printf("execs: %d (hw %d @ %.1f/s, emul %d)\n", s.Execs, s.HWExecs, s.ExecsPerSec(), s.EmExecs)
		fmt.Printf("edges: %d hw (at last sync barrier), %d emul\n", s.Edges, s.EmEdges)
	} else {
		fmt.Printf("execs: %d (%.1f/s)\n", s.Execs, s.ExecsPerSec())
		fmt.Printf("edges: %d\n", s.Edges)
	}
	rate := 0.0
	if s.Execs > 0 {
		rate = 100 * float64(s.Restores) / float64(s.Execs)
	}
	fmt.Printf("restores: %d (%.1f%%/exec), %d reflashes\n", s.Restores, rate, s.Reflashes)
	if len(s.ByReason) > 0 {
		reasons := make([]string, 0, len(s.ByReason))
		for r := range s.ByReason {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		fmt.Printf("  by reason:")
		for _, r := range reasons {
			fmt.Printf(" %s=%d", r, s.ByReason[r])
		}
		fmt.Println()
	}
	fmt.Printf("bugs: %d (%d triaged)  link: %d retries, %d reconnects  quarantines: %d\n",
		s.Bugs, s.Triaged, s.LinkRetries, s.LinkReconnects, s.Quarantines)
	if s.Checkpoints > 0 || s.Distills > 0 {
		fmt.Printf("persistence: %d checkpoints (%d edges durable), %d distills (%d entries dropped)\n",
			s.Checkpoints, s.DurableEdges, s.Distills, s.DistillDropped)
	}
	if len(s.Budgets) == 0 {
		fmt.Printf("time budget: not recorded (journal predates time-budget records); virtual end %v\n", s.VirtualEnd.Round(time.Millisecond))
		return
	}
	fmt.Printf("time budget (%d shards x %v): %s\n", len(s.Budgets), s.Duration.Round(time.Millisecond), s.TimeBy.String())
	if s.TimeBy.Restoring > 0 {
		fmt.Printf("  restoring split: delta=%v full=%v\n",
			s.TimeBy.RestoringDelta.Round(time.Millisecond), s.TimeBy.RestoringFull.Round(time.Millisecond))
	}
	bad := 0
	for _, b := range s.Budgets {
		if b.Drift != 0 {
			bad++
			fmt.Printf("  shard %d: buckets sum to %v but duration is %v (drift %v) — INVARIANT VIOLATED\n",
				b.Shard, b.TimeBy.Sum(), b.Duration, b.Drift)
		}
	}
	if bad == 0 {
		fmt.Println("  invariant: OK (every shard's buckets sum to its accounted duration exactly)")
	}
}

func cov(j *journal.Journal, csvOut bool) {
	pts, plateau := journal.Cov(j)
	if csvOut {
		w := csv.NewWriter(os.Stdout)
		defer w.Flush()
		_ = w.Write([]string{"at_s", "edges"})
		for _, p := range pts {
			_ = w.Write([]string{
				strconv.FormatFloat(p.At.Seconds(), 'f', 3, 64),
				strconv.Itoa(p.Edges),
			})
		}
		return
	}
	if len(pts) == 0 {
		fmt.Println("no coverage gain recorded")
		fmt.Printf("longest plateau: %v (t=%v..%v)\n", plateau.Dur().Round(time.Millisecond),
			plateau.Start.Round(time.Millisecond), plateau.End.Round(time.Millisecond))
		return
	}
	fmt.Printf("coverage: %d gains, %d edges by t=%v\n", len(pts), pts[len(pts)-1].Edges, pts[len(pts)-1].At.Round(time.Millisecond))
	// A handful of milestones beats a thousand rows in text mode.
	final := pts[len(pts)-1].Edges
	for _, pct := range []int{25, 50, 75, 90, 100} {
		goal := final * pct / 100
		for _, p := range pts {
			if p.Edges >= goal {
				fmt.Printf("  %3d%% of final coverage (%d edges) at t=%v\n", pct, goal, p.At.Round(time.Millisecond))
				break
			}
		}
	}
	fmt.Printf("longest plateau: %v with zero coverage gain (t=%v..%v)\n",
		plateau.Dur().Round(time.Millisecond), plateau.Start.Round(time.Millisecond), plateau.End.Round(time.Millisecond))
}

func bottleneck(j *journal.Journal, csvOut bool) {
	sinks := journal.Bottlenecks(j)
	if csvOut {
		w := csv.NewWriter(os.Stdout)
		defer w.Flush()
		_ = w.Write([]string{"shard", "tier", "category", "seconds", "share"})
		for _, s := range sinks {
			_ = w.Write([]string{
				strconv.Itoa(s.Shard), s.Tier, s.Category,
				strconv.FormatFloat(s.Dur.Seconds(), 'f', 3, 64),
				strconv.FormatFloat(s.Share, 'f', 4, 64),
			})
		}
		return
	}
	if len(sinks) == 0 {
		fmt.Println("no time sinks recorded")
		return
	}
	last := -1
	for _, s := range sinks {
		if s.Shard != last {
			last = s.Shard
			if s.Tier != "" {
				fmt.Printf("shard %d (%s):\n", s.Shard, s.Tier)
			} else {
				fmt.Printf("shard %d:\n", s.Shard)
			}
		}
		fmt.Printf("  %-14s %12v  %5.1f%%\n", s.Category, s.Dur.Round(time.Millisecond), 100*s.Share)
	}
}

func divergence(j *journal.Journal, csvOut bool) {
	vs := journal.Divergences(j)
	if csvOut {
		w := csv.NewWriter(os.Stdout)
		defer w.Flush()
		_ = w.Write([]string{"at_s", "hw_shard", "emul_shard", "verdict", "reason", "edges"})
		for _, v := range vs {
			verdict := "diverge"
			if v.Confirmed {
				verdict = "confirm"
			}
			_ = w.Write([]string{
				strconv.FormatFloat(v.At.Seconds(), 'f', 3, 64),
				strconv.Itoa(v.HWShard), strconv.Itoa(v.EmulShard),
				verdict, v.Reason, strconv.Itoa(v.Edges),
			})
		}
		return
	}
	if len(vs) == 0 {
		fmt.Println("no cross-tier verdicts recorded (untiered campaign?)")
		return
	}
	confirmed := 0
	for _, v := range vs {
		if v.Confirmed {
			confirmed++
		}
	}
	fmt.Printf("verdicts: %d (%d confirmed, %d diverged)\n", len(vs), confirmed, len(vs)-confirmed)
	for _, v := range vs {
		verdict := "DIVERGE"
		if v.Confirmed {
			verdict = "confirm"
		}
		extra := ""
		if v.Edges > 0 {
			extra = fmt.Sprintf(" edges=%d", v.Edges)
		}
		fmt.Printf("  t=%-12v %s %-22s emul-shard=%d hw-shard=%d%s\n",
			v.At.Round(time.Millisecond), verdict, v.Reason, v.EmulShard, v.HWShard, extra)
	}
}
