package eof

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"github.com/eof-fuzz/eof/internal/journal"
	"github.com/eof-fuzz/eof/internal/metrics"
	"github.com/eof-fuzz/eof/internal/trace"
)

// TestOneFoldMatchesReport checks the fold rules against the Report across
// campaign shapes. The fold of the replayed journal must equal the Report on
// every counter the journal carries, and on the edge total wherever the
// journal sees every coverage source. After Run, /metrics and /status (the
// live fold, with only its edge total pinned) must equal the Report.
func TestOneFoldMatchesReport(t *testing.T) {
	configs := []struct {
		name   string
		opts   Options
		budget time.Duration
		// exactEdges is false where the journal misses coverage the Report
		// counts: a snapshot campaign's post-init drain ingests boot edges
		// with no cov-gain record, and a tiered pool journals its hardware
		// sync-epoch before that barrier's confirmation replays.
		exactEdges bool
	}{
		{"solo-freertos", Options{OS: "freertos"}, 8 * time.Minute, true},
		{"solo-rtthread-snapshots", Options{OS: "rtthread", Snapshots: true}, 8 * time.Minute, false},
		{"2-shards-triage", Options{OS: "freertos", Shards: 2, Triage: true}, 8 * time.Minute, true},
		// The emulated shard runs a thousand execs a minute, and hardware
		// replays each one it queues, so one minute covers confirmations,
		// divergences and bugs.
		{"tiered-1hw-1emul", Options{OS: "freertos", Shards: 1, Tiers: true, EmulShards: 1}, time.Minute, false},
		{"2-shards-link-faults", Options{OS: "freertos", Shards: 2, LinkFaultRate: 0.02}, 8 * time.Minute, true},
		// Long enough for seed 1 to lose a board and promote the spare.
		{"2-shards-spare-deaths", Options{OS: "freertos", Shards: 2, Spares: 1, Degrade: DegradeOptions{DeathRate: 0.05}}, 16 * time.Minute, true},
	}
	for _, cfg := range configs {
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed%d", cfg.name, seed), func(t *testing.T) {
				opts := cfg.opts
				opts.Seed = seed
				opts.SyncEvery = 30 * time.Second
				opts.MetricsAddr = "127.0.0.1:0"
				var buf bytes.Buffer
				opts.TraceJSONL = &buf
				c, err := NewCampaign(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				rep, err := c.Run(cfg.budget)
				if err != nil {
					t.Fatal(err)
				}
				j, err := journal.Read(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				checkJournalFold(t, journal.Summarize(j), rep, cfg.exactEdges)
				checkLiveFold(t, c.MetricsAddr(), rep)
			})
		}
	}
}

// tierExecs returns the Report's executions per tier class; an untiered
// campaign runs every exec on hardware.
func tierExecs(rep *Report) map[string]int {
	if len(rep.Tiers) == 0 {
		return map[string]int{"hw": rep.Execs}
	}
	out := map[string]int{}
	for _, tr := range rep.Tiers {
		out[tr.Class] = tr.Execs
	}
	return out
}

func checkJournalFold(t *testing.T, f *trace.Fold, rep *Report, exactEdges bool) {
	t.Helper()
	check := func(what string, got, want any) {
		t.Helper()
		if got != want {
			t.Errorf("journal fold %s = %v, report %v", what, got, want)
		}
	}
	check("execs", f.Execs, rep.Execs)
	tiers := tierExecs(rep)
	check("hw execs", f.HWExecs, tiers["hw"])
	check("emul execs", f.EmExecs, tiers["emul"])
	check("restores", f.Restores, rep.Restores)
	check("restore reasons", len(f.ByReason), len(rep.RestoresByReason))
	for reason, n := range rep.RestoresByReason {
		check("restores["+reason+"]", f.ByReason[reason], n)
	}
	check("delta restores", f.DeltaRestores, rep.DeltaRestores)
	check("full restores", f.FullRestores(), rep.FullRestores)
	check("reflashes", f.Reflashes, rep.Reflashes)
	check("link retries", int64(f.LinkRetries), rep.LinkRetries)
	check("link reconnects", int64(f.LinkReconnects), rep.LinkReconnects)
	check("quarantines", f.Quarantines, len(rep.Quarantines))
	check("bugs", f.Bugs, len(rep.Bugs))
	check("time by", f.TimeBy, rep.TimeBy)
	check("duration", f.Duration, rep.Duration)
	if exactEdges {
		check("edges", f.Edges, rep.Edges)
	} else if f.Edges > rep.Edges {
		t.Errorf("journal fold edges %d exceed the report's %d", f.Edges, rep.Edges)
	}
}

func checkLiveFold(t *testing.T, addr string, rep *Report) {
	t.Helper()
	m := scrape(t, addr)
	check := func(key string, want float64) {
		t.Helper()
		if got := m[key]; got != want {
			t.Errorf("scraped %s = %v, report %v", key, got, want)
		}
	}
	check("eof_execs_total", float64(rep.Execs))
	if len(rep.Tiers) > 0 {
		for class, n := range tierExecs(rep) {
			check(fmt.Sprintf("eof_execs_tier_total{tier=%q}", class), float64(n))
		}
	}
	check("eof_edges", float64(rep.Edges))
	check("eof_restores_total", float64(rep.Restores))
	for reason, n := range rep.RestoresByReason {
		check(fmt.Sprintf("eof_restores_reason_total{reason=%q}", reason), float64(n))
	}
	check(`eof_restores_mode_total{mode="delta"}`, float64(rep.DeltaRestores))
	check(`eof_restores_mode_total{mode="full"}`, float64(rep.FullRestores))
	check("eof_bugs_total", float64(len(rep.Bugs)))
	check("eof_link_retries_total", float64(rep.LinkRetries))
	check("eof_link_reconnects_total", float64(rep.LinkReconnects))
	check("eof_quarantines_total", float64(len(rep.Quarantines)))
	for _, cat := range trace.Categories() {
		check(fmt.Sprintf("eof_time_by_seconds_total{category=%q}", cat.String()), rep.TimeBy.Of(cat).Seconds())
	}
	check("eof_duration_seconds", rep.Duration.Seconds())

	resp, err := http.Get("http://" + addr + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc metrics.StatusDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("/status decode: %v", err)
	}
	got := [5]int{doc.Execs, doc.Edges, doc.Restores, doc.Bugs, doc.Quarantines}
	want := [5]int{rep.Execs, rep.Edges, rep.Restores, len(rep.Bugs), len(rep.Quarantines)}
	if got != want {
		t.Errorf("/status execs, edges, restores, bugs, quarantines = %v, report %v", got, want)
	}
}
