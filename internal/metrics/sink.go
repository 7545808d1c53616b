package metrics

import (
	"sync"

	"github.com/eof-fuzz/eof/internal/trace"
)

// Sink is the live consumer behind `-metrics-addr`: it folds the campaign
// trace-event stream into one trace.Fold behind one mutex, and the registry
// and /status read that fold at scrape time. Attaching it as a live sink
// means the engine, fleet and link layers need no metric call sites at all.
// It is safe for concurrent use (fleet shards emit from their own
// goroutines).
type Sink struct {
	mu     sync.Mutex
	fold   trace.Fold
	status *trace.Status // printed from fold; nil without a status line
}

// NewSink registers the campaign metric families on reg and returns the
// folding sink. emulStart is the first emulation-tier shard index (negative
// for untiered campaigns); it routes per-tier attribution.
func NewSink(reg *Registry, emulStart int) *Sink {
	s := &Sink{fold: trace.NewFold(emulStart)}
	execs := reg.NewCounter("eof_execs_total", "Completed test-case executions.")
	execsTier := reg.NewCounterVec("eof_execs_tier_total", "Completed executions by tier.", "tier")
	edges := reg.NewGauge("eof_edges", "Distinct coverage edges observed (fleet-wide).")
	corpusAdds := reg.NewCounter("eof_corpus_adds_total", "Coverage-increasing inputs admitted to the corpus.")
	restores := reg.NewCounter("eof_restores_total", "State restorations.")
	restoresBy := reg.NewCounterVec("eof_restores_reason_total", "State restorations by trigger.", "reason")
	restoresMod := reg.NewCounterVec("eof_restores_mode_total", "State restorations by mechanism (delta vs full).", "mode")
	reflashes := reg.NewCounter("eof_reflashes_total", "Full image reflashes.")
	snapshots := reg.NewCounter("eof_snapshot_takes_total", "Golden snapshots cached.")
	bugs := reg.NewCounter("eof_bugs_total", "Deduplicated findings.")
	triaged := reg.NewCounter("eof_triaged_total", "Findings fully triaged.")
	linkFaults := reg.NewCounter("eof_link_faults_total", "Debug-link faults observed or injected.")
	linkRetries := reg.NewCounter("eof_link_retries_total", "Transparent debug-link command retries.")
	linkReconns := reg.NewCounter("eof_link_reconnects_total", "Recovered debug-link deaths.")
	quarantines := reg.NewCounter("eof_quarantines_total", "Boards retired by the fleet supervisor.")
	promotes := reg.NewCounter("eof_spare_promotes_total", "Hot spares promoted into vacated slots.")
	syncEpochs := reg.NewCounter("eof_sync_epochs_total", "Fleet feedback-exchange barriers.")
	confirmEnq := reg.NewCounter("eof_confirm_enqueues_total", "Emulation observations queued for hardware confirmation.")
	confirms := reg.NewCounterVec("eof_tier_confirms_total", "Hardware-confirmed emulation observations by kind.", "kind")
	diverges := reg.NewCounterVec("eof_tier_divergences_total", "Cross-tier divergences by kind.", "kind")
	confirmQ := reg.NewGauge("eof_confirm_queue_depth", "Emulation observations awaiting hardware confirmation.")
	timeBy := reg.NewCounterVec("eof_time_by_seconds_total", "Board-time budget by category (virtual seconds).", "category")
	duration := reg.NewGauge("eof_duration_seconds", "Accounted campaign duration (virtual seconds, per shard).")
	virtual := reg.NewGauge("eof_virtual_seconds", "Campaign virtual clock high-water mark.")
	bounds := make([]float64, len(trace.RestoreBounds))
	for i, b := range trace.RestoreBounds {
		bounds[i] = b.Seconds()
	}
	restoreDur := reg.NewHistogram("eof_restore_duration_seconds", "State-restoration cost (virtual seconds).", bounds)

	reg.OnScrape(func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		f := &s.fold
		execs.Set(float64(f.Execs))
		if f.EmulStart >= 0 {
			execsTier.With("hw").Set(float64(f.HWExecs))
			execsTier.With("emul").Set(float64(f.EmExecs))
		}
		edges.Set(float64(f.Edges))
		corpusAdds.Set(float64(f.CorpusAdds))
		restores.Set(float64(f.Restores))
		for reason, n := range f.ByReason {
			restoresBy.With(reason).Set(float64(n))
		}
		restoresMod.With("delta").Set(float64(f.DeltaRestores))
		restoresMod.With("full").Set(float64(f.FullRestores()))
		reflashes.Set(float64(f.Reflashes))
		snapshots.Set(float64(f.SnapshotTakes))
		bugs.Set(float64(f.Bugs))
		triaged.Set(float64(f.Triaged))
		linkFaults.Set(float64(f.LinkFaults))
		linkRetries.Set(float64(f.LinkRetries))
		linkReconns.Set(float64(f.LinkReconnects))
		quarantines.Set(float64(f.Quarantines))
		promotes.Set(float64(f.SparePromotes))
		syncEpochs.Set(float64(f.SyncEpochs))
		confirmEnq.Set(float64(f.ConfirmEnqueues))
		for kind, n := range f.Confirms {
			confirms.With(kind).Set(float64(n))
		}
		for kind, n := range f.Divergences {
			diverges.With(kind).Set(float64(n))
		}
		confirmQ.Set(float64(f.ConfirmQueueDepth()))
		for _, c := range trace.Categories() {
			timeBy.With(c.String()).Set(f.TimeBy.Of(c).Seconds())
		}
		duration.Set(f.Duration.Seconds())
		virtual.Set(f.VirtualEnd.Seconds())
		restoreDur.set(f.RestoreDur[:], f.RestoreDurSum.Seconds())
	})
	return s
}

// SetStatus makes the sink print st's status line from its own fold, so a
// campaign with both a status line and a metrics server keeps one live fold.
// Call before the campaign starts; nil prints none.
func (s *Sink) SetStatus(st *trace.Status) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.status = st
}

// Emit folds one trace event.
func (s *Sink) Emit(ev trace.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fold.Apply(ev)
	if s.status != nil {
		s.status.Observe(&s.fold)
	}
}

// PinEdges replaces the folded edge total with the final Report's. The
// journal misses two sources of coverage the Report counts, so only the edge
// total needs the pin:
//   - a snapshot campaign's post-init drain ingests boot coverage with no
//     cov-gain record (one edge per rtthread snapshot campaign);
//   - a tiered pool journals its hardware sync-epoch before that barrier's
//     confirmation replays, whose fresh edges no later barrier reports.
func (s *Sink) PinEdges(edges int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fold.Edges = edges
}

// StatusDoc is the JSON document served at /status: the live status line's
// counters with a per-shard and per-tier breakdown.
type StatusDoc struct {
	VirtualSeconds float64         `json:"virtual_seconds"`
	Execs          int             `json:"execs"`
	ExecsPerSec    float64         `json:"execs_per_sec"`
	Edges          int             `json:"edges"`
	Restores       int             `json:"restores"`
	Bugs           int             `json:"bugs"`
	Quarantines    int             `json:"quarantines"`
	Shards         []ShardStatus   `json:"shards"`
	Tiers          map[string]Tier `json:"tiers,omitempty"`
}

// ShardStatus is one shard's slice of the status document.
type ShardStatus struct {
	Shard    int    `json:"shard"`
	Tier     string `json:"tier,omitempty"`
	Execs    int    `json:"execs"`
	Edges    int    `json:"edges"`
	Restores int    `json:"restores"`
	Bugs     int    `json:"bugs"`
}

// Tier is a per-tier rollup inside the status document.
type Tier struct {
	Shards            int `json:"shards"`
	Execs             int `json:"execs"`
	ConfirmQueueDepth int `json:"confirm_queue_depth,omitempty"`
}

// Status snapshots the live campaign into the /status document.
func (s *Sink) Status() StatusDoc {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := &s.fold
	doc := StatusDoc{
		VirtualSeconds: f.VirtualEnd.Seconds(),
		Execs:          f.Execs,
		Edges:          f.Edges,
		Restores:       f.Restores,
		Bugs:           f.Bugs,
		Quarantines:    f.Quarantines,
	}
	if doc.VirtualSeconds > 0 {
		doc.ExecsPerSec = float64(doc.Execs) / doc.VirtualSeconds
	}
	tiered := f.EmulStart >= 0
	if tiered {
		doc.Tiers = map[string]Tier{}
	}
	for _, sh := range f.PerShard() {
		ss := ShardStatus{Shard: sh.Shard, Execs: sh.Execs, Edges: sh.Edges, Restores: sh.Restores, Bugs: sh.Bugs}
		if tiered {
			ss.Tier = "hw"
			if f.Emul(sh.Shard) {
				ss.Tier = "emul"
			}
			t := doc.Tiers[ss.Tier]
			t.Shards++
			t.Execs += sh.Execs
			doc.Tiers[ss.Tier] = t
		}
		doc.Shards = append(doc.Shards, ss)
	}
	if tiered {
		t := doc.Tiers["emul"]
		t.ConfirmQueueDepth = f.ConfirmQueueDepth()
		doc.Tiers["emul"] = t
	}
	return doc
}
