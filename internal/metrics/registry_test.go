package metrics

import (
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/eof-fuzz/eof/internal/trace"
)

// TestRegistryConcurrentWriters hammers every handle type from many
// goroutines — the fleet's shards all emit into one registry, so the CAS
// paths must hold up under -race and lose no increments.
func TestRegistryConcurrentWriters(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("c_total", "c")
	g := reg.NewGauge("g", "g")
	h := reg.NewHistogram("h_seconds", "h", []float64{0.1, 1, 10})
	cv := reg.NewCounterVec("cv_total", "cv", "reason")
	gv := reg.NewGaugeVec("gv", "gv", "tier")

	const workers = 8
	const per = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			label := []string{"crash", "timeout", "pc-stall"}[w%3]
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%20) / 2)
				cv.With(label).Inc()
				gv.With("hw").Set(float64(i))
			}
		}()
	}
	wg.Wait()

	if got := c.Value(); got != workers*per {
		t.Fatalf("counter lost increments: %v, want %d", got, workers*per)
	}
	if got := g.Value(); got != workers*per {
		t.Fatalf("gauge lost adds: %v, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Fatalf("histogram lost observations: %d, want %d", got, workers*per)
	}
	sum := 0.0
	for _, label := range []string{"crash", "timeout", "pc-stall"} {
		sum += cv.With(label).Value()
	}
	if sum != workers*per {
		t.Fatalf("counter-vec series sum to %v, want %d", sum, workers*per)
	}
}

// TestSinkConcurrentShards drives the trace-sink folding from concurrent
// emitters, as a tiered fleet does, while a status line prints from the fold
// and a scraper reads it.
func TestSinkConcurrentShards(t *testing.T) {
	reg := NewRegistry()
	s := NewSink(reg, 4)
	s.SetStatus(trace.NewStatus(io.Discard, time.Nanosecond))
	const shards = 6
	const execs = 2000
	done := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-done:
				return
			default:
				_ = reg.WriteText(io.Discard)
				s.Status()
			}
		}
	}()
	var wg sync.WaitGroup
	for sh := 0; sh < shards; sh++ {
		sh := sh
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < execs; i++ {
				s.Emit(trace.Event{Kind: trace.ExecBegin, Shard: sh, Exec: i})
				s.Emit(trace.Event{Kind: trace.ExecEnd, Shard: sh, Exec: i, At: time.Duration(i) * time.Millisecond})
				if i%100 == 0 {
					s.Emit(trace.Event{Kind: trace.RestoreBegin, Shard: sh, Reason: "crash"})
					s.Emit(trace.Event{Kind: trace.RestoreEnd, Shard: sh, Reason: "crash", Dur: 50 * time.Millisecond})
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	<-scraped

	if got := s.fold.Execs; got != shards*execs {
		t.Fatalf("execs folded to %v, want %d", got, shards*execs)
	}
	hw := s.fold.HWExecs
	em := s.fold.EmExecs
	if hw != 4*execs || em != 2*execs {
		t.Fatalf("tier split hw=%v emul=%v, want %d/%d", hw, em, 4*execs, 2*execs)
	}
	doc := s.Status()
	if doc.Execs != shards*execs || len(doc.Shards) != shards {
		t.Fatalf("status doc: %+v", doc)
	}
	if doc.Tiers["hw"].Shards != 4 || doc.Tiers["emul"].Shards != 2 {
		t.Fatalf("status tiers: %+v", doc.Tiers)
	}
}

// TestConfirmQueueDepth checks the enqueue/verdict bookkeeping, including
// the hw-only-crash verdicts that must not retire queue entries.
func TestConfirmQueueDepth(t *testing.T) {
	reg := NewRegistry()
	s := NewSink(reg, 2)
	for i := 0; i < 5; i++ {
		s.Emit(trace.Event{Kind: trace.ConfirmEnqueue, Shard: 2, Edges: 3})
	}
	if got := s.fold.ConfirmQueueDepth(); got != 5 {
		t.Fatalf("depth after 5 enqueues: %v", got)
	}
	s.Emit(trace.Event{Kind: trace.TierConfirm, Shard: 0, Exec: 2, Reason: "cov", Edges: 3})
	s.Emit(trace.Event{Kind: trace.TierDiverge, Shard: 0, Exec: 2, Reason: "hw-only-crash:k#1"})
	s.Emit(trace.Event{Kind: trace.TierDiverge, Shard: 0, Exec: 2, Reason: "emul-only-cov", Edges: 1})
	if got := s.fold.ConfirmQueueDepth(); got != 3 {
		t.Fatalf("depth after cov-confirm + hw-only-crash + cov-diverge: %v, want 3", got)
	}
	if got := s.fold.Divergences["hw-only-crash"]; got != 1 {
		t.Fatalf("hw-only-crash divergences: %v", got)
	}
}

// TestWriteTextDeterministic asserts two identical registries render
// identical exposition text (sorted families and series).
func TestWriteTextDeterministic(t *testing.T) {
	build := func() *Registry {
		reg := NewRegistry()
		s := NewSink(reg, 1)
		for _, ev := range []trace.Event{
			{Kind: trace.ExecEnd, Shard: 0, At: time.Second},
			{Kind: trace.ExecEnd, Shard: 1, At: 2 * time.Second},
			{Kind: trace.RestoreBegin, Shard: 0, Reason: "timeout"},
			{Kind: trace.RestoreEnd, Shard: 0, Reason: "timeout", Dur: 600 * time.Millisecond},
			{Kind: trace.RestoreBegin, Shard: 1, Reason: "crash"},
			{Kind: trace.DeltaRestore, Shard: 1, Reason: "crash", Edges: 2048},
			{Kind: trace.RestoreEnd, Shard: 1, Reason: "crash", Dur: 46 * time.Millisecond},
			{Kind: trace.CovGain, Shard: 0, Edges: 7},
			{Kind: trace.Bug, Shard: 1, Reason: "sig"},
		} {
			s.Emit(ev)
		}
		return reg
	}
	var a, b strings.Builder
	if err := build().WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("exposition not deterministic:\n%s\nvs\n%s", a.String(), b.String())
	}
}
