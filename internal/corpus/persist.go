package corpus

import (
	"fmt"
	"sort"
	"time"

	"github.com/eof-fuzz/eof/internal/trace"
	"github.com/eof-fuzz/eof/internal/vtime"
)

// PersisterOptions parameterises a campaign's persistence layer.
type PersisterOptions struct {
	// Seed is the running campaign's base RNG seed (after any resume
	// rebasing); the checkpoint's NextSeed advances from it per epoch.
	Seed int64
	// DistillEvery distills the store every that many barriers (0 = never).
	DistillEvery int
	// PriorEpochs and PriorElapsed carry a resumed campaign's history so
	// checkpoints count epochs and elapsed virtual time across runs.
	PriorEpochs  int
	PriorElapsed time.Duration
	// Clusters pre-seeds the known crash-dedup keys (from a resumed
	// checkpoint), so they survive into every new checkpoint.
	Clusters []string
	// Sink receives the campaign-level Checkpoint/Distill journal events
	// (nil journals nothing). The events carry Shard = -1 and their own
	// sequence space, so per-shard event streams are byte-identical with
	// persistence on or off.
	Sink trace.Sink
}

// Admission is one corpus admission handed to the persister at a barrier:
// the program in portable JSON form plus its coverage attribution.
type Admission struct {
	Prog     []byte
	NewEdges int
	Edges    []uint32
	Shard    int
}

// Barrier is the resumable state of one completed fleet epoch.
type Barrier struct {
	// Epoch is the barrier ordinal within this run (1-based); Elapsed the
	// run's virtual wall-clock at the barrier. The persister adds the
	// resumed history on top of both.
	Epoch   int
	Elapsed time.Duration
	// Admissions are the epoch's broadcast corpus admissions in slot order.
	Admissions []Admission
	// Edges is the campaign's cumulative ground-truth coverage; Clusters the
	// crash-dedup keys known so far; Cursors the per-shard resume positions
	// (the persister fills each cursor's Seed).
	Edges    []uint32
	Clusters []string
	Cursors  []ShardCursor
}

// PersistStats summarises what a campaign's persistence layer did.
type PersistStats struct {
	// Entries is the store's current corpus size; Admitted counts new
	// entries this run persisted (deduplicated admissions excluded).
	Entries  int
	Admitted int
	// Checkpoints and Distills count this run's barrier checkpoints and
	// store distillations; Dropped the entries distillation removed.
	Checkpoints int
	Distills    int
	Dropped     int
}

// Persister drives a Store at fleet epoch barriers: it makes every broadcast
// admission durable (one manifest append, write-ahead of the checkpoint),
// distills the store at the configured cadence, and snapshots the resumable
// campaign state as a rotated, checksummed checkpoint. All I/O happens
// between epochs on the supervisor goroutine, so persistence never perturbs
// engine determinism.
type Persister struct {
	s      *Store
	opts   PersisterOptions
	clock  *vtime.Clock
	tracer *trace.Tracer

	clusters     map[string]bool
	sinceDistill int
	stats        PersistStats

	// AfterCheckpoint, when set, runs after each barrier's checkpoint is
	// durable. Tests use it to snapshot the store mid-campaign — because
	// durable state only changes at barriers, a copy taken here is
	// byte-equivalent to a kill -9 arriving any time before the next
	// barrier's first write.
	AfterCheckpoint func(epoch int)
}

// NewPersister builds the persistence layer over an open store.
func NewPersister(s *Store, opts PersisterOptions) *Persister {
	clock := &vtime.Clock{}
	clock.Advance(opts.PriorElapsed)
	p := &Persister{
		s:        s,
		opts:     opts,
		clock:    clock,
		tracer:   trace.New(-1, clock, 1),
		clusters: make(map[string]bool),
	}
	p.tracer.SetSink(opts.Sink)
	for _, c := range opts.Clusters {
		p.clusters[c] = true
	}
	return p
}

// Store returns the underlying store.
func (p *Persister) Store() *Store { return p.s }

// Stats returns what the persistence layer has done so far this run.
func (p *Persister) Stats() PersistStats {
	st := p.stats
	st.Entries = p.s.Len()
	return st
}

// Barrier persists one completed epoch: the admissions first, in one store
// call (write-ahead), then an optional distillation, then the checkpoint
// that commits it all. Called on the fleet supervisor goroutine between
// epoch slices.
func (p *Persister) Barrier(b Barrier) error {
	epoch := p.opts.PriorEpochs + b.Epoch
	at := p.opts.PriorElapsed + b.Elapsed
	p.clock.Advance(at - p.clock.Now())
	es := make([]Entry, len(b.Admissions))
	for i, a := range b.Admissions {
		es[i] = Entry{
			Prog:     a.Prog,
			NewEdges: a.NewEdges,
			Edges:    a.Edges,
			Shard:    a.Shard,
			Epoch:    epoch,
			At:       at,
		}
	}
	added, err := p.s.Put(es...)
	if err != nil {
		return err
	}
	p.stats.Admitted += added
	for _, c := range b.Clusters {
		p.clusters[c] = true
	}
	if p.opts.DistillEvery > 0 {
		p.sinceDistill++
		if p.sinceDistill >= p.opts.DistillEvery {
			p.sinceDistill = 0
			kept, dropped, err := p.s.Distill()
			if err != nil {
				return err
			}
			p.stats.Distills++
			p.stats.Dropped += dropped
			p.tracer.Emit(trace.Event{
				Kind: trace.Distill, Exec: epoch, Edges: dropped,
				Reason: fmt.Sprintf("kept:%d", kept),
			})
		}
	}
	nextSeed := p.opts.Seed + int64(b.Epoch)*ResumeSeedStride
	cursors := make([]ShardCursor, len(b.Cursors))
	for i, c := range b.Cursors {
		c.Seed = nextSeed + int64(c.Shard)*ShardSeedStride
		cursors[i] = c
	}
	ck := &Checkpoint{
		Seed:     p.opts.Seed,
		NextSeed: nextSeed,
		Epoch:    epoch,
		Elapsed:  at,
		Edges:    sortEdges(b.Edges),
		Corpus:   append([]string(nil), p.s.order...),
		Clusters: sortedKeys(p.clusters),
		Cursors:  cursors,
		Distills: p.stats.Distills,
	}
	if err := p.s.WriteCheckpoint(ck); err != nil {
		return err
	}
	p.stats.Checkpoints++
	p.tracer.Emit(trace.Event{Kind: trace.Checkpoint, Exec: epoch, Edges: len(ck.Edges)})
	if p.AfterCheckpoint != nil {
		p.AfterCheckpoint(epoch)
	}
	return nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
