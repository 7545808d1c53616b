package corpus

import (
	"bytes"
	"encoding/base64"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/eof-fuzz/eof/internal/trace"
)

func testEntry(body string, shard int, edges ...uint32) Entry {
	return Entry{
		Prog:     []byte(body),
		NewEdges: len(edges),
		Edges:    edges,
		Shard:    shard,
		Epoch:    1,
		At:       time.Minute,
	}
}

func TestStoreRoundTrip(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root, "freertos", "stm32h745")
	if err != nil {
		t.Fatal(err)
	}
	added, err := s.Put(testEntry(`{"calls":[1]}`, 0, 10, 11))
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 {
		t.Fatal("first Put reported a duplicate")
	}
	if added, _ := s.Put(testEntry(`{"calls":[1]}`, 3, 99)); added != 0 {
		t.Fatal("identical program admitted twice")
	}
	if added, _ := s.Put(testEntry(`{"calls":[2]}`, 1, 12)); added != 1 {
		t.Fatal("distinct program rejected")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}

	// Reopen: manifest replay must reproduce membership, order and payload.
	s2, err := Open(root, "freertos", "stm32h745")
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Warnings()) != 0 {
		t.Fatalf("clean reopen produced warnings: %v", s2.Warnings())
	}
	es := s2.Entries()
	if len(es) != 2 {
		t.Fatalf("reopened Len = %d, want 2", len(es))
	}
	if string(es[0].Prog) != `{"calls":[1]}` || string(es[1].Prog) != `{"calls":[2]}` {
		t.Fatalf("admission order or payload lost: %q, %q", es[0].Prog, es[1].Prog)
	}
	if es[0].Shard != 0 || es[0].NewEdges != 2 || es[0].Edges[1] != 11 {
		t.Fatalf("provenance lost: %+v", es[0])
	}
}

func TestPutOneAppendPerCall(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root, "freertos", "stm32h745")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(testEntry("a", 0, 1)); err != nil {
		t.Fatal(err)
	}
	// "a" is already stored and "b" repeats within the call: one line each
	// for "b" and "c".
	added, err := s.Put(testEntry("a", 1, 1), testEntry("b", 0, 2), testEntry("c", 1, 3), testEntry("b", 1, 2))
	if err != nil || added != 2 {
		t.Fatalf("Put = %d, %v; want 2 added", added, err)
	}
	if _, err := s.Put(testEntry("d", 0, 4), Entry{}); err == nil || s.Len() != 3 {
		t.Fatalf("Put with an empty program = %v, Len %d; want an error and nothing added", err, s.Len())
	}
	data, err := os.ReadFile(filepath.Join(s.Dir(), "manifest.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n != 3 {
		t.Fatalf("manifest holds %d lines, want 3", n)
	}
}

func TestStoreNamespaces(t *testing.T) {
	root := t.TempDir()
	a, err := Open(root, "freertos", "stm32h745")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Put(testEntry("prog-a", 0, 1)); err != nil {
		t.Fatal(err)
	}
	b, err := Open(root, "rtthread", "esp32c3")
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("foreign namespace sees %d entries", b.Len())
	}
}

func TestTornManifestTailTruncates(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root, "freertos", "stm32h745")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(testEntry("one", 0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(testEntry("two", 0, 2)); err != nil {
		t.Fatal(err)
	}
	// Tear the final line mid-record, as a kill -9 during append would.
	mp := filepath.Join(s.Dir(), "manifest.jsonl")
	data, err := os.ReadFile(mp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mp, data[:len(data)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(root, "freertos", "stm32h745")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("torn tail: Len = %d, want 1 surviving entry", s2.Len())
	}
	if len(s2.Warnings()) == 0 || !strings.Contains(s2.Warnings()[0], "truncating") {
		t.Fatalf("torn tail produced no truncation warning: %v", s2.Warnings())
	}
	// Open cut the torn bytes off the file, so the next append starts on a
	// line boundary and survives a reopen.
	if _, err := s2.Put(testEntry("three", 1, 3)); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(root, "freertos", "stm32h745")
	if err != nil {
		t.Fatal(err)
	}
	if s3.Len() != 2 {
		t.Fatalf("post-tear entries: %d, want 2 (the admission after the tear was lost): %v", s3.Len(), s3.Warnings())
	}
}

// TestTornAppendEveryOffset cuts the manifest at every byte offset inside one
// Put's append, as a crash mid-write would. Every cut must open, load exactly
// the entries whose lines are whole, and leave a store whose next Put
// survives a reopen with no warning.
func TestTornAppendEveryOffset(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root, "freertos", "stm32h745")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(testEntry("one", 0, 1)); err != nil {
		t.Fatal(err)
	}
	mp := filepath.Join(s.Dir(), "manifest.jsonl")
	before, err := os.ReadFile(mp)
	if err != nil {
		t.Fatal(err)
	}
	if added, err := s.Put(testEntry("two", 0, 2), testEntry("three", 1, 3)); err != nil || added != 2 {
		t.Fatalf("Put = %d, %v; want 2 added", added, err)
	}
	data, err := os.ReadFile(mp)
	if err != nil {
		t.Fatal(err)
	}
	cutRoot := t.TempDir()
	cutMP := filepath.Join(cutRoot, "freertos", "stm32h745", "manifest.jsonl")
	if err := os.MkdirAll(filepath.Dir(cutMP), 0o755); err != nil {
		t.Fatal(err)
	}
	for cut := len(before); cut <= len(data); cut++ {
		if err := os.WriteFile(cutMP, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		whole := bytes.Count(data[:cut], []byte("\n"))
		c, err := Open(cutRoot, "freertos", "stm32h745")
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		if c.Len() != whole {
			t.Fatalf("cut %d: loaded %d entries, want the %d whole lines", cut, c.Len(), whole)
		}
		if _, err := c.Put(testEntry("four", 2, 4)); err != nil {
			t.Fatalf("cut %d: Put: %v", cut, err)
		}
		r, err := Open(cutRoot, "freertos", "stm32h745")
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if r.Len() != whole+1 || len(r.Warnings()) != 0 {
			t.Fatalf("cut %d: reopen kept %d entries (want %d), warnings %v", cut, r.Len(), whole+1, r.Warnings())
		}
	}
}

func TestOpenRefusesBlobLayout(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "freertos", "stm32h745", "blobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	_, err := Open(root, "freertos", "stm32h745")
	if err == nil || !strings.Contains(err.Error(), "blobs/") {
		t.Fatalf("Open of a store with blobs/ = %v, want an error naming that layout", err)
	}
}

func TestDamagedEntryDropped(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root, "freertos", "stm32h745")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(testEntry("victim", 0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(testEntry("innocent", 0, 2)); err != nil {
		t.Fatal(err)
	}
	// Flip one character of the victim's program encoding: the line still
	// decodes, but its program no longer hashes to its name.
	mp := filepath.Join(s.Dir(), "manifest.jsonl")
	data, err := os.ReadFile(mp)
	if err != nil {
		t.Fatal(err)
	}
	enc := []byte(`"prog":"` + base64.StdEncoding.EncodeToString([]byte("victim")))
	i := bytes.Index(data, enc)
	if i < 0 {
		t.Fatalf("victim's program encoding not found in %q", data)
	}
	data[i+len(`"prog":"`)] = 'e' // "dmljdGlt" becomes "emljdGlt"
	if err := os.WriteFile(mp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(root, "freertos", "stm32h745")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 || string(s2.Entries()[0].Prog) != "innocent" {
		t.Fatalf("Len = %d, want 1 (damaged entry dropped, the other kept)", s2.Len())
	}
	if len(s2.Warnings()) != 1 || !strings.Contains(s2.Warnings()[0], "does not hash") {
		t.Fatalf("damaged entry produced warnings %v, want one hash mismatch", s2.Warnings())
	}
}

func TestCheckpointRoundTripAndRotation(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root, "freertos", "stm32h745")
	if err != nil {
		t.Fatal(err)
	}
	ck1 := &Checkpoint{
		Seed: 7, NextSeed: 7 + ResumeSeedStride, Epoch: 1, Elapsed: 10 * time.Minute,
		Edges: []uint32{1, 2, 3}, Clusters: []string{"a"},
		Cursors: []ShardCursor{{Shard: 0, Seed: 7 + ResumeSeedStride, Execs: 100}},
	}
	if err := s.WriteCheckpoint(ck1); err != nil {
		t.Fatal(err)
	}
	ck2 := &Checkpoint{
		Seed: 7, NextSeed: 7 + 2*ResumeSeedStride, Epoch: 2, Elapsed: 20 * time.Minute,
		Edges: []uint32{1, 2, 3, 4},
	}
	if err := s.WriteCheckpoint(ck2); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Epoch != 2 || got.NextSeed != 7+2*ResumeSeedStride {
		t.Fatalf("loaded checkpoint %+v, want epoch 2", got)
	}
	if got.OS != "freertos" || got.Board != "stm32h745" {
		t.Fatalf("namespace not stamped: %+v", got)
	}

	// Corrupt the current file: load must quarantine it and fall back to the
	// rotated previous checkpoint.
	cur := filepath.Join(s.Dir(), "checkpoint.json")
	data, _ := os.ReadFile(cur)
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(cur, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(root, "freertos", "stm32h745")
	if err != nil {
		t.Fatal(err)
	}
	got, err = s2.LoadCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Epoch != 1 {
		t.Fatalf("degraded load got %+v, want the epoch-1 previous checkpoint", got)
	}
	if len(s2.Warnings()) == 0 {
		t.Fatal("corrupt checkpoint produced no warning")
	}
	if _, err := os.Stat(cur); !os.IsNotExist(err) {
		t.Fatal("corrupt checkpoint not quarantined")
	}
}

func TestCheckpointNamespaceMismatch(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root, "freertos", "stm32h745")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint(&Checkpoint{Seed: 1, NextSeed: 2, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	// Copy the checkpoint into a foreign namespace: resume must refuse it.
	other, err := Open(root, "rtthread", "stm32h745")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(filepath.Join(s.Dir(), "checkpoint.json"))
	if err := os.WriteFile(filepath.Join(other.Dir(), "checkpoint.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := other.LoadCheckpoint(); err == nil {
		t.Fatal("foreign-namespace checkpoint accepted")
	}
}

func TestLoadCheckpointEmptyStore(t *testing.T) {
	s, err := Open(t.TempDir(), "freertos", "stm32h745")
	if err != nil {
		t.Fatal(err)
	}
	ck, err := s.LoadCheckpoint()
	if err != nil || ck != nil {
		t.Fatalf("empty store: got (%v, %v), want (nil, nil)", ck, err)
	}
}

func TestDistillMinimalCover(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root, "freertos", "stm32h745")
	if err != nil {
		t.Fatal(err)
	}
	// Entry 1 covers {1,2}, entry 2 covers {2,3}, entry 3 covers {1,2,3}:
	// the greedy cover keeps entry 3 alone (max gain first).
	if _, err := s.Put(testEntry("a", 0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(testEntry("b", 0, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(testEntry("c", 0, 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	kept, dropped, err := s.Distill()
	if err != nil {
		t.Fatal(err)
	}
	if kept != 1 || dropped != 2 {
		t.Fatalf("Distill kept %d dropped %d, want 1/2", kept, dropped)
	}
	if s.Len() != 1 || string(s.Entries()[0].Prog) != "c" {
		t.Fatalf("survivor is %q, want the covering entry", s.Entries()[0].Prog)
	}
	// Survivor intact, rewrite durable across reopen.
	s2, err := Open(root, "freertos", "stm32h745")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 || string(s2.Entries()[0].Prog) != "c" {
		t.Fatalf("distilled manifest did not survive reopen: %d entries", s2.Len())
	}
}

func TestDistillTiesPreferEarlierAdmission(t *testing.T) {
	s, err := Open(t.TempDir(), "freertos", "stm32h745")
	if err != nil {
		t.Fatal(err)
	}
	// Equal gain: admission order breaks the tie deterministically.
	if _, err := s.Put(testEntry("first", 0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(testEntry("second", 0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Distill(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || string(s.Entries()[0].Prog) != "first" {
		t.Fatal("tie not broken by admission order")
	}
}

func TestDistillKeepsUnattributedEntries(t *testing.T) {
	s, err := Open(t.TempDir(), "freertos", "stm32h745")
	if err != nil {
		t.Fatal(err)
	}
	// No attributed edges at all: nothing can be proven redundant.
	if _, err := s.Put(testEntry("x", 0)); err != nil {
		t.Fatal(err)
	}
	kept, dropped, err := s.Distill()
	if err != nil {
		t.Fatal(err)
	}
	if kept != 1 || dropped != 0 {
		t.Fatalf("unattributed entry dropped (kept %d, dropped %d)", kept, dropped)
	}
}

type sinkRecorder struct{ events []trace.Event }

func (r *sinkRecorder) Emit(ev trace.Event) { r.events = append(r.events, ev) }

func TestPersisterBarrier(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root, "freertos", "stm32h745")
	if err != nil {
		t.Fatal(err)
	}
	rec := &sinkRecorder{}
	p := NewPersister(s, PersisterOptions{Seed: 5, DistillEvery: 2, Sink: rec})
	mkBarrier := func(epoch int, blob string, edges []uint32) Barrier {
		return Barrier{
			Epoch:   epoch,
			Elapsed: time.Duration(epoch) * 10 * time.Minute,
			Admissions: []Admission{
				{Prog: []byte(blob), NewEdges: len(edges), Edges: edges, Shard: 0},
			},
			Edges:    edges,
			Clusters: []string{"cl-" + blob},
			Cursors:  []ShardCursor{{Shard: 0, Execs: epoch * 100}},
		}
	}
	if err := p.Barrier(mkBarrier(1, "p1", []uint32{1, 2})); err != nil {
		t.Fatal(err)
	}
	if err := p.Barrier(mkBarrier(2, "p2", []uint32{1, 2, 3})); err != nil {
		t.Fatal(err)
	}

	ck, err := s.LoadCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ck.Epoch != 2 {
		t.Fatalf("epoch %d, want 2", ck.Epoch)
	}
	if ck.NextSeed != 5+2*ResumeSeedStride {
		t.Fatalf("NextSeed %d, want seed+2*stride", ck.NextSeed)
	}
	if len(ck.Cursors) != 1 || ck.Cursors[0].Seed != ck.NextSeed || ck.Cursors[0].Execs != 200 {
		t.Fatalf("cursor %+v, want seed=NextSeed execs=200", ck.Cursors)
	}
	if len(ck.Clusters) != 2 {
		t.Fatalf("clusters %v, want the union across barriers", ck.Clusters)
	}
	if ck.Elapsed != 20*time.Minute {
		t.Fatalf("elapsed %v", ck.Elapsed)
	}

	st := p.Stats()
	if st.Admitted != 2 || st.Checkpoints != 2 || st.Distills != 1 {
		t.Fatalf("stats %+v, want 2 admitted, 2 checkpoints, 1 distill (cadence 2)", st)
	}

	// Journal events: campaign-level stream, shard -1, own sequence space.
	var kinds []trace.Kind
	for _, ev := range rec.events {
		if ev.Shard != -1 {
			t.Fatalf("persistence event on shard %d, want -1", ev.Shard)
		}
		kinds = append(kinds, ev.Kind)
	}
	want := []trace.Kind{trace.Checkpoint, trace.Distill, trace.Checkpoint}
	if len(kinds) != len(want) {
		t.Fatalf("events %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("events %v, want %v", kinds, want)
		}
	}
}

func TestPersisterResumeContinuity(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root, "freertos", "stm32h745")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPersister(s, PersisterOptions{Seed: 1})
	if err := p.Barrier(Barrier{Epoch: 1, Elapsed: 10 * time.Minute, Edges: []uint32{9}}); err != nil {
		t.Fatal(err)
	}
	ck, err := s.LoadCheckpoint()
	if err != nil {
		t.Fatal(err)
	}

	// A resumed run continues epoch and elapsed counting from the checkpoint
	// and pre-seeds its clusters.
	s2, err := Open(root, "freertos", "stm32h745")
	if err != nil {
		t.Fatal(err)
	}
	p2 := NewPersister(s2, PersisterOptions{
		Seed: ck.NextSeed, PriorEpochs: ck.Epoch, PriorElapsed: ck.Elapsed,
		Clusters: []string{"old-bug"},
	})
	if err := p2.Barrier(Barrier{Epoch: 1, Elapsed: 10 * time.Minute, Edges: []uint32{9, 10}}); err != nil {
		t.Fatal(err)
	}
	ck2, err := s2.LoadCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ck2.Epoch != 2 || ck2.Elapsed != 20*time.Minute {
		t.Fatalf("resumed checkpoint %+v, want campaign-lifetime epoch 2 at 20m", ck2)
	}
	if len(ck2.Clusters) != 1 || ck2.Clusters[0] != "old-bug" {
		t.Fatalf("resumed clusters %v, want the carried-over key", ck2.Clusters)
	}
	if ck2.Seed != ck.NextSeed || ck2.NextSeed != ck.NextSeed+ResumeSeedStride {
		t.Fatalf("seed chain broken: %+v", ck2)
	}
}

func TestLoadResumeKeepsManifestTail(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root, "freertos", "stm32h745")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPersister(s, PersisterOptions{Seed: 1})
	if err := p.Barrier(Barrier{
		Epoch: 1, Elapsed: time.Minute,
		Admissions: []Admission{{Prog: []byte("committed"), NewEdges: 1, Edges: []uint32{1}}},
		Edges:      []uint32{1},
	}); err != nil {
		t.Fatal(err)
	}
	// An admission persisted after the checkpoint (the crash-interrupted
	// epoch): manifest line durable, checkpoint never written.
	if _, err := s.Put(testEntry("tail", 0, 2)); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(root, "freertos", "stm32h745")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s2.LoadResume()
	if err != nil {
		t.Fatal(err)
	}
	if res.Ck == nil || len(res.Ck.Corpus) != 1 {
		t.Fatalf("checkpoint %+v, want the 1-entry committed corpus", res.Ck)
	}
	if len(res.Entries) != 2 {
		t.Fatalf("resume entries = %d, want checkpoint corpus plus the tail", len(res.Entries))
	}
}
