package eof

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/eof-fuzz/eof/internal/corpus"
	"github.com/eof-fuzz/eof/internal/journal"
)

// stripCampaignStream drops the persistence layer's shard -1 journal lines,
// leaving exactly the per-shard streams a plain campaign writes.
func stripCampaignStream(raw []byte) []byte {
	var out []byte
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(line) == 0 || bytes.Contains(line, []byte(`"shard":-1`)) {
			continue
		}
		out = append(out, line...)
		out = append(out, '\n')
	}
	return out
}

// copyStore clones a corpus store directory, simulating the state a kill -9
// at that instant would leave on disk.
func copyStore(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copy store: %v", err)
	}
}

// TestPersistOffByteIdentical asserts the crash-safe store never perturbs the
// campaign: for the same seed, a persisted run's journal minus the shard -1
// campaign stream is byte-identical to a plain run's journal, solo (where the
// budget is sliced into checkpoint epochs) and fleet alike.
func TestPersistOffByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		budget time.Duration
	}{
		{"solo", 1, 25 * time.Minute},
		{"fleet", 2, 40 * time.Minute},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(corpusDir string) ([]byte, *Report) {
				var buf bytes.Buffer
				c, err := NewCampaign(Options{
					OS:         "rtthread",
					Seed:       23,
					Shards:     tc.shards,
					CorpusDir:  corpusDir,
					TraceJSONL: &buf,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				rep, err := c.Run(tc.budget)
				if err != nil {
					t.Fatal(err)
				}
				return buf.Bytes(), rep
			}
			plainJournal, plainRep := run("")
			storeDir := t.TempDir()
			persistJournal, persistRep := run(storeDir)
			if bytes.Contains(plainJournal, []byte(`"shard":-1`)) {
				t.Fatal("plain run journaled campaign-stream events")
			}
			if !bytes.Contains(persistJournal, []byte(`"kind":"checkpoint"`)) {
				t.Fatal("persisted run journaled no checkpoint events")
			}
			if !bytes.Equal(plainJournal, stripCampaignStream(persistJournal)) {
				t.Fatal("per-shard journal streams differ between persisted and plain runs")
			}
			if plainRep.Execs != persistRep.Execs || plainRep.Edges != persistRep.Edges ||
				plainRep.TimeBy != persistRep.TimeBy || plainRep.Duration != persistRep.Duration {
				t.Fatalf("reports differ between persisted and plain runs:\n%+v\n%+v", plainRep, persistRep)
			}
			if plainRep.Persist != nil {
				t.Fatal("plain run carries a persist report")
			}
			if persistRep.Persist == nil || persistRep.Persist.Checkpoints == 0 {
				t.Fatalf("persisted run's persist report: %+v", persistRep.Persist)
			}
			// One file per store: the namespace holds the manifest and the
			// checkpoint rotation, nothing else.
			ents, err := os.ReadDir(filepath.Join(storeDir, "rtthread", "stm32h745"))
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, e := range ents {
				names = append(names, e.Name())
			}
			if got := strings.Join(names, " "); got != "checkpoint.json checkpoint.prev.json manifest.jsonl" {
				t.Fatalf("store namespace holds %q, want only the manifest and the two checkpoints", got)
			}
		})
	}
}

// TestKillResumeCoverageSuperset is the crash-recovery integration test: a
// campaign's store is cloned at an epoch checkpoint (byte-equivalent to a
// kill -9 before the next barrier's first write), and a resumed campaign on
// the clone must come back knowing everything the checkpoint knew — coverage
// a superset of the checkpointed edges, corpus membership intact — and keep
// fuzzing from where the original left off.
func TestKillResumeCoverageSuperset(t *testing.T) {
	orig := t.TempDir()
	killed := t.TempDir()

	c, err := NewCampaign(Options{OS: "rtthread", Seed: 23, CorpusDir: orig})
	if err != nil {
		t.Fatal(err)
	}
	c.persist.AfterCheckpoint = func(epoch int) {
		if epoch == 2 {
			copyStore(t, orig, killed)
		}
	}
	if _, err := c.Run(35 * time.Minute); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// What did the interrupted campaign durably know?
	s, err := corpus.Open(killed, "rtthread", "stm32h745")
	if err != nil {
		t.Fatal(err)
	}
	ck, err := s.LoadCheckpoint()
	if err != nil || ck == nil {
		t.Fatalf("cloned store has no checkpoint: ck=%v err=%v", ck, err)
	}
	if ck.Epoch != 2 {
		t.Fatalf("clone checkpoint epoch = %d, want 2", ck.Epoch)
	}
	ckEdges := make(map[uint32]bool, len(ck.Edges))
	for _, e := range ck.Edges {
		ckEdges[e] = true
	}
	entriesBefore := s.Len()

	r, err := NewCampaign(Options{OS: "rtthread", CorpusDir: killed, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rep, err := r.Run(20 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	p := rep.Persist
	if p == nil || !p.Resumed {
		t.Fatalf("resumed run's persist report: %+v", p)
	}
	if p.PriorEpochs != 2 || p.PriorElapsed != ck.Elapsed {
		t.Fatalf("resumed history: epochs %d elapsed %v, want 2 / %v", p.PriorEpochs, p.PriorElapsed, ck.Elapsed)
	}
	if p.ResumedSeeds == 0 || p.ResumedSeeds < entriesBefore {
		t.Fatalf("resumed %d seeds from a store of %d entries", p.ResumedSeeds, entriesBefore)
	}
	if rep.Edges < len(ck.Edges) {
		t.Fatalf("resumed coverage %d below checkpointed %d", rep.Edges, len(ck.Edges))
	}
	if p.Entries < entriesBefore {
		t.Fatalf("resumed store shrank: %d -> %d entries", entriesBefore, p.Entries)
	}

	// The resumed store's next checkpoint must carry the old coverage forward.
	s2, err := corpus.Open(killed, "rtthread", "stm32h745")
	if err != nil {
		t.Fatal(err)
	}
	ck2, err := s2.LoadCheckpoint()
	if err != nil || ck2 == nil {
		t.Fatalf("resumed store has no checkpoint: %v", err)
	}
	if ck2.Epoch <= 2 {
		t.Fatalf("resumed checkpoint epoch = %d, want > 2", ck2.Epoch)
	}
	got := make(map[uint32]bool, len(ck2.Edges))
	for _, e := range ck2.Edges {
		got[e] = true
	}
	for e := range ckEdges {
		if !got[e] {
			t.Fatalf("edge %d checkpointed before the kill is gone after resume", e)
		}
	}
	if ck2.Elapsed <= ck.Elapsed {
		t.Fatalf("campaign time did not accumulate: %v -> %v", ck.Elapsed, ck2.Elapsed)
	}
}

// TestResumeTwiceDeterministic asserts resuming is as deterministic as
// starting: two campaigns resumed from clones of the same checkpoint explore
// identically — same journal bytes, same coverage, same corpus.
func TestResumeTwiceDeterministic(t *testing.T) {
	orig := t.TempDir()
	c, err := NewCampaign(Options{OS: "rtthread", Seed: 23, CorpusDir: orig})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(25 * time.Minute); err != nil {
		t.Fatal(err)
	}
	c.Close()

	resume := func() ([]byte, *Report) {
		clone := t.TempDir()
		copyStore(t, orig, clone)
		var buf bytes.Buffer
		r, err := NewCampaign(Options{OS: "rtthread", CorpusDir: clone, Resume: true, TraceJSONL: &buf})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		rep, err := r.Run(15 * time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), rep
	}
	j1, rep1 := resume()
	j2, rep2 := resume()
	if !bytes.Equal(j1, j2) {
		t.Fatal("journals differ between two resumes of the same checkpoint")
	}
	if rep1.Execs != rep2.Execs || rep1.Edges != rep2.Edges || len(rep1.Bugs) != len(rep2.Bugs) {
		t.Fatalf("reports differ between two resumes:\n%+v\n%+v", rep1, rep2)
	}
	if j, err := journal.Read(bytes.NewReader(j1)); err != nil {
		t.Fatalf("resumed journal does not parse: %v", err)
	} else if j.Header.Seed == 23 {
		t.Fatal("resumed journal header still records the base seed; RNG cursor not advanced")
	}
}

// TestCorruptCheckpointDegrades asserts a resume survives checkpoint bitrot:
// the damaged file is quarantined and the campaign degrades to the previous
// good checkpoint instead of failing.
func TestCorruptCheckpointDegrades(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCampaign(Options{OS: "rtthread", Seed: 23, CorpusDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(25 * time.Minute); err != nil {
		t.Fatal(err)
	}
	c.Close()

	ckPath := filepath.Join(dir, "rtthread", "stm32h745", "checkpoint.json")
	data, err := os.ReadFile(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(ckPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := NewCampaign(Options{OS: "rtthread", CorpusDir: dir, Resume: true})
	if err != nil {
		t.Fatalf("resume failed on a recoverable store: %v", err)
	}
	defer r.Close()
	rep, err := r.Run(10 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	p := rep.Persist
	if p == nil || !p.Resumed {
		t.Fatalf("degraded resume's persist report: %+v", p)
	}
	if len(p.Warnings) == 0 {
		t.Fatal("corrupt checkpoint left no warning")
	}
	if p.PriorEpochs == 0 {
		t.Fatal("previous good checkpoint not used")
	}
	if _, err := os.Stat(filepath.Join(dir, "damaged")); err != nil {
		t.Fatalf("damaged checkpoint not quarantined: %v", err)
	}
}

// TestGracefulStopCommitsCheckpoint asserts RequestStop drains at the next
// barrier with a final durable checkpoint, instead of abandoning the epoch.
func TestGracefulStopCommitsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCampaign(Options{OS: "rtthread", Seed: 23, CorpusDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.persist.AfterCheckpoint = func(epoch int) {
		if epoch == 1 {
			c.RequestStop()
		}
	}
	rep, err := c.Run(2 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Duration >= 2*time.Hour {
		t.Fatalf("stop request ignored: ran the full %v budget", rep.Duration)
	}
	s, err := corpus.Open(dir, "rtthread", "stm32h745")
	if err != nil {
		t.Fatal(err)
	}
	ck, err := s.LoadCheckpoint()
	if err != nil || ck == nil {
		t.Fatalf("drained campaign left no checkpoint: %v", err)
	}
}
