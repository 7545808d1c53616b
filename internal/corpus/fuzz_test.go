package corpus

import (
	"bytes"
	"testing"
	"time"
)

// FuzzParseManifestLine throws arbitrary bytes at the manifest line decoder.
// It must never panic, and any line it accepts must carry a non-empty
// program that hashes to the line's hash and must re-encode to exactly the
// input bytes — a damaged or half-written manifest line can only ever
// surface as an error (which the loader turns into a dropped line), never as
// a silently different entry.
func FuzzParseManifestLine(f *testing.F) {
	seed := &Entry{
		Hash:     HashProg([]byte("prog")),
		Prog:     []byte("prog"),
		NewEdges: 3,
		Edges:    []uint32{1, 7, 9},
		Shard:    2,
		Epoch:    5,
		At:       3 * time.Second,
	}
	mismatch := *seed
	mismatch.Prog = []byte("gorp")
	f.Add(bytes.TrimRight(AppendManifestLine(nil, seed), "\n"))
	f.Add(bytes.TrimRight(AppendManifestLine(nil, &mismatch), "\n"))
	f.Add([]byte(`{"hash":"` + HashProg(nil) + `","shard":-1}`))
	f.Add([]byte(`{"hash":"` + seed.Hash + `","new_edges":3,"edges":[1,7,9],"shard":2,"epoch":5,"at_ns":3000000000}`))
	f.Add([]byte(`{"hash":"zz"}`))
	f.Add([]byte(`not json at all`))
	f.Fuzz(func(t *testing.T, line []byte) {
		e, err := ParseManifestLine(line)
		if err != nil {
			return
		}
		if len(e.Prog) == 0 || HashProg(e.Prog) != e.Hash {
			t.Fatalf("accepted entry whose program does not hash to %q: %q", e.Hash, e.Prog)
		}
		if e.NewEdges < 0 || e.Epoch < 0 || e.At < 0 || e.Shard < -1 {
			t.Fatalf("accepted entry with negative provenance: %+v", e)
		}
		enc := AppendManifestLine(nil, e)
		if !bytes.Equal(enc[:len(enc)-1], line) {
			t.Fatalf("accepted line does not re-encode byte for byte: %q -> %q", line, enc)
		}
		e2, err := ParseManifestLine(enc[:len(enc)-1])
		if err != nil {
			t.Fatalf("accepted entry does not re-parse: %v", err)
		}
		if enc2 := AppendManifestLine(nil, e2); !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed entry: %q -> %q", enc, enc2)
		}
	})
}

// FuzzDecodeCheckpoint throws arbitrary bytes at the checkpoint decoder. The
// self-checksum means a mutated checkpoint must be rejected, never partially
// believed; anything accepted must re-encode to the identical bytes.
func FuzzDecodeCheckpoint(f *testing.F) {
	valid, err := EncodeCheckpoint(&Checkpoint{
		V:        CheckpointVersion,
		OS:       "freertos",
		Board:    "stm32h745",
		Seed:     42,
		NextSeed: 42 + ResumeSeedStride,
		Epoch:    3,
		Elapsed:  90 * time.Second,
		Edges:    []uint32{1, 2, 3},
		Corpus:   []string{HashProg([]byte("p"))},
		Clusters: []string{"hf:0x2000_pc:0x8000"},
		Cursors:  []ShardCursor{{Shard: 0, Seed: 99, Execs: 1000}},
		Distills: 1,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"v":1,"checksum":"nope"}`))
	f.Add([]byte(`null`))
	f.Add(bytes.Replace(valid, []byte("freertos"), []byte("fxeertos"), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		if ck.V != CheckpointVersion {
			t.Fatalf("accepted checkpoint with version %d", ck.V)
		}
		enc, err := EncodeCheckpoint(ck)
		if err != nil {
			t.Fatalf("accepted checkpoint does not re-encode: %v", err)
		}
		ck2, err := DecodeCheckpoint(enc)
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		enc2, err := EncodeCheckpoint(ck2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed checkpoint: %q -> %q", enc, enc2)
		}
	})
}
