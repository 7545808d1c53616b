package journal

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"github.com/eof-fuzz/eof/internal/trace"
)

// FuzzRead feeds arbitrary bytes to the journal reader and every analysis
// behind eoftrace. A journal is untrusted input (a torn, truncated or
// hand-edited file), so neither reading nor analysing it may panic, and its
// fold must satisfy what holds for any event sequence. A journal that reads
// cleanly must also survive a round trip: re-encoding its header and events
// with the writer's own encoders and reading them back yields the same
// journal and the same fold.
func FuzzRead(f *testing.F) {
	hdr := trace.Header{OS: "zephyr", Board: "stm32h745", Seed: 9, Shards: 2, EmulShards: 1, Digest: "abc"}
	f.Add(synth(&hdr, []trace.Event{
		{Kind: trace.ExecEnd, Shard: 0, Exec: 1, At: time.Second},
		{Kind: trace.CovGain, Shard: 2, Edges: 5, At: time.Second, Reason: "x"},
		{Kind: trace.TierDiverge, Shard: 0, Exec: 2, Reason: "emul-only-cov", Edges: 3},
		{Kind: trace.TimeBudget, Shard: 0, Reason: "executing", Dur: time.Minute},
		{Kind: trace.TimeBudget, Shard: 0, Reason: "duration", Dur: time.Minute},
		{Kind: trace.Checkpoint, Shard: -1, Exec: 1, Edges: 9},
	}))
	f.Add(synth(nil, []trace.Event{{Kind: trace.RestoreBegin, Reason: "crash"}, {Kind: trace.RestoreEnd, Dur: 5}}))
	f.Add([]byte(`{"seq":0,"at_ns":2,"shard":0,"kind":"exec-end"}` + "\n" + `{"seq":1,"at_ns":`))
	f.Add([]byte(`{"seq":0,"at_ns":1,"shard":-7,"kind":"triage-end","reason":"a\u0007b","dur_ns":-3}` + "\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		j, err := Read(bytes.NewReader(raw))
		if err != nil {
			return
		}
		f := Summarize(j)
		checkFold(t, f)
		Cov(j)
		Bottlenecks(j)
		Divergences(j)
		if j.TornTail != "" {
			return
		}
		var again []byte
		if j.HasHeader {
			again = trace.AppendHeaderJSON(again, j.Header)
		}
		for _, ev := range j.Events {
			again = trace.AppendJSON(again, ev)
		}
		k, err := Read(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("re-encoded journal does not read back: %v\n%s", err, again)
		}
		if k.HasHeader != j.HasHeader || k.Header != j.Header || k.TornTail != "" ||
			!reflect.DeepEqual(k.Events, j.Events) {
			t.Fatalf("journal changed over a write/read round trip:\n%+v\n%+v", j, k)
		}
		if g := Summarize(k); !reflect.DeepEqual(f, g) {
			t.Fatalf("fold changed over a write/read round trip:\n%+v\n%+v", f, g)
		}
	})
}

// checkFold asserts the fold invariants that hold for any event sequence.
func checkFold(t *testing.T, f *trace.Fold) {
	t.Helper()
	execs := 0
	for _, sh := range f.PerShard() {
		execs += sh.Execs
	}
	if execs != f.Execs {
		t.Fatalf("per-shard execs sum to %d, total %d", execs, f.Execs)
	}
	if f.HWExecs+f.EmExecs != f.Execs {
		t.Fatalf("hw %d + emul %d execs != total %d", f.HWExecs, f.EmExecs, f.Execs)
	}
	restores := 0
	for _, n := range f.ByReason {
		restores += n
	}
	if restores != f.Restores {
		t.Fatalf("by-reason restores sum to %d, total %d", restores, f.Restores)
	}
	for i, b := range f.Budgets {
		if b.Shard < 0 || (i > 0 && b.Shard <= f.Budgets[i-1].Shard) {
			t.Fatalf("budgets not once each in ascending board order: %+v", f.Budgets)
		}
	}
}
