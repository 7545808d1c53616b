package journal

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/eof-fuzz/eof/internal/trace"
)

// synth builds a JSONL journal from a header (nil for headerless) and events.
func synth(hdr *trace.Header, evs []trace.Event) []byte {
	var b []byte
	if hdr != nil {
		b = trace.AppendHeaderJSON(b, *hdr)
	}
	for i, ev := range evs {
		ev.Seq = uint64(i)
		b = trace.AppendJSON(b, ev)
	}
	return b
}

func TestReadHeaderAndEvents(t *testing.T) {
	hdr := trace.Header{OS: "zephyr", Board: "stm32h745", Seed: 9, Shards: 2, EmulShards: 3, Digest: "abc"}
	raw := synth(&hdr, []trace.Event{
		{Kind: trace.ExecEnd, Shard: 0, Exec: 1, At: time.Second},
		{Kind: trace.CovGain, Shard: 0, Edges: 5, At: time.Second, Reason: "x"},
	})
	j, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !j.HasHeader || j.Header.OS != "zephyr" || j.Header.EmulShards != 3 {
		t.Fatalf("header: %+v", j.Header)
	}
	if j.Header.EmulStart() != 2 {
		t.Fatalf("emul start: %d", j.Header.EmulStart())
	}
	if len(j.Events) != 2 || j.Events[1].Kind != trace.CovGain || j.Events[1].Edges != 5 {
		t.Fatalf("events: %+v", j.Events)
	}
}

func TestReadHeaderless(t *testing.T) {
	raw := synth(nil, []trace.Event{{Kind: trace.ExecEnd, Shard: 0, At: time.Second}})
	j, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if j.HasHeader {
		t.Fatal("phantom header")
	}
	if j.emulStart() != -1 {
		t.Fatalf("headerless journals must not tier-attribute: %d", j.emulStart())
	}
}

func TestReadRejectsFutureVersionAndUnknownKind(t *testing.T) {
	future := `{"kind":"journal","v":99,"os":"zephyr","board":"b","seed":1,"shards":1}` + "\n"
	if _, err := Read(strings.NewReader(future)); err == nil {
		t.Fatal("future schema version accepted")
	}
	// An unknown kind (or any decode failure) anywhere but the final line is
	// a hard error: later well-formed lines prove the journal was not torn.
	unknown := synth(nil, nil)
	unknown = append(unknown, []byte(`{"seq":0,"at_ns":2,"shard":0,"kind":"warp-drive"}`+"\n")...)
	unknown = append(unknown, trace.AppendJSON(nil, trace.Event{Kind: trace.ExecEnd})...)
	if _, err := Read(bytes.NewReader(unknown)); err == nil {
		t.Fatal("unknown event kind followed by more lines accepted")
	}
}

// TestReadToleratesTornTail checks the crash-consistency contract: a journal
// whose writer was killed mid-line (kill -9, power loss) parses with a
// TornTail warning instead of an error, keeping every intact event.
func TestReadToleratesTornTail(t *testing.T) {
	raw := synth(nil, []trace.Event{
		{Kind: trace.ExecEnd, Shard: 0, At: time.Second},
		{Kind: trace.CovGain, Shard: 0, Edges: 3, At: 2 * time.Second},
	})
	// Tear the final line mid-record.
	torn := raw[:len(raw)-15]
	j, err := Read(bytes.NewReader(torn))
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if len(j.Events) != 1 || j.Events[0].Kind != trace.ExecEnd {
		t.Fatalf("intact prefix lost: %+v", j.Events)
	}
	if j.TornTail == "" {
		t.Fatal("torn tail not reported")
	}
	// An unknown kind on the final line is the same story: the writer may
	// have died mid-word.
	unk := synth(nil, []trace.Event{{Kind: trace.ExecEnd}})
	unk = append(unk, []byte(`{"seq":1,"at_ns":2,"shard":0,"kind":"warp`)...)
	j, err = Read(bytes.NewReader(unk))
	if err != nil || j.TornTail == "" || len(j.Events) != 1 {
		t.Fatalf("final-line decode failure: j=%+v err=%v", j, err)
	}
	// An intact journal reports no tear.
	j = mustRead(t, raw)
	if j.TornTail != "" {
		t.Fatalf("phantom tear: %s", j.TornTail)
	}
}

// TestSummarizeSkipsCampaignStream checks that the persistence layer's
// shard -1 events count as zero boards but still surface in the summary's
// checkpoint/distill audit counters (they used to vanish silently).
func TestSummarizeSkipsCampaignStream(t *testing.T) {
	evs := []trace.Event{
		{Kind: trace.ExecEnd, Shard: 0, At: time.Second},
		{Kind: trace.Checkpoint, Shard: -1, Exec: 1, Edges: 12, At: time.Second},
		{Kind: trace.Checkpoint, Shard: -1, Exec: 2, Edges: 20, At: 2 * time.Second},
		{Kind: trace.Distill, Shard: -1, Exec: 2, Edges: 3, Reason: "kept:4", At: 2 * time.Second},
	}
	s := Summarize(mustRead(t, synth(nil, evs)))
	if s.Shards != 1 {
		t.Fatalf("shards = %d, want 1 (campaign stream is not a board)", s.Shards)
	}
	if s.Events != 4 {
		t.Fatalf("events = %d", s.Events)
	}
	if s.Checkpoints != 2 || s.DurableEdges != 20 {
		t.Fatalf("checkpoints = %d durable edges = %d, want 2 and 20", s.Checkpoints, s.DurableEdges)
	}
	if s.Distills != 1 || s.DistillDropped != 3 {
		t.Fatalf("distills = %d dropped = %d, want 1 and 3", s.Distills, s.DistillDropped)
	}
	// A store-less campaign reports a clean zero audit trail.
	plain := Summarize(mustRead(t, synth(nil, evs[:1])))
	if plain.Checkpoints != 0 || plain.Distills != 0 || plain.DurableEdges != 0 {
		t.Fatalf("phantom persistence counters: %+v", plain)
	}
}

// TestSummarizeBudgets checks the TimeBudget reconstruction: per-shard buckets,
// the invariant cross-check (Drift), merged TimeBy, and tier attribution.
func TestSummarizeBudgets(t *testing.T) {
	hdr := trace.Header{OS: "freertos", Board: "b", Seed: 1, Shards: 1, EmulShards: 1}
	evs := []trace.Event{
		{Kind: trace.ExecEnd, Shard: 0, At: time.Second},
		{Kind: trace.ExecEnd, Shard: 1, At: time.Second}, // emul tier (EmulStart==1)
		{Kind: trace.RestoreBegin, Shard: 0, Reason: "crash", At: 2 * time.Second},
		{Kind: trace.SyncEpoch, Shard: 0, Edges: 40, At: 3 * time.Second},
		{Kind: trace.SyncEpoch, Shard: 1, Edges: 70, At: 3 * time.Second},
		// Shard 0: consistent budget (sums to duration).
		{Kind: trace.TimeBudget, Shard: 0, Reason: "executing", Dur: 6 * time.Second, At: 10 * time.Second},
		{Kind: trace.TimeBudget, Shard: 0, Reason: "restoring", Dur: 4 * time.Second, At: 10 * time.Second},
		{Kind: trace.TimeBudget, Shard: 0, Reason: "restoring-delta", Dur: 3 * time.Second, At: 10 * time.Second},
		{Kind: trace.TimeBudget, Shard: 0, Reason: "restoring-full", Dur: time.Second, At: 10 * time.Second},
		{Kind: trace.TimeBudget, Shard: 0, Reason: "duration", Dur: 10 * time.Second, At: 10 * time.Second},
		// Shard 1: drifting budget (9s accounted vs 10s duration).
		{Kind: trace.TimeBudget, Shard: 1, Reason: "executing", Dur: 9 * time.Second, At: 10 * time.Second},
		{Kind: trace.TimeBudget, Shard: 1, Reason: "duration", Dur: 10 * time.Second, At: 10 * time.Second},
	}
	s := Summarize(mustRead(t, synth(&hdr, evs)))
	if s.Shards != 2 || s.Execs != 2 || s.HWExecs != 1 || s.EmExecs != 1 {
		t.Fatalf("totals: %+v", s)
	}
	if s.Edges != 40 || s.EmEdges != 70 {
		t.Fatalf("per-tier edges: hw=%d emul=%d", s.Edges, s.EmEdges)
	}
	if s.Restores != 1 || s.ByReason["crash"] != 1 {
		t.Fatalf("restores: %d %v", s.Restores, s.ByReason)
	}
	if len(s.Budgets) != 2 {
		t.Fatalf("budgets: %+v", s.Budgets)
	}
	b0, b1 := s.Budgets[0], s.Budgets[1]
	if b0.Shard != 0 || b0.Drift != 0 || b0.TimeBy.Executing != 6*time.Second {
		t.Fatalf("shard 0 budget: %+v", b0)
	}
	if b0.TimeBy.RestoringDelta != 3*time.Second || b0.TimeBy.RestoringFull != time.Second {
		t.Fatalf("shard 0 restore split: %+v", b0.TimeBy)
	}
	if b1.Drift != -time.Second {
		t.Fatalf("shard 1 drift: %v", b1.Drift)
	}
	if s.TimeBy.Executing != 15*time.Second || s.Duration != 10*time.Second {
		t.Fatalf("merged budget: %+v dur %v", s.TimeBy, s.Duration)
	}
}

// TestAnalysesReturnOnOutlyingShards pins two journals that used to hang the
// analyses: a budget on the campaign-level shard -1, which a walk counting up
// from shard 0 never reaches, and a restore at a huge shard index, which the
// pre-budget fallback walked up to one index at a time.
func TestAnalysesReturnOnOutlyingShards(t *testing.T) {
	for _, line := range []string{
		`{"seq":0,"at_ns":1,"shard":-1,"kind":"time-budget","reason":"executing","dur_ns":5}`,
		`{"seq":0,"at_ns":1,"shard":4000000000000,"kind":"restore-end","dur_ns":5}`,
	} {
		j := mustRead(t, []byte(line+"\n"))
		done := make(chan struct{})
		go func() {
			defer close(done)
			Summarize(j)
			Bottlenecks(j)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("analyses did not return within 5s on %s", line)
		}
	}
}

func TestCovPlateau(t *testing.T) {
	hdr := trace.Header{OS: "freertos", Board: "b", Seed: 1, Shards: 1, EmulShards: 1}
	evs := []trace.Event{
		{Kind: trace.CovGain, Shard: 0, Edges: 10, At: 1 * time.Second},
		{Kind: trace.CovGain, Shard: 0, Edges: 5, At: 2 * time.Second},
		{Kind: trace.CovGain, Shard: 1, Edges: 99, At: 3 * time.Second}, // emul: excluded
		{Kind: trace.CovGain, Shard: 0, Edges: 1, At: 9 * time.Second},
		{Kind: trace.ExecEnd, Shard: 0, At: 12 * time.Second},
	}
	pts, plateau := Cov(mustRead(t, synth(&hdr, evs)))
	if len(pts) != 3 {
		t.Fatalf("series: %+v", pts)
	}
	if pts[2].Edges != 16 || pts[2].At != 9*time.Second {
		t.Fatalf("cumulative series wrong: %+v", pts)
	}
	// Longest zero-gain window: 2s..9s.
	if plateau.Start != 2*time.Second || plateau.End != 9*time.Second {
		t.Fatalf("plateau: %+v", plateau)
	}
}

func TestBottlenecksRankWorstFirst(t *testing.T) {
	hdr := trace.Header{OS: "freertos", Board: "b", Seed: 1, Shards: 1}
	evs := []trace.Event{
		{Kind: trace.TimeBudget, Shard: 0, Reason: "executing", Dur: 2 * time.Second},
		{Kind: trace.TimeBudget, Shard: 0, Reason: "restoring", Dur: 7 * time.Second},
		{Kind: trace.TimeBudget, Shard: 0, Reason: "sync-barrier", Dur: time.Second},
		{Kind: trace.TimeBudget, Shard: 0, Reason: "duration", Dur: 10 * time.Second},
	}
	sinks := Bottlenecks(mustRead(t, synth(&hdr, evs)))
	if len(sinks) == 0 || sinks[0].Category != "restoring" || sinks[0].Share != 0.7 {
		t.Fatalf("ranking: %+v", sinks)
	}
	if sinks[1].Category != "executing" || sinks[0].Tier != "" {
		t.Fatalf("ranking tail / untiered tier label: %+v", sinks)
	}

	// Old journals without TimeBudget records fall back to end-event durations.
	old := []trace.Event{
		{Kind: trace.RestoreEnd, Shard: 0, Reason: "crash", Dur: 3 * time.Second},
		{Kind: trace.TriageEnd, Shard: 0, Dur: 5 * time.Second},
	}
	sinks = Bottlenecks(mustRead(t, synth(nil, old)))
	if len(sinks) != 2 || sinks[0].Category != "triaging" || sinks[1].Dur != 3*time.Second {
		t.Fatalf("fallback ranking: %+v", sinks)
	}
}

func TestDivergences(t *testing.T) {
	evs := []trace.Event{
		{Kind: trace.TierConfirm, Shard: 0, Exec: 3, Reason: "cov", Edges: 4, At: time.Second},
		{Kind: trace.TierDiverge, Shard: 1, Exec: 4, Reason: "emul-only-cov", At: 2 * time.Second},
	}
	vs := Divergences(mustRead(t, synth(nil, evs)))
	if len(vs) != 2 {
		t.Fatalf("verdicts: %+v", vs)
	}
	if !vs[0].Confirmed || vs[0].HWShard != 0 || vs[0].EmulShard != 3 || vs[0].Edges != 4 {
		t.Fatalf("confirm verdict: %+v", vs[0])
	}
	if vs[1].Confirmed || vs[1].Reason != "emul-only-cov" {
		t.Fatalf("diverge verdict: %+v", vs[1])
	}
}

func mustRead(t *testing.T, raw []byte) *Journal {
	t.Helper()
	j, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return j
}
