package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/eof-fuzz/eof/internal/vtime"
)

func TestTracerStampsAndForwards(t *testing.T) {
	clock := &vtime.Clock{}
	clock.Advance(3 * time.Second)
	buf := NewBuffer()
	tr := New(2, clock, 0)
	tr.SetSink(buf)

	tr.Emit(Event{Kind: ExecBegin, Exec: 1})
	clock.Advance(time.Second)
	tr.Emit(Event{Kind: ExecEnd, Exec: 1})

	evs := buf.Events()
	if len(evs) != 2 {
		t.Fatalf("sink saw %d events, want 2", len(evs))
	}
	if evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Fatalf("bad sequence numbers: %d, %d", evs[0].Seq, evs[1].Seq)
	}
	if evs[0].Shard != 2 || evs[1].Shard != 2 {
		t.Fatalf("shard tag lost: %+v", evs)
	}
	if evs[0].At != 3*time.Second || evs[1].At != 4*time.Second {
		t.Fatalf("virtual stamps wrong: %v, %v", evs[0].At, evs[1].At)
	}
	if tr.Emitted() != 2 {
		t.Fatalf("Emitted() = %d, want 2", tr.Emitted())
	}
}

func TestFlightRecorderKeepsLastN(t *testing.T) {
	clock := &vtime.Clock{}
	tr := New(0, clock, 4)
	for i := 1; i <= 10; i++ {
		tr.Emit(Event{Kind: ExecBegin, Exec: i})
	}
	recent := tr.Recent()
	if len(recent) != 4 {
		t.Fatalf("ring returned %d events, want 4", len(recent))
	}
	for i, ev := range recent {
		if ev.Exec != 7+i {
			t.Fatalf("ring[%d].Exec = %d, want %d (oldest first)", i, ev.Exec, 7+i)
		}
	}
}

func TestFlightRecorderPartialFill(t *testing.T) {
	tr := New(0, &vtime.Clock{}, 8)
	tr.Emit(Event{Kind: ExecBegin, Exec: 1})
	tr.Emit(Event{Kind: ExecEnd, Exec: 1})
	recent := tr.Recent()
	if len(recent) != 2 {
		t.Fatalf("partial ring returned %d events, want 2", len(recent))
	}
	if recent[0].Kind != ExecBegin || recent[1].Kind != ExecEnd {
		t.Fatalf("partial ring out of order: %+v", recent)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var out bytes.Buffer
	sink := NewJSONL(&out)
	clock := &vtime.Clock{}
	clock.Advance(1500 * time.Millisecond)
	tr := New(1, clock, 0)
	tr.SetSink(sink)

	tr.Emit(Event{Kind: RestoreBegin, Exec: 42, Reason: `crash "quoted"`})
	tr.Emit(Event{Kind: CovGain, Exec: 42, Edges: 17})
	tr.Emit(Event{Kind: RestoreEnd, Exec: 42, Reason: "crash", Dur: 250 * time.Millisecond})
	if sink.Err() != nil {
		t.Fatal(sink.Err())
	}

	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	type row struct {
		Seq   uint64 `json:"seq"`
		AtNS  int64  `json:"at_ns"`
		Shard int    `json:"shard"`
		Kind  string `json:"kind"`
		Exec  int    `json:"exec"`
		Edges int    `json:"edges"`
		Rsn   string `json:"reason"`
		DurNS int64  `json:"dur_ns"`
	}
	var rows []row
	for i, l := range lines {
		var r row
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, l)
		}
		rows = append(rows, r)
	}
	if rows[0].Kind != "restore-begin" || rows[0].Rsn != `crash "quoted"` || rows[0].Exec != 42 {
		t.Fatalf("row 0 mangled: %+v", rows[0])
	}
	if rows[0].AtNS != (1500*time.Millisecond).Nanoseconds() || rows[0].Shard != 1 {
		t.Fatalf("row 0 stamps wrong: %+v", rows[0])
	}
	if rows[1].Kind != "cov-gain" || rows[1].Edges != 17 {
		t.Fatalf("row 1 mangled: %+v", rows[1])
	}
	if rows[2].Kind != "restore-end" || rows[2].DurNS != (250*time.Millisecond).Nanoseconds() {
		t.Fatalf("row 2 mangled: %+v", rows[2])
	}
}

// TestJSONLReasonEscapes checks that any reason, control characters and
// invalid UTF-8 included, is written as a JSON string that decodes back to
// it (invalid bytes as U+FFFD), and that plain ASCII is written as before.
func TestJSONLReasonEscapes(t *testing.T) {
	for _, tc := range []struct{ reason, want, line string }{
		{`crash "q" \ a`, `crash "q" \ a`, `"reason":"crash \"q\" \\ a"`},
		{"tab\tnl\ncr\r", "tab\tnl\ncr\r", `"reason":"tab\tnl\ncr\r"`},
		{"bel\a del\x7f", "bel\a del\x7f", `"reason":"bel\u0007 del\u007f"`},
		{"bad\xffutf8 é", "bad�utf8 é", `"reason":"bad` + "�" + `utf8 é"`},
	} {
		line := AppendJSON(nil, Event{Kind: Bug, Reason: tc.reason})
		if !bytes.Contains(line, []byte(tc.line)) {
			t.Errorf("reason %q written as %s, want it to contain %s", tc.reason, line, tc.line)
		}
		var row struct {
			Reason string `json:"reason"`
		}
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatalf("reason %q: line is not JSON: %v\n%s", tc.reason, err, line)
		}
		if row.Reason != tc.want {
			t.Errorf("reason %q decoded as %q, want %q", tc.reason, row.Reason, tc.want)
		}
	}
}

func TestBufferDrainResets(t *testing.T) {
	b := NewBuffer()
	b.Emit(Event{Kind: ExecBegin})
	b.Emit(Event{Kind: ExecEnd})
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
	evs := b.Drain()
	if len(evs) != 2 || b.Len() != 0 {
		t.Fatalf("drain returned %d, left %d", len(evs), b.Len())
	}
}

func TestMultiFansOut(t *testing.T) {
	a, b := NewBuffer(), NewBuffer()
	m := Multi(a, b)
	m.Emit(Event{Kind: Bug})
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatalf("fan-out missed a sink: %d, %d", a.Len(), b.Len())
	}
}

func TestStatusPrintsAtInterval(t *testing.T) {
	var out bytes.Buffer
	s := NewStatus(&out, time.Second)
	base := time.Unix(1000, 0)
	now := base
	s.now = func() time.Time { return now }

	emit := func(ev Event) { s.Emit(ev) }
	emit(Event{Kind: ExecEnd, At: 100 * time.Millisecond, Exec: 1})
	if out.Len() != 0 {
		t.Fatalf("printed before the interval elapsed: %q", out.String())
	}
	now = base.Add(1500 * time.Millisecond)
	emit(Event{Kind: CovGain, At: 2 * time.Second, Edges: 30})
	emit(Event{Kind: ExecEnd, At: 2 * time.Second, Exec: 2})
	line := out.String()
	if line == "" {
		t.Fatal("no status line after the interval elapsed")
	}
	if !strings.Contains(line, "execs=1") || !strings.Contains(line, "edges=30") {
		t.Fatalf("status line missing counters: %q", line)
	}
	if !strings.Contains(line, "link: ok") {
		t.Fatalf("healthy link not reported: %q", line)
	}

	out.Reset()
	now = now.Add(2 * time.Second)
	emit(Event{Kind: LinkRetry, At: 3 * time.Second})
	if !strings.Contains(out.String(), "1 retries") {
		t.Fatalf("link trouble not reported: %q", out.String())
	}
}

func TestTimeByArithmetic(t *testing.T) {
	var tb TimeBy
	tb.Add(CatExec, 6*time.Second)
	tb.Add(CatRestore, time.Second)
	tb.Add(CatReflash, 2*time.Second)
	tb.Add(CatLink, time.Second)
	if tb.Sum() != 10*time.Second {
		t.Fatalf("Sum = %v, want 10s", tb.Sum())
	}
	if got := tb.Share(CatExec); got != 0.6 {
		t.Fatalf("Share(exec) = %v, want 0.6", got)
	}
	for _, c := range Categories() {
		if tb.Of(c) < 0 {
			t.Fatalf("negative bucket %v", c)
		}
	}
	var merged TimeBy
	merged.Merge(tb)
	merged.Merge(tb)
	if merged.Sum() != 20*time.Second {
		t.Fatalf("merged Sum = %v, want 20s", merged.Sum())
	}
	s := tb.String()
	if !strings.Contains(s, "executing=6s (60.0%)") {
		t.Fatalf("String() = %q", s)
	}
}

func TestAccountantAttributesClockDeltas(t *testing.T) {
	clock := &vtime.Clock{}
	a := NewAccountant(clock)
	start := a.Begin()
	clock.Advance(3 * time.Second)
	a.End(CatExec, start)
	start = a.Begin()
	clock.Advance(time.Second)
	a.End(CatLink, start)
	tb := a.Snapshot()
	if tb.Executing != 3*time.Second || tb.LinkOverhead != time.Second {
		t.Fatalf("bad attribution: %+v", tb)
	}
	if tb.Sum() != clock.Now() {
		t.Fatalf("accounted %v != clock %v", tb.Sum(), clock.Now())
	}
	a.Reset()
	if a.Snapshot().Sum() != 0 {
		t.Fatal("Reset left residue")
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "" || k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
}

// BenchmarkEmitNop measures the tracer hot path with the default discard
// sink — the cost every campaign pays whether or not tracing is consumed.
func BenchmarkEmitNop(b *testing.B) {
	tr := New(0, &vtime.Clock{}, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(Event{Kind: ExecEnd, Exec: i})
	}
}
