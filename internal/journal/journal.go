// Package journal reads and mines the deterministic JSONL campaign journals
// written by `-trace`. It is the offline half of the telemetry layer: where
// internal/metrics watches a live campaign, this package reconstructs
// throughput, time-to-coverage, board-time budgets and cross-tier verdicts
// from a finished journal without re-running anything — the analyses behind
// the eoftrace CLI.
package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/eof-fuzz/eof/internal/trace"
)

// Journal is one parsed campaign journal.
type Journal struct {
	// Header is the versioned preamble; HasHeader is false for journals
	// written before the header record existed (readers warn but proceed).
	Header    trace.Header
	HasHeader bool
	Events    []trace.Event
	// TornTail is non-empty when the journal's final line failed to decode:
	// a campaign killed mid-write (crash, kill -9, power loss) tears at most
	// the last line, so readers treat it as a warning — the events before it
	// are intact — instead of rejecting the whole journal. A decode failure
	// anywhere but the final line is still an error.
	TornTail string
}

// wireEvent mirrors trace.AppendJSON's field names for decoding.
type wireEvent struct {
	Seq    uint64 `json:"seq"`
	AtNS   int64  `json:"at_ns"`
	Shard  int    `json:"shard"`
	Kind   string `json:"kind"`
	Exec   int    `json:"exec"`
	Edges  int    `json:"edges"`
	Reason string `json:"reason"`
	DurNS  int64  `json:"dur_ns"`
}

// Read parses a JSONL journal. The first line may be a versioned header;
// unknown schema versions are an error (the wire format may have changed
// under the reader), a missing header is tolerated for pre-versioning
// journals. Unknown event kinds within a supported version are an error —
// they indicate a corrupt or newer-than-claimed journal — unless they occur
// on the final line, where a decode failure of either sort means the writer
// was killed mid-line: the journal is returned with TornTail set instead.
func Read(r io.Reader) (*Journal, error) {
	j := &Journal{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	// pending holds a decode failure until the next line proves it was not
	// the journal's torn tail.
	var pending error
	for sc.Scan() {
		line := sc.Bytes()
		lineNo++
		if len(line) == 0 {
			continue
		}
		if pending != nil {
			return nil, pending
		}
		if lineNo == 1 && trace.IsHeaderLine(line) {
			h, err := trace.ParseHeader(line)
			if err != nil {
				return nil, err
			}
			j.Header = h
			j.HasHeader = true
			continue
		}
		var we wireEvent
		if err := json.Unmarshal(line, &we); err != nil {
			pending = fmt.Errorf("journal: line %d: %w", lineNo, err)
			continue
		}
		kind, ok := trace.KindByName(we.Kind)
		if !ok {
			pending = fmt.Errorf("journal: line %d: unknown event kind %q", lineNo, we.Kind)
			continue
		}
		j.Events = append(j.Events, trace.Event{
			Seq:    we.Seq,
			At:     time.Duration(we.AtNS),
			Shard:  we.Shard,
			Kind:   kind,
			Exec:   we.Exec,
			Edges:  we.Edges,
			Reason: we.Reason,
			Dur:    time.Duration(we.DurNS),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if pending != nil {
		j.TornTail = fmt.Sprintf("torn final line tolerated (%v)", pending)
	}
	return j, nil
}

// emulStart returns the first emulation-tier shard index, or -1. Headerless
// journals cannot be tier-attributed, so everything counts as hardware.
func (j *Journal) emulStart() int {
	if !j.HasHeader {
		return -1
	}
	return j.Header.EmulStart()
}

// Summarize folds a journal's events into its campaign overview: the same
// trace.Fold the live status line and metrics server keep, tier-attributed by
// the journal header.
func Summarize(j *Journal) *trace.Fold {
	f := trace.NewFold(j.emulStart())
	for _, ev := range j.Events {
		f.Apply(ev)
	}
	return &f
}

// CovPoint is one step of the time-to-coverage series.
type CovPoint struct {
	At    time.Duration
	Edges int // cumulative hardware-tier edges
}

// Plateau is a coverage stall: the longest virtual-time window containing no
// hardware-tier coverage gain (including the leading window before the first
// gain and the trailing window after the last one).
type Plateau struct {
	Start, End time.Duration
}

// Dur returns the plateau length.
func (p Plateau) Dur() time.Duration { return p.End - p.Start }

// Cov extracts the time-to-coverage series and the longest plateau. The
// series steps at every hardware-tier cov-gain event; end is the campaign's
// virtual end (for the trailing plateau window). Fleet journals interleave
// shard streams per sync epoch, so gains are re-sorted onto the virtual
// timeline before accumulating.
func Cov(j *Journal) ([]CovPoint, Plateau) {
	emulStart := j.emulStart()
	var pts []CovPoint
	end := time.Duration(0)
	for _, ev := range j.Events {
		if ev.At > end {
			end = ev.At
		}
		if ev.Kind != trace.CovGain {
			continue
		}
		if emulStart >= 0 && ev.Shard >= emulStart {
			continue
		}
		pts = append(pts, CovPoint{At: ev.At, Edges: ev.Edges})
	}
	sort.SliceStable(pts, func(a, b int) bool { return pts[a].At < pts[b].At })
	sum := 0
	for i := range pts {
		sum += pts[i].Edges
		pts[i].Edges = sum
	}
	plateau := Plateau{Start: 0, End: end}
	if len(pts) > 0 {
		plateau = Plateau{Start: 0, End: pts[0].At}
		prev := pts[0].At
		for _, p := range pts[1:] {
			if p.At-prev > plateau.Dur() {
				plateau = Plateau{Start: prev, End: p.At}
			}
			prev = p.At
		}
		if end-prev > plateau.Dur() {
			plateau = Plateau{Start: prev, End: end}
		}
	}
	return pts, plateau
}

// Sink is one aggregated time sink for the bottleneck analysis.
type Sink struct {
	Shard    int
	Tier     string // "hw" or "emul" ("" for headerless journals)
	Category string
	Dur      time.Duration
	Share    float64 // of the shard's accounted duration
}

// Bottlenecks ranks board-time sinks per shard from the TimeBudget records,
// worst first within each shard (shards in index order). Journals predating
// the records yield a partial ranking rebuilt from restore/triage end-event
// durations.
func Bottlenecks(j *Journal) []Sink {
	s := Summarize(j)
	emulStart := j.emulStart()
	var out []Sink
	if len(s.Budgets) > 0 {
		for _, b := range s.Budgets {
			total := b.Duration
			if total == 0 {
				total = b.TimeBy.Sum()
			}
			var sinks []Sink
			for _, c := range trace.Categories() {
				d := b.TimeBy.Of(c)
				share := 0.0
				if total > 0 {
					share = float64(d) / float64(total)
				}
				sinks = append(sinks, Sink{Shard: b.Shard, Category: c.String(), Dur: d, Share: share})
			}
			sortSinks(sinks)
			for i := range sinks {
				if emulStart >= 0 {
					if sinks[i].Shard >= emulStart {
						sinks[i].Tier = "emul"
					} else {
						sinks[i].Tier = "hw"
					}
				}
			}
			out = append(out, sinks...)
		}
		return out
	}
	// Fallback: begin/end pairs carry the only durations in old journals.
	perShard := map[int]map[string]time.Duration{}
	for _, ev := range j.Events {
		if ev.Shard < 0 {
			continue // campaign-level streams are not boards
		}
		var cat string
		switch ev.Kind {
		case trace.RestoreEnd:
			cat = "restoring"
		case trace.TriageEnd:
			cat = "triaging"
		default:
			continue
		}
		m := perShard[ev.Shard]
		if m == nil {
			m = map[string]time.Duration{}
			perShard[ev.Shard] = m
		}
		m[cat] += ev.Dur
	}
	shards := make([]int, 0, len(perShard))
	for shard := range perShard {
		shards = append(shards, shard)
	}
	sort.Ints(shards)
	for _, shard := range shards {
		m := perShard[shard]
		var sinks []Sink
		for _, cat := range []string{"restoring", "triaging"} {
			if d, ok := m[cat]; ok {
				sinks = append(sinks, Sink{Shard: shard, Category: cat, Dur: d})
			}
		}
		sortSinks(sinks)
		out = append(out, sinks...)
	}
	return out
}

func sortSinks(sinks []Sink) {
	for i := 1; i < len(sinks); i++ {
		for k := i; k > 0 && sinks[k].Dur > sinks[k-1].Dur; k-- {
			sinks[k], sinks[k-1] = sinks[k-1], sinks[k]
		}
	}
}

// Verdict is one entry of the cross-tier confirmation timeline.
type Verdict struct {
	At        time.Duration
	HWShard   int // the confirming hardware engine
	EmulShard int // the emulation shard that proposed the observation
	Confirmed bool
	Reason    string // "cov", "crash:<cluster>", or the divergence kind
	Edges     int
}

// Divergences extracts the tier-confirm / tier-diverge timeline in journal
// order (empty for untiered campaigns).
func Divergences(j *Journal) []Verdict {
	var out []Verdict
	for _, ev := range j.Events {
		switch ev.Kind {
		case trace.TierConfirm, trace.TierDiverge:
			out = append(out, Verdict{
				At:        ev.At,
				HWShard:   ev.Shard,
				EmulShard: ev.Exec,
				Confirmed: ev.Kind == trace.TierConfirm,
				Reason:    ev.Reason,
				Edges:     ev.Edges,
			})
		}
	}
	return out
}
