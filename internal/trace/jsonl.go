package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// JournalVersion is the schema version stamped into every journal header.
// Bump it whenever the event wire format changes incompatibly; readers refuse
// versions they do not know.
const JournalVersion = 1

// HeaderKind is the "kind" discriminator of the journal header record, chosen
// so it can never collide with an event kind name.
const HeaderKind = "journal"

// Header is the versioned journal preamble written as the first JSONL line:
// schema version plus enough campaign identity (target, topology, seed and an
// options digest) for offline tooling to interpret the stream — in particular
// the tier layout, so eoftrace can attribute shard indices to the hardware or
// emulation tier without guessing.
type Header struct {
	// Kind is always HeaderKind; it keeps the header distinguishable from
	// events when a reader scans line by line.
	Kind string `json:"kind"`
	// V is the journal schema version (JournalVersion at write time).
	V int `json:"v"`
	// OS, Board and Seed identify the campaign.
	OS    string `json:"os"`
	Board string `json:"board"`
	Seed  int64  `json:"seed"`
	// Shards, Spares, Triage and EmulShards describe the board topology; the
	// emulation tier's physical indices start at Shards+Spares(+1 if Triage).
	Shards     int  `json:"shards"`
	Spares     int  `json:"spares,omitempty"`
	Triage     bool `json:"triage,omitempty"`
	EmulShards int  `json:"emul_shards,omitempty"`
	// Digest fingerprints the full campaign options (FNV-64a over their
	// canonical rendering), so two journals can be compared for config drift
	// without replaying either.
	Digest string `json:"digest,omitempty"`
}

// HardwareBoards returns how many physical hardware boards the topology
// holds: the shard slots, the spares and the triage board.
func (h Header) HardwareBoards() int {
	n := h.Shards + h.Spares
	if h.Triage {
		n++
	}
	return n
}

// EmulStart returns the physical board index where the emulation tier begins
// (right after the hardware boards), or -1 for an untiered campaign.
func (h Header) EmulStart() int {
	if h.EmulShards <= 0 {
		return -1
	}
	return h.HardwareBoards()
}

// ParseHeader decodes a journal header line. It returns an error when the
// line is not a header record or names a schema version this build does not
// understand.
func ParseHeader(line []byte) (Header, error) {
	var h Header
	if err := json.Unmarshal(line, &h); err != nil {
		return Header{}, fmt.Errorf("trace: journal header: %w", err)
	}
	if h.Kind != HeaderKind {
		return Header{}, fmt.Errorf("trace: first journal line has kind %q, not a %q header", h.Kind, HeaderKind)
	}
	if h.V > JournalVersion || h.V < 1 {
		return Header{}, fmt.Errorf("trace: journal schema v%d is not supported (this build reads v1..v%d)", h.V, JournalVersion)
	}
	return h, nil
}

// AppendHeaderJSON appends h's JSON-line form (including the trailing
// newline) to b. Field order is fixed by the struct, so the header is as
// deterministic as the event stream it precedes.
func AppendHeaderJSON(b []byte, h Header) []byte {
	h.Kind = HeaderKind
	if h.V == 0 {
		h.V = JournalVersion
	}
	enc, err := json.Marshal(h)
	if err != nil {
		// A Header holds only scalars; Marshal cannot fail. Keep the
		// signature append-style anyway.
		panic("trace: header marshal: " + err.Error())
	}
	b = append(b, enc...)
	return append(b, '\n')
}

// IsHeaderLine reports whether a journal line is the header record, letting
// readers skip it cheaply without a full parse.
func IsHeaderLine(line []byte) bool {
	return strings.Contains(string(line), `"kind":"`+HeaderKind+`"`)
}

// JSONL writes every event as one JSON object per line — the `-trace <file>`
// journal format. Serialisation is hand-rolled (no reflection, one buffer
// reused across events) so an attached journal costs a few percent of
// campaign host time at most. The first write error latches and suppresses
// further writes; check Err after the campaign.
type JSONL struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
	err error
}

// NewJSONL builds a journal sink over w. Callers own w's buffering and
// closing (cmd/eof wraps the file in a bufio.Writer and flushes at exit).
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: w, buf: make([]byte, 0, 160)}
}

// Emit writes ev as one JSON line.
func (j *JSONL) Emit(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.buf = AppendJSON(j.buf[:0], ev)
	_, j.err = j.w.Write(j.buf)
}

// Err returns the first write error, if any.
func (j *JSONL) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// AppendJSON appends ev's JSON-line form (including the trailing newline)
// to b. Zero-valued payload fields are omitted.
func AppendJSON(b []byte, ev Event) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, ev.Seq, 10)
	b = append(b, `,"at_ns":`...)
	b = strconv.AppendInt(b, int64(ev.At), 10)
	b = append(b, `,"shard":`...)
	b = strconv.AppendInt(b, int64(ev.Shard), 10)
	b = append(b, `,"kind":"`...)
	b = append(b, ev.Kind.String()...)
	b = append(b, '"')
	if ev.Exec != 0 {
		b = append(b, `,"exec":`...)
		b = strconv.AppendInt(b, int64(ev.Exec), 10)
	}
	if ev.Edges != 0 {
		b = append(b, `,"edges":`...)
		b = strconv.AppendInt(b, int64(ev.Edges), 10)
	}
	if ev.Reason != "" {
		b = append(b, `,"reason":`...)
		b = appendString(b, ev.Reason)
	}
	if ev.Dur != 0 {
		b = append(b, `,"dur_ns":`...)
		b = strconv.AppendInt(b, int64(ev.Dur), 10)
	}
	return append(b, '}', '\n')
}

// appendString appends s as a JSON string. Printable ASCII comes out as
// strconv.Quote writes it, but control characters become \u escapes and
// invalid UTF-8 becomes U+FFFD: Go-syntax escapes such as \a, \x07 or
// \U000e0001 are not JSON, and a journal carrying one would not read back.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for _, r := range s {
		switch {
		case r == '"' || r == '\\':
			b = append(b, '\\', byte(r))
		case r == '\n':
			b = append(b, '\\', 'n')
		case r == '\r':
			b = append(b, '\\', 'r')
		case r == '\t':
			b = append(b, '\\', 't')
		case r < 0x20 || r == 0x7f:
			b = append(b, '\\', 'u', '0', '0', hex[r>>4], hex[r&0xf])
		default:
			b = utf8.AppendRune(b, r)
		}
	}
	return append(b, '"')
}
