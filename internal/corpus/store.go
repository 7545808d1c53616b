// Package corpus is the campaign persistence layer: an append-only on-disk
// corpus store plus an epoch-checkpoint format that together make a
// fuzzing campaign crash-safe. Everything the in-memory campaign accumulates
// — coverage-increasing programs with their edge attribution, the cumulative
// coverage bitmap, crash dedup clusters, elapsed virtual time and per-shard
// RNG cursors — is written durably at every fleet epoch barrier, so a
// `kill -9` or host crash loses at most the epoch in flight.
//
// On-disk layout, namespaced per target so one store root can accumulate
// corpora for many OS/board pairs:
//
//	<root>/<os>/<board>/manifest.jsonl        the corpus: one line per program, inline
//	<root>/<os>/<board>/checkpoint.json       last epoch-barrier checkpoint
//	<root>/<os>/<board>/checkpoint.prev.json  the rotation's previous checkpoint
//	<root>/damaged/                           quarantined corrupt checkpoints
//
// Crash-consistency protocol (write-ahead ordering): a barrier's new
// programs are appended to the manifest in one write and one fsync; the
// checkpoint is only written (temp + fsync + rename + directory fsync) after
// every manifest line it references is durable, and that directory fsync
// also makes a newly created manifest's directory entry durable. A reader
// therefore interprets the store as: the checkpoint is authoritative for
// coverage, clusters, elapsed time and RNG cursors; the manifest is
// authoritative for corpus membership (lines past the checkpoint are a bonus
// from the interrupted epoch). Each line names its program by SHA-256, so a
// damaged line fails verification and is dropped alone with a warning; a
// torn final line is cut off the file on load. A corrupt checkpoint is
// quarantined into <root>/damaged/ and the campaign degrades to the last
// good state instead of failing. A namespace that still holds blobs/, the
// older layout with one file per program, is refused.
package corpus

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Entry is one persisted corpus admission: a program plus the provenance
// recorded beside it on its manifest line.
type Entry struct {
	// Hash is the program's SHA-256 (hex): its identity, checked against
	// the program whenever the line is loaded.
	Hash string
	// Prog is the program in portable JSON form.
	Prog []byte
	// NewEdges is how many globally new edges the seed contributed at
	// admission; Edges lists those edge IDs (the attribution distillation
	// minimizes over).
	NewEdges int
	Edges    []uint32
	// Shard is the fleet slot that admitted the seed; Epoch the barrier
	// ordinal it was persisted at; At the campaign virtual time of that
	// barrier.
	Shard int
	Epoch int
	At    time.Duration
}

// manifestLine is Entry's JSONL wire form. Prog is a []byte, which JSON
// carries as base64, so any program round-trips to exactly the bytes Hash
// names.
type manifestLine struct {
	Hash     string   `json:"hash"`
	NewEdges int      `json:"new_edges"`
	Edges    []uint32 `json:"edges,omitempty"`
	Shard    int      `json:"shard"`
	Epoch    int      `json:"epoch"`
	AtNS     int64    `json:"at_ns"`
	Prog     []byte   `json:"prog"`
}

// Store is one open per-target namespace of an on-disk corpus root.
type Store struct {
	root string // store root (holds damaged/)
	dir  string // <root>/<os>/<board>
	os   string
	brd  string

	entries  map[string]*Entry // by hash
	order    []string          // admission order (manifest order)
	warnings []string
}

// HashProg returns the name of a program: the hex SHA-256 of its bytes.
func HashProg(prog []byte) string {
	sum := sha256.Sum256(prog)
	return hex.EncodeToString(sum[:])
}

// Open opens (creating as needed) the store namespace for one OS/board pair
// and loads its manifest. A torn final manifest line is cut off the file and
// a line that fails verification is dropped; each leaves a warning, and the
// store carries on with every verified entry.
func Open(root, osName, board string) (*Store, error) {
	return openDir(root, filepath.Join(root, osName, board), osName, board)
}

// OpenNamespace opens a per-campaign namespace of the store root: the same
// layout and crash-consistency protocol as Open, but rooted at
// <root>/ns/<namespace>/<os>/<board> so many campaigns (a daemon's jobs)
// can share one store root without ever seeing each other's corpora. The
// literal "ns" path segment keeps namespaced campaigns disjoint from the
// plain per-target layout, whatever the namespace is called. An empty
// namespace degrades to Open; quarantined damage still lands in the shared
// <root>/damaged/.
func OpenNamespace(root, namespace, osName, board string) (*Store, error) {
	if namespace == "" {
		return Open(root, osName, board)
	}
	if !ValidNamespace(namespace) {
		return nil, fmt.Errorf("corpus: invalid namespace %q (want [a-zA-Z0-9._-]+, not . or ..)", namespace)
	}
	return openDir(root, filepath.Join(root, "ns", namespace, osName, board), osName, board)
}

// ValidNamespace reports whether a campaign namespace is safe to use as a
// single path segment: ASCII letters, digits, dot, underscore and dash,
// and not a relative-path alias.
func ValidNamespace(ns string) bool {
	if ns == "" || ns == "." || ns == ".." || len(ns) > 128 {
		return false
	}
	for _, r := range ns {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.' || r == '_' || r == '-':
		default:
			return false
		}
	}
	return true
}

func openDir(root, dir, osName, board string) (*Store, error) {
	if _, err := os.Stat(filepath.Join(dir, "blobs")); err == nil {
		return nil, fmt.Errorf("corpus: %s holds blobs/, the older one-file-per-program layout, which this build does not read", dir)
	}
	s := &Store{
		root:    root,
		dir:     dir,
		os:      osName,
		brd:     board,
		entries: make(map[string]*Entry),
	}
	for _, d := range []string{dir, filepath.Join(root, "damaged")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("corpus: %w", err)
		}
	}
	if err := s.loadManifest(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the namespace directory (<root>/<os>/<board>).
func (s *Store) Dir() string { return s.dir }

// Len returns the number of verified corpus entries.
func (s *Store) Len() int { return len(s.order) }

// Entries returns the verified corpus entries in admission order.
func (s *Store) Entries() []*Entry {
	out := make([]*Entry, 0, len(s.order))
	for _, h := range s.order {
		out = append(out, s.entries[h])
	}
	return out
}

// Warnings returns the degradations Open tolerated (torn manifest tail,
// dropped manifest lines, checkpoint fallback), in detection order.
func (s *Store) Warnings() []string { return s.warnings }

func (s *Store) warnf(format string, args ...any) {
	s.warnings = append(s.warnings, fmt.Sprintf(format, args...))
}

// loadManifest replays manifest.jsonl. Bytes after the last newline are a
// torn append from a crashed writer: they are cut off the file, so the next
// append starts on a line boundary. A whole line that fails to decode or
// verify is dropped alone; the lines after it are still read.
func (s *Store) loadManifest() error {
	data, err := os.ReadFile(s.manifestPath())
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("corpus: %w", err)
	}
	whole := bytes.LastIndexByte(data, '\n') + 1
	lines := bytes.Split(data[:whole], []byte("\n"))
	if whole < len(data) {
		s.warnf("manifest line %d: torn tail of %d bytes (truncating manifest there)", len(lines), len(data)-whole)
		if err := os.Truncate(s.manifestPath(), int64(whole)); err != nil {
			return fmt.Errorf("corpus: manifest: %w", err)
		}
	}
	for i, line := range lines {
		if len(line) == 0 {
			continue
		}
		e, err := ParseManifestLine(line)
		if err != nil {
			s.warnf("manifest line %d: %v (dropped)", i+1, err)
			continue
		}
		if _, ok := s.entries[e.Hash]; ok {
			// The first record of a program wins, keeping admission order
			// stable.
			continue
		}
		s.entries[e.Hash] = e
		s.order = append(s.order, e.Hash)
	}
	return nil
}

// ParseManifestLine decodes and verifies one manifest JSONL record (without
// its newline). The program must be non-empty and hash to the record's
// hash, and the line must be exactly what AppendManifestLine writes for the
// entry, so an accepted line stores one program under its own name.
func ParseManifestLine(line []byte) (*Entry, error) {
	var ml manifestLine
	if err := json.Unmarshal(line, &ml); err != nil {
		return nil, fmt.Errorf("bad manifest record: %w", err)
	}
	switch {
	case len(ml.Prog) == 0:
		return nil, errors.New("bad manifest record: no program")
	case HashProg(ml.Prog) != ml.Hash:
		return nil, fmt.Errorf("bad manifest record: program does not hash to %q", shortHash(ml.Hash))
	case ml.NewEdges < 0 || ml.Shard < -1 || ml.Epoch < 0 || ml.AtNS < 0:
		return nil, errors.New("bad manifest record: negative field")
	}
	e := &Entry{
		Hash:     ml.Hash,
		Prog:     ml.Prog,
		NewEdges: ml.NewEdges,
		Edges:    ml.Edges,
		Shard:    ml.Shard,
		Epoch:    ml.Epoch,
		At:       time.Duration(ml.AtNS),
	}
	if enc := AppendManifestLine(nil, e); !bytes.Equal(enc[:len(enc)-1], line) {
		return nil, errors.New("bad manifest record: not in canonical form")
	}
	return e, nil
}

// AppendManifestLine appends e's manifest JSONL form (with trailing newline)
// to b — the encoder-side inverse of ParseManifestLine.
func AppendManifestLine(b []byte, e *Entry) []byte {
	enc, err := json.Marshal(manifestLine{
		Hash:     e.Hash,
		NewEdges: e.NewEdges,
		Edges:    e.Edges,
		Shard:    e.Shard,
		Epoch:    e.Epoch,
		AtNS:     int64(e.At),
		Prog:     e.Prog,
	})
	if err != nil {
		// manifestLine holds only scalars and slices; Marshal cannot fail.
		panic("corpus: manifest marshal: " + err.Error())
	}
	b = append(b, enc...)
	return append(b, '\n')
}

// Put admits the entries whose programs the store does not hold yet (a
// program already stored, or repeated within es, is deduplicated), naming
// each by HashProg. Their lines go to the manifest in one append with one
// fsync, so a barrier's admissions cost one write. Put reports how many
// entries it added; on error it adds none.
func (s *Store) Put(es ...Entry) (added int, err error) {
	n := len(s.order)
	var buf []byte
	for _, e := range es {
		if len(e.Prog) == 0 {
			err = errors.New("empty program")
			break
		}
		e.Hash = HashProg(e.Prog)
		if _, ok := s.entries[e.Hash]; ok {
			continue
		}
		s.entries[e.Hash] = &e
		s.order = append(s.order, e.Hash)
		buf = AppendManifestLine(buf, &e)
	}
	if err == nil && len(buf) > 0 {
		err = appendFileSync(s.manifestPath(), buf)
	}
	if err != nil {
		for _, h := range s.order[n:] {
			delete(s.entries, h)
		}
		s.order = s.order[:n]
		return 0, fmt.Errorf("corpus: manifest: %w", err)
	}
	return len(s.order) - n, nil
}

// quarantine moves a corrupt file into <root>/damaged/ under a unique name,
// best effort: quarantine must never turn a degraded load into a failure.
func (s *Store) quarantine(path string) string {
	base := filepath.Base(path)
	for i := 0; ; i++ {
		name := base
		if i > 0 {
			name = fmt.Sprintf("%s.%d", base, i)
		}
		dst := filepath.Join(s.root, "damaged", name)
		if _, err := os.Stat(dst); err == nil {
			continue
		}
		if err := os.Rename(path, dst); err != nil {
			return ""
		}
		return dst
	}
}

func (s *Store) manifestPath() string { return filepath.Join(s.dir, "manifest.jsonl") }

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// WriteFileAtomic writes data to path atomically and durably: temp file in
// the same directory, fsync, rename, directory fsync (best effort — some
// filesystems reject directory syncs).
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	syncDir(dir)
	return nil
}

// appendFileSync appends data to path and fsyncs, creating the file if
// missing.
func appendFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a just-renamed entry is durable. Best
// effort: directory sync support varies by filesystem.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// sortEdges returns a sorted copy of an edge set — the canonical checkpoint
// bitmap form, so checkpoints diff cleanly run to run.
func sortEdges(edges []uint32) []uint32 {
	out := append([]uint32(nil), edges...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
