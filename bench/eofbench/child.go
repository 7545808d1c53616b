package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	eof "github.com/eof-fuzz/eof"
	"github.com/eof-fuzz/eof/internal/corpus"
	"github.com/eof-fuzz/eof/internal/trace"
)

// childEnv marks a process started by the harness to run one job: it reads
// the job from stdin and writes its results to stdout. An environment
// variable rather than a flag lets the test binary serve as a child too.
const childEnv = "EOFBENCH_CHILD"

// job is the work one child process does: a chunk of campaigns of one
// workload, run back to back in a fresh process.
type job struct {
	Workload string
	// Traced builds each campaign from the internal packages with timing
	// wrappers and a CPU profile (see traced.go) instead of eof.NewCampaign.
	Traced bool
	// Golden attaches a journal whatever the workload says, and keeps its
	// full digest.
	Golden    bool
	Dir       string
	Campaigns []campaignSpec
}

type campaignSpec struct {
	Index  int
	OS     string
	Seed   int64
	Budget time.Duration
}

// virtual is everything a campaign reports on the virtual clock. It is fully
// determined by the seed, so repeats and the traced run must reproduce it
// exactly.
type virtual struct {
	Execs               int
	Edges               int
	Bugs                []string // crash clusters, sorted
	Restores            int
	DeltaRestores       int
	FullRestores        int
	Reflashes           int
	ManualInterventions int
	LinkRoundTrips      int64
	TimeBy              trace.TimeBy
	Duration            time.Duration
	// Boards counts activated boards (1 solo); TimeBy sums Boards x Duration.
	Boards int
	// Journal is the SHA-256 of the journal's event lines (header excluded),
	// empty when the campaign ran without one.
	Journal string
}

type campaignResult struct {
	Index int
	// CalibS is the median time of the calibration loops of the child that
	// ran the campaign (one before each campaign). SetupS is the wall time
	// of eof.NewCampaign; CPUS the process CPU time (all threads) spent in
	// Run, board bring-up included.
	CalibS     float64
	SetupS     float64
	CPUS       float64
	Mallocs    uint64
	AllocBytes uint64
	V          virtual
	// GoldenSHA is the SHA-256 of the whole journal, header included.
	GoldenSHA string
	Layers    *layers
	// Err is a campaign error or a failed check; all its execs count as
	// failed operations.
	Err string
}

func childMain(stdin io.Reader, stdout io.Writer) int {
	var j job
	if err := json.NewDecoder(stdin).Decode(&j); err != nil {
		fmt.Fprintln(os.Stderr, "eofbench child: bad job:", err)
		return 2
	}
	w, err := workloadByName(j.Workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eofbench child:", err)
		return 2
	}
	results := make([]campaignResult, 0, len(j.Campaigns))
	calibs := make([]float64, 0, len(j.Campaigns))
	for _, c := range j.Campaigns {
		// Start every campaign from a collected heap, outside the timed window.
		runtime.GC()
		calibs = append(calibs, calibrate().Seconds())
		if j.Traced {
			results = append(results, runTraced(w, c, j.Dir))
		} else {
			results = append(results, runCampaign(w, c, j.Dir, j.Golden))
		}
	}
	for i := range results {
		results[i].CalibS = median(calibs)
	}
	if err := json.NewEncoder(stdout).Encode(results); err != nil {
		fmt.Fprintln(os.Stderr, "eofbench child:", err)
		return 1
	}
	return 0
}

// runCampaign runs one campaign through the public API, timing only
// eof.NewCampaign and Campaign.Run.
func runCampaign(w *workload, c campaignSpec, dir string, golden bool) campaignResult {
	r := campaignResult{Index: c.Index}
	opts := w.options(c.OS, c.Seed)
	var jr *journal
	if w.journal || golden {
		var err error
		if jr, err = createJournal(dir, "journal", c.Index); err != nil {
			r.Err = err.Error()
			return r
		}
		defer jr.remove()
		opts.TraceJSONL = jr.w
	}
	if w.store {
		opts.CorpusDir = filepath.Join(dir, fmt.Sprintf("store-%d-%d", os.Getpid(), c.Index))
		defer os.RemoveAll(opts.CorpusDir)
	}

	t0 := time.Now()
	camp, err := eof.NewCampaign(opts)
	r.SetupS = time.Since(t0).Seconds()
	if err != nil {
		r.Err = err.Error()
		return r
	}
	defer camp.Close()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	rep, err := camp.Run(c.Budget)
	r.CPUS = (cpuTime() - cpu0).Seconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.Mallocs = m1.Mallocs - m0.Mallocs
	r.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.V = virtual{
		Execs:               rep.Execs,
		Edges:               rep.Edges,
		Restores:            rep.Restores,
		DeltaRestores:       rep.DeltaRestores,
		FullRestores:        rep.FullRestores,
		Reflashes:           rep.Reflashes,
		ManualInterventions: rep.RestoresByReason["manual-intervention"],
		LinkRoundTrips:      rep.LinkRoundTrips,
		TimeBy:              rep.TimeBy,
		Duration:            rep.Duration,
		Boards:              max(1, len(rep.BoardHealth)),
	}
	for _, b := range rep.Bugs {
		r.V.Bugs = append(r.V.Bugs, b.OS+"/"+b.Cluster)
	}
	sort.Strings(r.V.Bugs)
	if jr != nil {
		full, events, err := jr.digest(true)
		if err != nil {
			r.Err = err.Error()
			return r
		}
		r.V.Journal = events
		if golden {
			r.GoldenSHA = full
		}
	}
	if w.store {
		if err := checkStore(opts.CorpusDir, c.OS, rep.Persist); err != nil {
			r.Err = err.Error()
			return r
		}
	}
	r.Err = checkVirtual(r.V)
	return r
}

// checkVirtual returns the first violated board-time invariant, or "".
func checkVirtual(v virtual) string {
	switch {
	case v.Execs <= 0:
		return "campaign ran no execs"
	case v.TimeBy.Sum() != time.Duration(v.Boards)*v.Duration:
		return fmt.Sprintf("TimeBy sums to %v, want %d boards x %v", v.TimeBy.Sum(), v.Boards, v.Duration)
	case v.TimeBy.RestoringDelta+v.TimeBy.RestoringFull != v.TimeBy.Restoring:
		return fmt.Sprintf("restore sub-buckets %v + %v != restoring %v",
			v.TimeBy.RestoringDelta, v.TimeBy.RestoringFull, v.TimeBy.Restoring)
	case v.DeltaRestores+v.FullRestores != v.Restores:
		return fmt.Sprintf("delta %d + full %d restores != %d", v.DeltaRestores, v.FullRestores, v.Restores)
	}
	return ""
}

// checkStore reopens a finished campaign's durable store and checks that the
// last checkpoint and every committed corpus entry load back intact.
func checkStore(dir, osName string, p *eof.PersistReport) error {
	if p == nil || p.Checkpoints == 0 {
		return fmt.Errorf("store: campaign committed no checkpoint")
	}
	s, err := corpus.Open(dir, osName, benchBoard)
	if err != nil {
		return fmt.Errorf("store: reopen: %w", err)
	}
	res, err := s.LoadResume()
	switch {
	case err != nil:
		return fmt.Errorf("store: load: %w", err)
	case res.Ck == nil:
		return fmt.Errorf("store: no checkpoint loads back")
	case len(res.Entries) != p.Entries:
		return fmt.Errorf("store: %d entries load back, campaign committed %d", len(res.Entries), p.Entries)
	case len(s.Warnings()) > 0:
		return fmt.Errorf("store: damaged on reload: %v", s.Warnings())
	}
	return nil
}

// journal is a campaign's TraceJSONL file, buffered the way cmd/eof writes it.
type journal struct {
	f *os.File
	w *bufio.Writer
}

func createJournal(dir, kind string, index int) (*journal, error) {
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-%d-%d.jsonl", kind, os.Getpid(), index)))
	if err != nil {
		return nil, err
	}
	return &journal{f: f, w: bufio.NewWriter(f)}, nil
}

// digest flushes the journal and returns the SHA-256 of the whole file and of
// its event lines alone (the first line is skipped when hasHeader is set).
func (j *journal) digest(hasHeader bool) (full, events string, err error) {
	if err := j.w.Flush(); err != nil {
		return "", "", fmt.Errorf("journal: %w", err)
	}
	data, err := os.ReadFile(j.f.Name())
	if err != nil {
		return "", "", fmt.Errorf("journal: %w", err)
	}
	body := data
	if hasHeader {
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			body = data[i+1:]
		}
	}
	return sha256Hex(data), sha256Hex(body), nil
}

func (j *journal) remove() {
	j.f.Close()
	os.Remove(j.f.Name())
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// cpuTime returns the CPU time this process has used, all threads included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
