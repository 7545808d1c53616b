package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// lanes is how many child processes an untraced run keeps busy at once. The
// fuzzer is a closed loop (each board sends its next exec only after the
// previous one returned), so one child keeps one core busy; two use the
// benchmark machine's two cores. A traced run uses one, so the wall time its
// wrappers measure is not inflated by a sibling waiting for a core.
const lanes = 2

// runConfig is one benchmark invocation's settings.
type runConfig struct {
	seed    int64
	seconds int
	traced  bool
	dir     string // temporary root; each run makes its own directory in it
	// The smoke test shrinks runs: a positive scale multiplies every
	// campaign budget and a positive campaigns replaces each workload's
	// population size. benchtime is the micro-benchmarks' test.benchtime.
	scale     float64
	campaigns int
	benchtime string
}

// runResult is one run's outcome, printed as the benchmark's result line and
// appended to the -out file.
type runResult struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// CalibMS is the run's median calibration loop time (see calibRef).
	CalibMS float64 `json:"calib_ms"`
	// GoldenSHA256 is the digest of the workload's golden journal (traced
	// runs only); GoldenRecorded is the digest recorded in golden.json.
	GoldenSHA256   string   `json:"golden_sha256,omitempty"`
	GoldenRecorded string   `json:"golden_recorded,omitempty"`
	Problems       []string `json:"problems,omitempty"`
}

// runWorkload runs w once: an untraced run measures a pass over the
// workload's campaign population, then repeats chunks until cfg.seconds have
// passed; a traced run alternates untraced and traced children over the first
// chunk for cfg.seconds and adds the golden journal, the folded CPU profile
// and the micro-benchmarks.
func runWorkload(ctx context.Context, w *workload, cfg runConfig) (*runResult, error) {
	dir, err := os.MkdirTemp(cfg.dir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	scale := cfg.scale
	if scale <= 0 {
		scale = 1
	}
	count := w.campaigns
	if cfg.campaigns > 0 {
		count = cfg.campaigns
	}
	specs := w.campaignSpecs(cfg.seed, count, scale)
	var chunks [][]campaignSpec
	for i := 0; i < len(specs); i += w.chunk {
		chunks = append(chunks, specs[i:min(i+w.chunk, len(specs))])
	}

	res := &runResult{Workload: w.name, Seed: cfg.seed, Trace: cfg.traced, Metrics: map[string]value{}}
	plain, traced, golden := newTally(), newTally(), newTally()
	var rssMB []float64
	var profiles []string
	var mu sync.Mutex
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)

	var plan func(i int) job
	mandatory := len(chunks)
	if cfg.traced {
		// Task 0 is the golden run; then untraced and traced children take
		// turns on the first chunk.
		mandatory = 3
		plan = func(i int) job {
			if i == 0 {
				return job{Workload: w.name, Golden: true, Dir: dir, Campaigns: w.goldenSpecs(scale)}
			}
			return job{Workload: w.name, Traced: i%2 == 0, Dir: dir, Campaigns: chunks[0]}
		}
	} else {
		plan = func(i int) job {
			return job{Workload: w.name, Dir: dir, Campaigns: chunks[i%len(chunks)]}
		}
	}
	next := 0
	take := func() (job, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= mandatory && !time.Now().Before(deadline) {
			return job{}, false
		}
		next++
		return plan(next - 1), true
	}
	n := lanes
	if cfg.traced {
		n = 1
	}
	err = runLanes(ctx, n, take, func(j job) error {
		rs, rssKB, err := runChild(ctx, j)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		switch {
		case j.Golden:
			golden.add("golden", rs)
			var digests string
			for _, r := range rs {
				digests += r.GoldenSHA
			}
			res.GoldenSHA256 = sha256Hex([]byte(digests))
		case j.Traced:
			traced.add("traced", rs)
			for _, r := range rs {
				if r.Layers != nil {
					profiles = append(profiles, r.Layers.Profile)
				}
			}
		default:
			plain.add("untraced", rs)
			rssMB = append(rssMB, float64(rssKB)/1024)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res.CalibMS = calibMS(plain, traced)
	speed := ratio(float64(calibRef.Milliseconds()), res.CalibMS)
	var values map[string]float64
	var defs []metricDef
	if cfg.traced {
		for _, i := range traced.indices() {
			if p := plain.byIndex[i]; len(p) > 0 && fingerprint(p[0].V) != fingerprint(traced.byIndex[i][0].V) {
				traced.problems = append(traced.problems, fmt.Sprintf(
					"campaign %d: traced run differs from untraced:\n  untraced %s\n  traced   %s",
					i, fingerprint(p[0].V), fingerprint(traced.byIndex[i][0].V)))
			}
		}
		modules, err := foldProfiles(profiles)
		if err != nil {
			return nil, err
		}
		values = layerMetrics(plain, traced, modules, speed)
		micro, err := runMicro(cfg.seed, dir, cfg.benchtime)
		if err != nil {
			return nil, err
		}
		for k, v := range micro {
			values[k] = v
		}
		defs = perLayer()
		res.GoldenRecorded = goldenRecorded()[w.name]
	} else {
		values = endToEndMetrics(plain, rssMB, speed)
		defs = endToEnd
	}
	for _, d := range defs {
		res.Metrics[d.name] = value{Value: values[d.name], Unit: d.unit}
	}
	for _, t := range []*tally{plain, traced, golden} {
		res.Attempted += t.attempted
		res.Failed += t.failed
		res.Problems = append(res.Problems, t.problems...)
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// runLanes runs tasks from take on n goroutines until take reports none are
// left or one fails; it returns once every started task has ended.
func runLanes(ctx context.Context, n int, take func() (job, bool), do func(job) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	var once sync.Once
	var first error
	for l := 0; l < n; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				j, ok := take()
				if !ok {
					return
				}
				if err := do(j); err != nil {
					once.Do(func() { first = err; cancel() })
					return
				}
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return first
	}
	return ctx.Err()
}

// runChild runs j in a fresh process of this binary and returns its results
// and the child's peak resident set size in KiB.
func runChild(ctx context.Context, j job) ([]campaignResult, int64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	in, err := json.Marshal(j)
	if err != nil {
		return nil, 0, err
	}
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdin = bytes.NewReader(in)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("child for %s: %w", j.Workload, err)
	}
	var rs []campaignResult
	if err := json.Unmarshal(out.Bytes(), &rs); err != nil {
		return nil, 0, fmt.Errorf("child for %s: bad results: %w", j.Workload, err)
	}
	var rss int64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = ru.Maxrss
	}
	return rs, rss, nil
}
