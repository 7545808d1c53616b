// Command eofbench is EOF's performance benchmark. It runs closed-loop
// fuzzing campaigns through the public eof API and reports end-to-end
// metrics on both clocks: host time (what the simulator costs) and virtual
// board time (what the modelled hardware would spend). A traced run (-trace 1)
// times every layer from outside the program and reports per-layer metrics.
// See bench/README.md.
//
//	eofbench -workload hw-freertos -seed 7 -seconds 20 -trace 0
//	eofbench -workload all -runs 5 -out parent.jsonl
//	eofbench -compare parent.jsonl change.jsonl
//
// The last line of a run's standard output is its result as one JSON object.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

func main() {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Stdin, os.Stdout))
	}
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// runTimeout bounds one run, children included.
const runTimeout = 170 * time.Second

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("eofbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Int64("seed", 7, "workload seed; campaign seeds derive from it")
	seconds := fs.Int("seconds", 20, "host seconds a run measures for (the first pass always completes)")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer variant")
	runs := fs.Int("runs", 1, "runs per workload, on seeds seed, seed+1, ...")
	out := fs.String("out", "", "append every run's result to this JSON Lines file")
	compareMode := fs.Bool("compare", false, "compare two -out files: -compare parent.jsonl change.jsonl")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	// Flags may follow the positional arguments (the -compare files).
	var files []string
	for {
		if err := fs.Parse(args); err != nil {
			return 2
		}
		if fs.NArg() == 0 {
			break
		}
		files, args = append(files, fs.Arg(0)), fs.Args()[1:]
	}
	if *compareMode {
		if len(files) != 2 {
			fmt.Fprintln(stderr, "usage: eofbench -compare parent.jsonl change.jsonl")
			return 2
		}
		worse, err := compareFiles(files[0], files[1], *spec, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "eofbench:", err)
			return 1
		}
		if worse > 0 {
			return 1
		}
		return 0
	}
	if len(files) > 0 {
		fmt.Fprintf(stderr, "eofbench: unexpected arguments %q\n", files)
		return 2
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "eofbench:", err)
			return 2
		}
		ws = []*workload{w}
	}
	if *traceFlag != 0 && *traceFlag != 1 || *seconds < 1 || *runs < 1 {
		fmt.Fprintln(stderr, "eofbench: want -trace 0|1, -seconds >= 1 and -runs >= 1")
		return 2
	}
	code := 0
	for _, w := range ws {
		for r := 0; r < *runs; r++ {
			cfg := runConfig{seed: *seed + int64(r), seconds: *seconds, traced: *traceFlag == 1, benchtime: "200ms"}
			ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
			res, err := runWorkload(ctx, w, cfg)
			cancel()
			if err != nil {
				fmt.Fprintf(stderr, "eofbench: %s: %v\n", w.name, err)
				return 1
			}
			if err := report(res, stdout, *out); err != nil {
				fmt.Fprintln(stderr, "eofbench:", err)
				return 1
			}
			if !res.Correct {
				code = 1
			}
		}
	}
	return code
}

// resultLine is the contract form of a run's result: the last line of output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report prints res as a table and the result line, and appends it to the
// out file when one is given.
func report(res *runResult, stdout io.Writer, out string) error {
	defs := endToEnd
	if res.Trace {
		defs = perLayer()
	}
	fmt.Fprintf(stdout, "# %s seed=%d trace=%v: %d ops, %d failed; calibration loop median %.3f ms (reference %v)\n",
		res.Workload, res.Seed, res.Trace, res.Attempted, res.Failed, res.CalibMS, calibRef)
	for _, d := range defs {
		v := res.Metrics[d.name]
		fmt.Fprintf(stdout, "%-16s %-32s %16.6g %s\n", res.Workload, d.name, v.Value, v.Unit)
	}
	if res.GoldenSHA256 != "" {
		verdict := "identical to golden.json"
		if res.GoldenSHA256 != res.GoldenRecorded {
			verdict = "differs from golden.json " + res.GoldenRecorded
		}
		fmt.Fprintf(stdout, "golden journal %s sha256=%s (%s)\n", res.Workload, res.GoldenSHA256, verdict)
	}
	for _, p := range res.Problems {
		fmt.Fprintln(stdout, "CHECK FAILED:", p)
	}
	if out != "" {
		f, err := os.OpenFile(out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if err := json.NewEncoder(f).Encode(res); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	line, err := json.Marshal(resultLine{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// golden.json records each workload's golden journal digest (seed 7, ten
// board-minutes per OS), so a host-only change can show its journals are
// byte-identical.
//
//go:embed golden.json
var goldenJSON []byte

func goldenRecorded() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &m); err != nil {
		panic(err) // embedded at build time; the smoke test parses it
	}
	return m
}

// benchSpec is the part of BENCHMARK.json that -compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string   `json:"name"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 {
		return nil, errors.New(path + ": no end_to_end metrics")
	}
	return &s, nil
}

func loadRecords(path string) ([]runResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []runResult
	for i, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var r runResult
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		rs = append(rs, r)
	}
	if len(rs) == 0 {
		return nil, errors.New(path + ": no results")
	}
	return rs, nil
}
