package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the harness's child process.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

const specPath = "../../BENCHMARK.json"

// TestSmoke runs every workload at 1/60 of its budget on two campaigns,
// untraced and traced, checks each result line against BENCHMARK.json, and
// compares the results with themselves.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "results.jsonl")
	cfg := runConfig{seed: 7, seconds: 1, dir: t.TempDir(), scale: 1.0 / 60, campaigns: 2, benchtime: "1x"}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg.traced = traced
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			res, err := runWorkload(ctx, w, cfg)
			cancel()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%q",
					w.name, traced, res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			if traced && res.GoldenSHA256 == "" {
				t.Errorf("%s: traced run printed no golden journal digest", w.name)
			}
			var stdout bytes.Buffer
			if err := report(res, &stdout, out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w.name, err)
			}
			if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil ||
				line["failed"] == nil || line["metrics"] == nil {
				t.Errorf("%s: result line keys: %s", w.name, lines[len(lines)-1])
			}
			want := map[string]bool{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = true
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = true
				}
			}
			for name := range res.Metrics {
				if !want[name] {
					t.Errorf("%s: metric %q is not in BENCHMARK.json", w.name, name)
				}
				delete(want, name)
			}
			for name := range want {
				t.Errorf("%s: BENCHMARK.json metric %q was not reported", w.name, name)
			}
		}
	}
	var table bytes.Buffer
	worse, err := compareFiles(out, out, specPath, &table)
	if err != nil {
		t.Fatal(err)
	}
	if worse != 0 || strings.Contains(table.String(), "worse") || !strings.Contains(table.String(), "unchanged") {
		t.Errorf("self-compare: %d worse rows:\n%s", worse, table.String())
	}
}

// TestSpecMatchesCode checks BENCHMARK.json against the harness: the same
// workloads, and every metric with the unit and direction the code reports.
func TestSpecMatchesCode(t *testing.T) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var s struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(s.Workloads), len(workloads))
	}
	golden := goldenRecorded()
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name || s.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, harness %q: %q", i, s.Workloads[i], w.name, w.why)
		}
		if golden[w.name] == "" {
			t.Errorf("golden.json has no digest for %s", w.name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			m := got[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || (m.Bound != nil) != bounded {
				t.Errorf("%s %d: BENCHMARK.json %+v, harness %+v", kind, i, m, d)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd, true)
	check("per_layer", s.PerLayer, perLayer(), false)
}
