package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"github.com/eof-fuzz/eof/internal/trace"
)

// metricDef names one reported metric. Names are built from fixed parts in
// code, never derived from free text, so every key is a valid identifier.
type metricDef struct {
	name, unit, better string
}

// endToEnd lists the metrics of an untraced run, all measured through the
// public eof API. "host" metrics use the process CPU time of Campaign.Run, so
// a sibling child on the other core does not inflate them.
var endToEnd = []metricDef{
	{"execs_per_host_s", "1/s", "higher"},       // host: execs / CPU-seconds of Run
	{"setup_s", "s", "lower"},                   // host: median wall time of eof.NewCampaign
	{"allocs_per_exec", "allocs/exec", "lower"}, // host: MemStats.Mallocs delta over Run / execs
	{"alloc_bytes_per_exec", "B/exec", "lower"}, // host: MemStats.TotalAlloc delta over Run / execs
	{"peak_rss_mb", "MB", "lower"},              // host: median child max RSS
	{"execs_per_board_hour", "1/h", "higher"},   // virtual: execs / board-hours of Report.TimeBy
	{"edges", "count", "higher"},                // virtual: mean Report.Edges per campaign
	{"bugs", "count", "higher"},                 // virtual: distinct crash clusters of the pass
}

// hostModules are the host_share.* buckets of the folded CPU profile.
var hostModules = []string{
	"rtos", "cpu", "cov", "flash", "mem", "board", "ocd", "encoding_hex", "prog", "link",
	"core", "trace", "corpus", "fleet", "emul", "vtime", "sym", "gc_alloc", "other",
}

// boardTimeBuckets are the board_time.*_share names, in trace.Categories order.
var boardTimeBuckets = []string{"executing", "restoring", "reflashing", "link", "sync", "triaging", "confirming"}

// perLayer lists the metrics of a traced run.
func perLayer() []metricDef {
	defs := []metricDef{
		{"trace_overhead", "share", "lower"},
		{"core.exec_host_us.p50", "us", "lower"},
		{"core.exec_host_us.p99", "us", "lower"},
		{"core.exec_host_us.n", "count", "higher"},
		{"core.restore_host_ms.p50", "ms", "lower"},
		{"core.restore_host_ms.p99", "ms", "lower"},
		{"core.bringup_ms", "ms", "lower"},
		{"core.self_share", "share", "lower"},
	}
	for _, g := range []string{"run", "restore"} {
		defs = append(defs,
			metricDef{"backend." + g + ".calls", "count", "lower"},
			metricDef{"backend." + g + ".host_us_mean", "us", "lower"},
			metricDef{"backend." + g + ".share", "share", "lower"})
	}
	defs = append(defs,
		metricDef{"backend.restore.snapshot_share", "share", "lower"},
		metricDef{"backend.drain.host_us_mean", "us", "lower"},
		metricDef{"backend.drain.share", "share", "lower"},
		metricDef{"backend.other.share", "share", "lower"})
	for _, m := range hostModules {
		defs = append(defs, metricDef{"host_share." + m, "share", "lower"})
	}
	defs = append(defs, metricDef{"link.round_trips_per_exec", "1/exec", "lower"})
	for _, b := range boardTimeBuckets {
		defs = append(defs, metricDef{"board_time." + b + "_share", "share", "lower"})
	}
	defs = append(defs, metricDef{"board_time.restores_per_kexec", "1/kexec", "lower"})
	for _, m := range microNames {
		defs = append(defs,
			metricDef{m + ".ns", "ns", "lower"},
			metricDef{m + ".allocs", "allocs/op", "lower"})
	}
	return defs
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally collects a run's campaign results by campaign index and counts
// operations: every exec is one, a failed campaign's execs (at least one)
// all fail, and so does every exec a watchdog-less livelock ended.
type tally struct {
	byIndex   map[int][]campaignResult
	problems  []string
	attempted int
	failed    int
}

func newTally() *tally { return &tally{byIndex: map[int][]campaignResult{}} }

func (t *tally) add(kind string, rs []campaignResult) {
	for _, r := range rs {
		n := max(1, r.V.Execs)
		t.attempted += n
		if r.Err != "" {
			t.failed += n
			t.problems = append(t.problems, fmt.Sprintf("%s campaign %d: %s", kind, r.Index, r.Err))
			continue
		}
		t.failed += r.V.ManualInterventions
		if prev := t.byIndex[r.Index]; len(prev) > 0 && fingerprint(prev[0].V) != fingerprint(r.V) {
			t.problems = append(t.problems, fmt.Sprintf(
				"%s campaign %d: virtual results differ from its first run:\n  first %s\n  now   %s",
				kind, r.Index, fingerprint(prev[0].V), fingerprint(r.V)))
		}
		t.byIndex[r.Index] = append(t.byIndex[r.Index], r)
	}
}

// indices returns the campaign indices with at least one good result.
func (t *tally) indices() []int {
	out := make([]int, 0, len(t.byIndex))
	for i := range t.byIndex {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

func fingerprint(v virtual) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain data: cannot fail
	}
	return string(b)
}

// endToEndMetrics aggregates a pass of campaigns: host costs take each
// campaign's median over its repeats and are summed before dividing, so the
// population, not one seed, sets the value. Host times are in calibrated
// seconds: speed is calibRef over the run's median calibration time.
func endToEndMetrics(t *tally, rssMB []float64, speed float64) map[string]float64 {
	var execs, edges, cpuS, mallocs, bytes, boardH float64
	var setups []float64
	bugs := map[string]bool{}
	idx := t.indices()
	for _, i := range idx {
		rs := t.byIndex[i]
		v := rs[0].V
		execs += float64(v.Execs)
		edges += float64(v.Edges)
		boardH += v.TimeBy.Sum().Hours()
		for _, b := range v.Bugs {
			bugs[b] = true
		}
		cpuS += median(collect(rs, func(r campaignResult) float64 { return r.CPUS }))
		mallocs += median(collect(rs, func(r campaignResult) float64 { return float64(r.Mallocs) }))
		bytes += median(collect(rs, func(r campaignResult) float64 { return float64(r.AllocBytes) }))
		setups = append(setups, collect(rs, func(r campaignResult) float64 { return r.SetupS })...)
	}
	return map[string]float64{
		"execs_per_host_s":     ratio(execs, cpuS*speed),
		"setup_s":              median(setups) * speed,
		"allocs_per_exec":      ratio(mallocs, execs),
		"alloc_bytes_per_exec": ratio(bytes, execs),
		"peak_rss_mb":          median(rssMB),
		"execs_per_board_hour": ratio(execs, boardH),
		"edges":                ratio(edges, float64(len(idx))),
		"bugs":                 float64(len(bugs)),
	}
}

// layerMetrics aggregates a traced run: untraced and traced hold repeats of
// the same campaigns. Host times are in calibrated units, as in
// endToEndMetrics. Transport shares are wall time inside the calls over the
// CPU time of Run (the engine waits in a call while the target runs on its
// own goroutine, so only wall time captures the call); module shares come
// from the CPU profiles.
func layerMetrics(untraced, traced *tally, modules map[string]float64, speed float64) map[string]float64 {
	var execUS, restoreMS, bringup []float64
	var calls, callsAll, ns [numMethods]int64
	var tracedCPU, plainCPU, cpuAll, execs, roundTrips, restores float64
	var by [trace.NumCategories]time.Duration
	var byTotal time.Duration
	for _, i := range traced.indices() {
		rs := traced.byIndex[i]
		for _, r := range rs {
			execUS = append(execUS, r.Layers.ExecUS...)
			restoreMS = append(restoreMS, r.Layers.RestoreMS...)
			bringup = append(bringup, r.Layers.BringupMS...)
			for m := range ns {
				ns[m] += r.Layers.NS[m]
				callsAll[m] += r.Layers.Calls[m]
			}
			cpuAll += r.Layers.RunCPUS
		}
		// Traced and untraced children run at different times, so each
		// campaign's CPU time is taken relative to its child's calibration.
		calibrated := func(r campaignResult) float64 { return ratio(r.CPUS, r.CalibS) }
		tracedCPU += median(collect(rs, calibrated))
		if plain := untraced.byIndex[i]; len(plain) > 0 {
			plainCPU += median(collect(plain, calibrated))
		}
		// Counts are virtual: one repeat gives them exactly.
		v := rs[0].V
		for m := range calls {
			calls[m] += rs[0].Layers.Calls[m]
		}
		execs += float64(v.Execs)
		roundTrips += float64(v.LinkRoundTrips)
		restores += float64(v.Restores)
		for c, cat := range trace.Categories() {
			by[c] += v.TimeBy.Of(cat)
		}
		byTotal += v.TimeBy.Sum()
	}
	out := map[string]float64{
		"trace_overhead":           ratio(tracedCPU, plainCPU) - 1,
		"core.exec_host_us.p50":    quantile(execUS, 0.50) * speed,
		"core.exec_host_us.p99":    quantile(execUS, 0.99) * speed,
		"core.exec_host_us.n":      float64(len(execUS)),
		"core.restore_host_ms.p50": quantile(restoreMS, 0.50) * speed,
		"core.restore_host_ms.p99": quantile(restoreMS, 0.99) * speed,
		"core.bringup_ms":          median(bringup) * speed,
		"core.self_share":          1,
	}
	groupNS, groupCalls, groupCallsAll := map[string]float64{}, map[string]float64{}, map[string]float64{}
	for m := range ns {
		g := methodGroup(m)
		groupNS[g] += float64(ns[m])
		groupCalls[g] += float64(calls[m])
		groupCallsAll[g] += float64(callsAll[m])
		share := ratio(float64(ns[m]), cpuAll*1e9)
		out["backend."+g+".share"] += share
		out["core.self_share"] -= share
	}
	for _, g := range []string{"run", "restore", "drain"} {
		out["backend."+g+".host_us_mean"] = ratio(groupNS[g], groupCallsAll[g]) / 1e3 * speed
	}
	out["backend.run.calls"] = groupCalls["run"]
	out["backend.restore.calls"] = groupCalls["restore"]
	out["backend.restore.snapshot_share"] = ratio(float64(ns[mRestoreSnapshot]), groupNS["restore"])
	for _, m := range hostModules {
		out["host_share."+m] = modules[m]
	}
	out["link.round_trips_per_exec"] = ratio(roundTrips, execs)
	for c, b := range boardTimeBuckets {
		out["board_time."+b+"_share"] = ratio(float64(by[c]), float64(byTotal))
	}
	out["board_time.restores_per_kexec"] = 1000 * ratio(restores, execs)
	return out
}

// calibMS returns the median calibration loop time of every campaign run
// the tallies hold, in milliseconds.
func calibMS(ts ...*tally) float64 {
	var xs []float64
	for _, t := range ts {
		for _, rs := range t.byIndex {
			xs = append(xs, collect(rs, func(r campaignResult) float64 { return r.CalibS * 1e3 })...)
		}
	}
	return median(xs)
}

func collect(rs []campaignResult, f func(campaignResult) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never exercised).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates the q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles returns the first and third quartile of xs by the same rule as
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	ld, m, n := len(s), len(s)+1, 4
	q := func(i int) float64 {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q(1), q(3)
}
