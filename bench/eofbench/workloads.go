package main

import (
	"fmt"
	"time"

	eof "github.com/eof-fuzz/eof"
)

// workload is one benchmark input set: a population of closed-loop fuzzing
// campaigns, each on its own seed and with a fixed virtual board-time budget.
// Campaign throughput differs widely from seed to seed (one seed's corpus
// settles on programs that idle the scheduler, another's keeps crashing and
// reflashing), so a run measures many campaigns and aggregates them; the
// campaign count is fixed per workload so the virtual metrics of a run never
// depend on host speed.
type workload struct {
	name string
	why  string
	// oses lists the target OSes; campaign i fuzzes oses[i%len(oses)].
	oses []string
	// budget is each campaign's virtual board time (eof.Campaign.Run).
	budget time.Duration
	// campaigns is the population size of one pass; chunk is how many of
	// them one child process runs back to back.
	campaigns int
	chunk     int
	// journal streams the campaign's TraceJSONL into a file; store gives it
	// a durable corpus store (CorpusDir). Both live in the run's temporary
	// directory.
	journal bool
	store   bool
	options func(osName string, seed int64) eof.Options
}

// benchBoard is the board every workload runs on (the paper's default).
const benchBoard = "stm32h745"

var workloads = []*workload{
	{
		name:      "hw-freertos",
		why:       "the paper's default setup: FreeRTOS on the hardware backend with reflash restores, where idle ticks and the hex flash codec dominate host time",
		oses:      []string{"freertos"},
		budget:    10 * time.Minute,
		campaigns: 64,
		chunk:     8,
		options: func(osName string, seed int64) eof.Options {
			return eof.Options{OS: osName, Board: benchBoard, Seed: seed}
		},
	},
	{
		name:      "hw-5os-snapshot",
		why:       "all five OS personalities on hardware with snapshot delta restores, which bypass reflash and its hex codec",
		oses:      []string{"freertos", "rtthread", "nuttx", "zephyr", "pokos"},
		budget:    3 * time.Minute,
		campaigns: 150,
		chunk:     25,
		options: func(osName string, seed int64) eof.Options {
			return eof.Options{OS: osName, Board: benchBoard, Seed: seed, Snapshots: true}
		},
	},
	{
		name:      "tier-emul",
		why:       "an emulated shard beside a hardware shard: its execs bypass the debug probe, so it shows whether a gain is substrate-specific",
		oses:      []string{"freertos"},
		budget:    15 * time.Second,
		campaigns: 56,
		chunk:     8,
		options: func(osName string, seed int64) eof.Options {
			return eof.Options{OS: osName, Board: benchBoard, Seed: seed,
				Shards: 1, Tiers: true, EmulShards: 1, SyncEvery: time.Minute}
		},
	},
	{
		name:      "fleet-durable",
		why:       "two hardware shards plus a triage board with a durable store and a journal: the epoch-barrier, commit and triage write side",
		oses:      []string{"freertos"},
		budget:    10 * time.Minute,
		campaigns: 40,
		chunk:     8,
		journal:   true,
		store:     true,
		options: func(osName string, seed int64) eof.Options {
			return eof.Options{OS: osName, Board: benchBoard, Seed: seed,
				Shards: 2, Triage: true, SyncEvery: 2 * time.Minute}
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// campaignSeed derives campaign i's seed from the run seed with a splitmix64
// step, so every run seed fuzzes its own population and equal seeds repeat it.
func campaignSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xD1B54A32D192ED03
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z>>33) + 1 // positive and non-zero: eof treats seed 0 as 1
}

// campaignSpecs lists one pass of w under the run seed, with every budget
// multiplied by scale.
func (w *workload) campaignSpecs(seed int64, count int, scale float64) []campaignSpec {
	specs := make([]campaignSpec, count)
	for i := range specs {
		specs[i] = campaignSpec{
			Index:  i,
			OS:     w.oses[i%len(w.oses)],
			Seed:   campaignSeed(seed, i),
			Budget: time.Duration(float64(w.budget) * scale),
		}
	}
	return specs
}

// Golden runs fix the seed and the budget, so their journals are comparable
// across commits whatever seed a run was given.
const (
	goldenSeed   = 7
	goldenBudget = 10 * time.Minute
)

// goldenSpecs lists the golden campaigns of w: one per OS, journals on.
func (w *workload) goldenSpecs(scale float64) []campaignSpec {
	specs := make([]campaignSpec, len(w.oses))
	for i, osName := range w.oses {
		specs[i] = campaignSpec{Index: i, OS: osName, Seed: goldenSeed,
			Budget: time.Duration(float64(goldenBudget) * scale)}
	}
	return specs
}
