package experiments

import (
	"fmt"
	"time"

	"github.com/eof-fuzz/eof/internal/core"
	"github.com/eof-fuzz/eof/internal/fleet"
	"github.com/eof-fuzz/eof/internal/link"
	"github.com/eof-fuzz/eof/internal/targets"
	"github.com/eof-fuzz/eof/internal/trace"
)

// TimeAccounting (E-time) breaks the board-time budget of representative
// FreeRTOS configurations into the trace layer's categories: target
// execution, state restoration, image reflashing, debug-link overhead and
// fleet sync-barrier idling. It quantifies the paper's throughput argument
// directly — where the board's seconds actually go, and how the split shifts
// on degraded probe firmware, a flaky adapter, and a board pool.
func TimeAccounting(opts Options) (*Table, error) {
	type config struct {
		name   string
		legacy bool
		faults float64
		shards int
	}
	configs := []config{
		{name: "EOF"},
		{name: "EOF legacy-link", legacy: true},
		{name: "EOF 5% link faults", faults: 0.05},
		{name: "EOF 4-board fleet", shards: 4},
	}
	t := &Table{
		Title: fmt.Sprintf("E-time: Board-time accounting on FreeRTOS (%gh x %d runs)", opts.Hours, opts.Runs),
		Columns: []string{
			"Config", "Execs", "Executing", "Restoring", "Reflashing",
			"Link overhead", "Sync barrier", "Triaging", "Confirming",
		},
	}
	reports := make([]*core.Report, len(configs)*opts.Runs)
	err := runParallel(len(reports), opts.parallel(), func(i int) error {
		c := configs[i/opts.Runs]
		info, err := targets.ByName("freertos")
		if err != nil {
			return err
		}
		cfg := core.DefaultConfig(info, evalBoards()["freertos"])
		cfg.Seed = opts.SeedBase + int64(i%opts.Runs)
		cfg.LegacyLink = c.legacy
		if c.faults > 0 {
			cfg.LinkFaults = link.Profile(c.faults, 0)
		}
		shards := max(c.shards, 1)
		pool, err := fleet.New(cfg, fleet.Options{Shards: shards})
		if err != nil {
			return err
		}
		defer pool.Close()
		// Same total board time as the solo rows, spread over the pool.
		rep, err := pool.Run(opts.budget() * time.Duration(shards))
		if err != nil {
			return err
		}
		reports[i] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ci, c := range configs {
		var execs []float64
		var by [trace.NumCategories][]float64
		for r := 0; r < opts.Runs; r++ {
			rep := reports[ci*opts.Runs+r]
			execs = append(execs, float64(rep.Stats.Execs))
			sum := rep.TimeBy.Sum()
			for _, cat := range trace.Categories() {
				share := 0.0
				if sum > 0 {
					share = float64(rep.TimeBy.Of(cat)) / float64(sum)
				}
				by[cat] = append(by[cat], share)
			}
		}
		row := []string{c.name, fmt.Sprintf("%.1f", mean(execs))}
		for _, cat := range trace.Categories() {
			row = append(row, fmt.Sprintf("%.1f%%", 100*mean(by[cat])))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"shares of total board time; per campaign the categories sum to the report Duration exactly (x shards in fleet mode)",
		"sync barrier: board idle time at fleet epoch barriers waiting for the slowest sibling; zero outside fleet mode",
		"fleet row runs the same total board time as the solo rows, split across 4 boards")
	return t, nil
}
