package experiments

import (
	"fmt"

	"github.com/eof-fuzz/eof/internal/baselines/gustave"
	"github.com/eof-fuzz/eof/internal/baselines/tardis"
	"github.com/eof-fuzz/eof/internal/boards"
	"github.com/eof-fuzz/eof/internal/core"
	"github.com/eof-fuzz/eof/internal/fleet"
	"github.com/eof-fuzz/eof/internal/targets"
)

// Table3OSes are the full-system comparison targets, in the paper's order.
var Table3OSes = []string{"nuttx", "rtthread", "zephyr", "freertos", "pokos"}

// FullSystemResult carries Table 3 and Figure 7.
type FullSystemResult struct {
	Table   *Table
	Figures []*Figure // one per OS, the Figure-7 panels
	// Edges[os][tool] holds the per-run final edge counts.
	Edges map[string]map[string][]float64
}

// fsJob is one campaign of the full-system comparison.
type fsJob struct {
	os   string
	tool string // "EOF", "EOF-nf", "Tardis", "Gustave"
	run  int
}

// Table3 runs the full-system coverage comparison: EOF and EOF-nf on
// hardware boards, Tardis (or Gustave for PoKOS) on the emulated board,
// with the same specification-derived payloads.
func Table3(opts Options) (*FullSystemResult, error) {
	var jobs []fsJob
	for _, osName := range Table3OSes {
		emuTool := "Tardis"
		if osName == "pokos" {
			emuTool = "Gustave"
		}
		for _, tool := range []string{"EOF", "EOF-nf", emuTool} {
			for r := 0; r < opts.Runs; r++ {
				jobs = append(jobs, fsJob{osName, tool, r})
			}
		}
	}
	reports := make([]*core.Report, len(jobs))
	err := runParallel(len(jobs), opts.parallel(), func(i int) error {
		rep, err := runFullSystemJob(jobs[i], opts)
		if err != nil {
			return fmt.Errorf("%s/%s run %d: %w", jobs[i].os, jobs[i].tool, jobs[i].run, err)
		}
		reports[i] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &FullSystemResult{Edges: make(map[string]map[string][]float64)}
	series := make(map[string]map[string][][]Point)
	for i, job := range jobs {
		rep := reports[i]
		if res.Edges[job.os] == nil {
			res.Edges[job.os] = make(map[string][]float64)
			series[job.os] = make(map[string][][]Point)
		}
		res.Edges[job.os][job.tool] = append(res.Edges[job.os][job.tool], float64(rep.Edges))
		var pts []Point
		for _, s := range rep.Series {
			pts = append(pts, Point{At: s.At, Mean: float64(s.Edges)})
		}
		series[job.os][job.tool] = append(series[job.os][job.tool], pts)
	}

	t := &Table{
		Title:   fmt.Sprintf("Table 3: Full-system coverage, avg branches over %d runs of %gh", opts.Runs, opts.Hours),
		Columns: []string{"Target OS", "EOF", "EOF-nf", "Tardis", "Gustave"},
	}
	for _, osName := range Table3OSes {
		eof := mean(res.Edges[osName]["EOF"])
		nf := mean(res.Edges[osName]["EOF-nf"])
		row := []string{displayName(osName), fmt.Sprintf("%.1f", eof),
			fmt.Sprintf("%.1f (%s)", nf, improvement(eof, nf)), "-", "-"}
		if td := res.Edges[osName]["Tardis"]; len(td) > 0 {
			row[3] = fmt.Sprintf("%.1f (%s)", mean(td), improvement(eof, mean(td)))
		}
		if gu := res.Edges[osName]["Gustave"]; len(gu) > 0 {
			row[4] = fmt.Sprintf("%.1f (%s)", mean(gu), improvement(eof, mean(gu)))
		}
		t.Rows = append(t.Rows, row)

		fig := &Figure{Title: fmt.Sprintf("Figure 7: coverage growth on %s", displayName(osName))}
		for _, tool := range []string{"EOF", "EOF-nf", "Tardis", "Gustave"} {
			if runs := series[osName][tool]; len(runs) > 0 {
				fig.Series = append(fig.Series, mergeSeries(tool, runs))
			}
		}
		res.Figures = append(res.Figures, fig)
	}
	t.Notes = append(t.Notes,
		"parentheses: EOF's improvement over the column's tool",
		"EOF/EOF-nf on hardware boards; Tardis/Gustave on the QEMU board (hardware-only peripherals unreachable there)")
	res.Table = t
	return res, nil
}

func runFullSystemJob(job fsJob, opts Options) (*core.Report, error) {
	info, err := targets.ByName(job.os)
	if err != nil {
		return nil, err
	}
	seed := opts.SeedBase + int64(job.run)*131 + int64(len(job.tool))
	switch job.tool {
	case "EOF", "EOF-nf":
		cfg := core.DefaultConfig(info, evalBoards()[job.os])
		cfg.Seed = seed
		cfg.FeedbackGuided = job.tool == "EOF"
		pool, err := fleet.New(cfg, fleet.Options{Shards: opts.Shards})
		if err != nil {
			return nil, err
		}
		defer pool.Close()
		return pool.Run(opts.budget())
	case "Tardis":
		cfg := tardis.DefaultConfig(info, boards.QEMUVirt())
		cfg.Seed = seed
		return tardis.Run(cfg, opts.budget())
	case "Gustave":
		cfg := gustave.DefaultConfig(info, boards.QEMUVirt())
		cfg.Seed = seed
		return gustave.Run(cfg, opts.budget())
	default:
		return nil, fmt.Errorf("unknown tool %q", job.tool)
	}
}

func displayName(osName string) string {
	info, err := targets.ByName(osName)
	if err != nil {
		return osName
	}
	return info.Display
}
